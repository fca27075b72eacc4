package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/metric"
	"repro/internal/relation"
)

// clients is the number of closed-loop callers the HTTP workloads run:
// each keeps one request outstanding, the way an application server
// that waits for its reply does, and there are no more of them than
// this sandbox has cores, so the load generator never queues behind
// itself. ts_range runs in-process with one caller.
const clients = 2

// op is one request of a workload's sequence.
type op struct {
	stmt   int    // index into httpWorkload.prepared, or -1 when tail is the whole body
	tail   []byte // JSON params array of a prepared op; the whole /v1/query body otherwise
	write  bool   // a single-row /v1/ingest; the row comes from the session's write counter
	target int    // index into the sequence's targets: what the oracle recomputes
}

// sequence is a workload's fixed, seed-derived request sequence. Replays
// cycle over it, so position p issues ops[p % len(ops)].
type sequence struct {
	ops []op
	// targets are what the reads are about, as text: a word or a vector
	// literal. op.target indexes it.
	targets []string
	check   func(o op, r *reply) error // the brute-force oracle for one reply
	// literal renders an op as ad hoc statement text; the traced run's
	// in-process replay parses and plans it.
	literal func(o op) string
	// args are the bind arguments of a prepared op, as the in-process
	// replay passes them to PreparedQuery.Execute.
	args func(o op) []any
}

// httpWorkload is one named workload served by a fresh simqd.
type httpWorkload struct {
	name     string
	why      string
	data     []dataset
	wal      bool     // run simqd with -wal -wal-sync -group-commit
	readOnly bool     // work counters must repeat exactly between runs
	prepared []string // registered through /v1/prepare at set-up
	seqLen   int      // ops in one cycle of the request sequence
	warmOps  int      // unrecorded requests before a replay: the tail of the sequence
	probe    probeSpec
	build    func(rng *rand.Rand, rels map[string]*relation.Relation, n int) (*sequence, error)
}

const (
	nearestWordsStmt = `SELECT id, seq, dist FROM words WHERE seq NEAREST 10 TO ? USING edits`
	adhocWordsStmt   = `SELECT id, seq, dist FROM words WHERE seq SIMILAR TO %q WITHIN 1 USING edits LIMIT 20`
	wideWordsStmt    = `SELECT id, seq, dist FROM words WHERE seq SIMILAR TO ? WITHIN 5 USING edits ORDER BY dist`
	nearestVecStmt   = `SELECT id, dist FROM vecs WHERE vec NEAREST 10 TO ? USING l2`
	mixReadStmt      = `SELECT id, seq, dist FROM words WHERE seq SIMILAR TO ? WITHIN 2 USING edits LIMIT 20`
	joinDictStmt     = `SELECT a.id, b.id, dist FROM dict a, dict b ON dist(a.seq, b.seq) <= ? USING edits WHERE a.id != b.id`
)

// httpWorkloads are the six workloads that go through simqd, in the
// order BENCHMARK.json lists them. ts_range is in tsrange.go.
var httpWorkloads = []*httpWorkload{
	{
		name: "words_nearest",
		why:  "prepared NEAREST 10 over 20k words: BK-tree probe and edit-distance kernel dominate; HTTP and parse barely register",
		data: []dataset{wordsData}, readOnly: true,
		prepared: []string{nearestWordsStmt}, seqLen: 2400, warmOps: 400,
		probe: probeSpec{index: bkNearest, kernelRadius: 4},
		build: func(rng *rand.Rand, rels map[string]*relation.Relation, n int) (*sequence, error) {
			rows := rels["words"].Tuples()
			targets := wordTargets(rng, rows, n)
			return wordSequence(targets, 0, func(t string, r *reply) error {
				return checkNearestWords(rows, t, 10, r)
			}, nearestWordsStmt), nil
		},
	},
	{
		name: "words_adhoc",
		why:  "ad hoc WITHIN 1 text over 5000 distinct literals, 10x the 512-entry plan cache: decode, lex/parse/plan and encode dominate; the index barely registers",
		data: []dataset{wordsData}, readOnly: true,
		seqLen: 5000, warmOps: 1000,
		probe: probeSpec{index: trieRange(1), kernelRadius: 1},
		build: func(rng *rand.Rand, rels map[string]*relation.Relation, n int) (*sequence, error) {
			rows := rels["words"].Tuples()
			targets := distinct(func() string { return wordTargets(rng, rows, 1)[0] }, n)
			s := &sequence{
				targets: targets,
				check:   func(o op, r *reply) error { return checkWithinWords(rows, targets[o.target], 1, 20, false, r) },
				literal: func(o op) string { return fmt.Sprintf(adhocWordsStmt, targets[o.target]) },
			}
			for i := range targets {
				o := op{stmt: -1, target: i}
				o.tail = mustJSON(map[string]string{"query": s.literal(o)})
				s.ops = append(s.ops, o)
			}
			return s, nil
		},
	},
	{
		name: "words_wide",
		why:  "prepared WITHIN 5 ORDER BY dist, no LIMIT: full snapshot scan, 20k batch-kernel verifications, sort and a large JSON reply; bypasses every index",
		data: []dataset{wordsData}, readOnly: true,
		prepared: []string{wideWordsStmt}, seqLen: 1200, warmOps: 100,
		probe: probeSpec{kernelRadius: 5, scan: true},
		build: func(rng *rand.Rand, rels map[string]*relation.Relation, n int) (*sequence, error) {
			rows := rels["words"].Tuples()
			targets := wordTargets(rng, rows, n)
			return wordSequence(targets, 0, func(t string, r *reply) error {
				return checkWithinWords(rows, t, 5, 0, true, r)
			}, wideWordsStmt), nil
		},
	},
	{
		name: "vec_nearest",
		why:  "prepared NEAREST 10 USING l2 over 20k x 64-dim vectors: the VP-tree and internal/metric counterpart of words_nearest",
		data: []dataset{vecsData}, readOnly: true,
		prepared: []string{nearestVecStmt}, seqLen: 3200, warmOps: 600,
		probe: probeSpec{index: vpNearest},
		build: func(rng *rand.Rand, rels map[string]*relation.Relation, n int) (*sequence, error) {
			rows := rels["vecs"].Tuples()
			vecs := vecTargets(rng, rows, n)
			s := &sequence{
				check:   func(o op, r *reply) error { return checkNearestVecs(rows, vecs[o.target], 10, r) },
				literal: func(o op) string { return bind(nearestVecStmt, metric.Format(vecs[o.target])) },
			}
			s.args = func(o op) []any { return []any{s.targets[o.target]} }
			for i, v := range vecs {
				s.targets = append(s.targets, metric.Format(v))
				s.ops = append(s.ops, op{stmt: 0, tail: mustJSON([]string{s.targets[i]}), target: i})
			}
			return s, nil
		},
	},
	{
		name: "ingest_mix",
		why:  "80% prepared WITHIN 2 reads, 20% single-row durable ingests: online index maintenance, plan-cache invalidation per commit and WAL group commit, so a read win that taxes writes shows",
		data: []dataset{wordsData}, wal: true,
		prepared: []string{mixReadStmt}, seqLen: 4000, warmOps: 400,
		probe: probeSpec{index: trieRange(2), kernelRadius: 2, scan: true},
		build: func(rng *rand.Rand, rels map[string]*relation.Relation, n int) (*sequence, error) {
			rows := rels["words"].Tuples()
			targets := wordTargets(rng, rows, n)
			s := wordSequence(targets, 0, func(t string, r *reply) error {
				return checkWithinWords(rows, t, 2, 20, false, r)
			}, mixReadStmt)
			for i := range s.ops {
				if i%5 == 4 {
					s.ops[i] = op{stmt: -1, write: true, target: -1}
				}
			}
			return s, nil
		},
	},
	{
		name: "join_dict",
		why:  "prepared 600-row self-join ON dist <= 1 with an integral radius, so the planner may pick index, partitioned or nested loop: guards the join operator family",
		data: []dataset{dictData}, readOnly: true,
		prepared: []string{joinDictStmt}, seqLen: 400, warmOps: 50,
		probe: probeSpec{kernelRadius: 1},
		build: func(rng *rand.Rand, rels map[string]*relation.Relation, n int) (*sequence, error) {
			rows := rels["dict"].Tuples()
			truth := joinTruth(rows, 1)
			s := &sequence{
				check:   func(o op, r *reply) error { return checkJoin(truth, r) },
				literal: func(o op) string { return bind(joinDictStmt, "1") },
				args:    func(o op) []any { return []any{1} },
			}
			for _, t := range rows {
				s.targets = append(s.targets, t.Seq) // no read has a target; the kernel probe uses these
			}
			for i := 0; i < n; i++ {
				s.ops = append(s.ops, op{stmt: 0, tail: []byte("[1]")})
			}
			return s, nil
		},
	},
}

// wordSequence builds one prepared op per target for statement stmt,
// whose single parameter is the target word.
func wordSequence(targets []string, stmt int, check func(target string, r *reply) error, text string) *sequence {
	s := &sequence{
		targets: targets,
		check:   func(o op, r *reply) error { return check(targets[o.target], r) },
		literal: func(o op) string { return bind(text, fmt.Sprintf("%q", targets[o.target])) },
		args:    func(o op) []any { return []any{targets[o.target]} },
	}
	for i, t := range targets {
		s.ops = append(s.ops, op{stmt: stmt, tail: mustJSON([]string{t}), target: i})
	}
	return s
}

// bind substitutes lit for the statement's '?'.
func bind(stmt, lit string) string { return strings.Replace(stmt, "?", lit, 1) }

// distinct draws from gen until it has n different values.
func distinct(gen func() string, n int) []string {
	seen := make(map[string]bool, n)
	out := make([]string, 0, n)
	for len(out) < n {
		if s := gen(); !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only strings and string slices are passed
	}
	return b
}
