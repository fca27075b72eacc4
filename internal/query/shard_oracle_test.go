package query

// The gather oracle: for randomized datasets, statements and slice
// counts, an engine that runs every scan with per-row work as that many
// parallel id-range slices under a GatherMerge(shards=N) must be
// indistinguishable from (a) the serial engine and (b) a brute-force
// model of the query semantics.
//
// Identity is byte-level and positional: every reply has an
// engine-defined total order — WITHIN and full-table dumps ascending id
// (the band walk sorts its matches by id, the gather merges slices by
// id), NEAREST (dist, id), ORDER BY dist a stable sort of the id order —
// so replies are compared byte for byte in emitted order. DML must leave
// both engines with byte-identical table contents — including assigned
// tuple ids — after every statement batch.

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/editdp"
	"repro/internal/relation"
	"repro/internal/rewrite"
)

// oracleAlphabet keeps distances small and collisions (interesting
// ties) frequent.
const oracleAlphabet = "abcdefghij"

// oracleRow is the brute-force model's tuple.
type oracleRow struct {
	id  int
	seq string
	tag string
}

// oracleDB models the engine's DML semantics exactly: ascending-id
// application order, updates tombstone + reinsert under fresh ids.
type oracleDB struct {
	rows   []oracleRow // ascending id
	nextID int
}

func (o *oracleDB) insert(seq, tag string) {
	o.rows = append(o.rows, oracleRow{id: o.nextID, seq: seq, tag: tag})
	o.nextID++
}

func (o *oracleDB) matchWithin(target string, r int) []int {
	var ids []int
	for _, row := range o.rows {
		if _, ok := editdp.LevenshteinWithin(row.seq, target, r); ok {
			ids = append(ids, row.id)
		}
	}
	return ids
}

func (o *oracleDB) deleteIDs(ids []int) {
	dead := map[int]bool{}
	for _, id := range ids {
		dead[id] = true
	}
	kept := o.rows[:0]
	for _, row := range o.rows {
		if !dead[row.id] {
			kept = append(kept, row)
		}
	}
	o.rows = kept
}

// updateRows mirrors execDeleteOrUpdate: matched ids ascending, each
// update removes the old row and appends the changed one under the next
// fresh id.
func (o *oracleDB) updateRows(ids []int, set func(*oracleRow)) {
	sort.Ints(ids)
	for _, id := range ids {
		for _, row := range o.rows {
			if row.id == id {
				set(&row)
				o.deleteIDs([]int{id})
				o.insert(row.seq, row.tag)
				break
			}
		}
	}
}

func (o *oracleDB) updateIDs(ids []int, newSeq string) {
	o.updateRows(ids, func(r *oracleRow) { r.seq = newSeq })
}

// oraclePair is one serial/parallel engine pair over the same logical
// relation plus the brute-force model.
type oraclePair struct {
	plain    *Engine
	parallel *Engine // slices parallel slices (serial too when slices is 1)
	slices   int
	model    *oracleDB
}

func newOraclePair(t *testing.T, slices, block int) *oraclePair {
	t.Helper()
	mk := func(opts ...Option) *Engine {
		cat := relation.NewCatalog()
		cat.Add(relation.New("words"))
		e := NewEngine(cat, append(opts, WithBatchSize(block))...)
		rs := rewrite.MustRuleSet("edits", rewrite.UnitEdits(oracleAlphabet).Rules())
		if err := e.RegisterRuleSet(rs); err != nil {
			t.Fatal(err)
		}
		return e
	}
	return &oraclePair{
		plain:    mk(WithParallelism(1)),
		parallel: mk(WithParallelism(slices), WithParallelMinRows(1)),
		slices:   slices,
		model:    &oracleDB{},
	}
}

// exec runs one statement on both engines and keeps the model in sync
// via the apply callback.
func (p *oraclePair) exec(t *testing.T, stmt string, apply func(*oracleDB)) {
	t.Helper()
	a, err := p.plain.Execute(stmt)
	if err != nil {
		t.Fatalf("serial %q: %v", stmt, err)
	}
	b, err := p.parallel.Execute(stmt)
	if err != nil {
		t.Fatalf("parallel %q: %v", stmt, err)
	}
	if a.Columns[0] == "count" && a.Rows[0][0] != b.Rows[0][0] {
		t.Fatalf("%q: affected-count diverges: %s vs %s", stmt, a.Rows[0][0], b.Rows[0][0])
	}
	if apply != nil {
		apply(p.model)
	}
}

// checkTableParity asserts byte-identical table contents across both
// engines and the model.
func (p *oraclePair) checkTableParity(t *testing.T) {
	t.Helper()
	plain, parallel, model := dumpWords(p.plain), dumpWords(p.parallel), p.model.dump()
	if plain != parallel {
		t.Fatalf("table contents diverge:\nserial:\n%s\nparallel:\n%s", plain, parallel)
	}
	if plain != model {
		t.Fatalf("engines diverge from oracle:\nengine:\n%s\noracle:\n%s", plain, model)
	}
}

// canonical encodes a result's rows as a sorted byte string; two result
// sets are equal iff their canonical encodings are byte-identical.
func canonical(res *Result) string {
	rows := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		rows[i] = strings.Join(r, "\x1f")
	}
	sort.Strings(rows)
	return strings.Join(rows, "\n")
}

// positional encodes a result's rows in emitted order.
func positional(res *Result) string {
	rows := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		rows[i] = strings.Join(r, "\x1f")
	}
	return strings.Join(rows, "\n")
}

func randOracleSeq(rng *rand.Rand) string {
	b := make([]byte, 2+rng.Intn(7))
	for i := range b {
		b[i] = oracleAlphabet[rng.Intn(len(oracleAlphabet))]
	}
	return string(b)
}

// TestShardOracleParity is the main oracle property test: randomized
// datasets, queries and DML over slice counts 1, 2, 4 and 7 (shards=N,
// the GatherMerge's stream count) and block sizes 1 and 256, with the
// parallel engine checked byte-for-byte against the serial engine and
// the brute-force model after every batch.
func TestShardOracleParity(t *testing.T) {
	for _, shards := range []int{1, 2, 4, 7} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			for _, block := range []int{1, 256} {
				t.Run(fmt.Sprintf("block=%d", block), func(t *testing.T) {
					shardOracleParity(t, shards, block)
				})
			}
		})
	}
}

func shardOracleParity(t *testing.T, shards, block int) {
	rng := rand.New(rand.NewSource(int64(42 + shards)))
	p := newOraclePair(t, shards, block)

	// Seed rows.
	var values []string
	var applies []func(*oracleDB)
	for i := 0; i < 150; i++ {
		seq := randOracleSeq(rng)
		tag := string(oracleAlphabet[rng.Intn(3)])
		values = append(values, fmt.Sprintf("(%q, %q)", seq, tag))
		applies = append(applies, func(o *oracleDB) { o.insert(seq, tag) })
	}
	p.exec(t, "INSERT INTO words (seq, tag) VALUES "+strings.Join(values, ", "),
		func(o *oracleDB) {
			for _, f := range applies {
				f(o)
			}
		})
	p.checkTableParity(t)

	for gen := 0; gen < 6; gen++ {
		// A batch of random DML.
		for i := 0; i < 10; i++ {
			switch rng.Intn(4) {
			case 0: // insert
				seq := randOracleSeq(rng)
				tag := string(oracleAlphabet[rng.Intn(3)])
				p.exec(t, fmt.Sprintf("INSERT INTO words (seq, tag) VALUES (%q, %q)", seq, tag),
					func(o *oracleDB) { o.insert(seq, tag) })
			case 1: // predicate delete (exercises the read plan)
				target := randOracleSeq(rng)
				p.exec(t, fmt.Sprintf(`DELETE FROM words WHERE seq SIMILAR TO %q WITHIN 1 USING edits`, target),
					func(o *oracleDB) { o.deleteIDs(o.matchWithin(target, 1)) })
			case 2: // delete by id
				if len(p.model.rows) == 0 {
					continue
				}
				id := p.model.rows[rng.Intn(len(p.model.rows))].id
				p.exec(t, fmt.Sprintf(`DELETE FROM words WHERE id = "%d"`, id),
					func(o *oracleDB) { o.deleteIDs([]int{id}) })
			case 3: // predicate update (fresh-id assignment parity)
				target := randOracleSeq(rng)
				repl := randOracleSeq(rng)
				p.exec(t, fmt.Sprintf(`UPDATE words SET seq = %q WHERE seq SIMILAR TO %q WITHIN 1 USING edits`, repl, target),
					func(o *oracleDB) { o.updateIDs(o.matchWithin(target, 1), repl) })
			}
		}
		p.checkTableParity(t)

		// WITHIN at radii r, r+0.5 and r+1, bare, under ORDER BY dist
		// ASC and DESC, under LIMIT n with and without an order, and
		// behind a residual filter: positional identity across both
		// engines and the model (distances tie often over this alphabet,
		// so the id tie-break is exercised), and the paper's monotonicity
		// WITHIN r ⊆ WITHIN r' for r <= r' on the engine's own replies.
		// The band walk is never sliced: both engines plan the same leaf,
		// which sorts for the ORDER BY itself. The same predicate OR an
		// impossible equality forces a scan, which the parallel engine
		// slices — with the OrderByDist above the gather for an ORDER BY,
		// and serially for a LIMIT without one, so the pipeline can stop.
		for i := 0; i < 4; i++ {
			target := randOracleSeq(rng)
			r, lim := rng.Intn(3), fmt.Sprintf(" LIMIT %d", 1+rng.Intn(4))
			tagged := fmt.Sprintf(" AND tag = %q", string(oracleAlphabet[rng.Intn(3)]))
			var prev []string
			for _, radius := range []float64{float64(r), float64(r) + 0.5, float64(r) + 1} {
				stmt := fmt.Sprintf(`SELECT id, seq, dist FROM words WHERE seq SIMILAR TO %q WITHIN %g USING edits`, target, radius)
				var bare []string // the engine's rows for the bare statement
				for _, scan := range []bool{false, true} {
					s := stmt
					if scan {
						s += ` OR seq = "#"`
					}
					for _, suffix := range []string{
						"", " ORDER BY dist", " ORDER BY dist DESC",
						lim, " ORDER BY dist" + lim, " ORDER BY dist DESC" + lim,
						tagged + " ORDER BY dist DESC" + lim,
					} {
						a, err := p.plain.Execute(s + suffix)
						if err != nil {
							t.Fatal(err)
						}
						b, err := p.parallel.Execute(s + suffix)
						if err != nil {
							t.Fatal(err)
						}
						ordered := strings.Contains(suffix, "ORDER BY")
						gathered := scan && p.slices > 1 && (ordered || !strings.Contains(suffix, "LIMIT"))
						switch {
						case !gathered && a.Plan() != b.Plan():
							t.Fatalf("%s%s: the engines plan differently:\n%s\n%s", s, suffix, a.Plan(), b.Plan())
						case gathered && !strings.Contains(b.Plan(), fmt.Sprintf("GatherMerge(shards=%d", p.slices)):
							t.Fatalf("%s%s: the parallel scan does not run under the gather:\n%s", s, suffix, b.Plan())
						case gathered && ordered && !strings.Contains(b.Plan(), "OrderByDist"):
							t.Fatalf("%s%s: no OrderByDist above the gather:\n%s", s, suffix, b.Plan())
						}
						if positional(a) != positional(b) {
							t.Fatalf("%s%s diverges:\nserial:\n%s\nparallel:\n%s", s, suffix, positional(a), positional(b))
						}
						p.model.checkModel(t, s+suffix, b)
						if suffix == "" && !scan {
							for _, row := range b.Rows {
								bare = append(bare, strings.Join(row, "\x1f"))
							}
						}
					}
				}
				wider := map[string]bool{}
				for _, row := range bare {
					wider[row] = true
				}
				for _, row := range prev {
					if !wider[row] {
						t.Fatalf("%s lost row %q of the narrower radius", stmt, row)
					}
				}
				prev = bare
			}
		}

		// NEAREST: positional byte identity — the (dist, id) order is
		// engine-defined, so both engines and the model must agree on
		// every byte including order, also when ORDER BY dist DESC turns
		// the best list around (the leaf re-sorts it by (dist desc, id)).
		for i := 0; i < 4; i++ {
			target := randOracleSeq(rng)
			k := 1 + rng.Intn(8)
			stmt := fmt.Sprintf(`SELECT id, seq, dist FROM words WHERE seq NEAREST %d TO %q USING edits`, k, target)
			for _, suffix := range []string{"", " ORDER BY dist", " ORDER BY dist DESC", " ORDER BY dist DESC LIMIT 2"} {
				a, err := p.plain.Execute(stmt + suffix)
				if err != nil {
					t.Fatal(err)
				}
				b, err := p.parallel.Execute(stmt + suffix)
				if err != nil {
					t.Fatal(err)
				}
				if positional(a) != positional(b) {
					t.Fatalf("NEAREST diverges for %q:\nserial:\n%s\nparallel:\n%s", stmt+suffix, positional(a), positional(b))
				}
				p.model.checkModel(t, stmt+suffix, b)
			}
		}
	}
}

// TestShardOracleInterleavedWrites runs the same deterministic write
// stream through each engine's single writer while concurrent readers
// hammer snapshot queries, then asserts the engines and the oracle
// converge to byte-identical state. Under -race this also proves the
// gather path is data-race free against live mutation.
func TestShardOracleInterleavedWrites(t *testing.T) {
	for _, shards := range []int{2, 7} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(7 * shards)))
			p := newOraclePair(t, shards, defaultBatchSize)

			// Deterministic statement stream + oracle applications.
			type step struct {
				stmt  string
				apply func(*oracleDB)
			}
			var steps []step
			for i := 0; i < 120; i++ {
				switch rng.Intn(3) {
				case 0, 1:
					seq := randOracleSeq(rng)
					tag := string(oracleAlphabet[rng.Intn(3)])
					steps = append(steps, step{
						stmt:  fmt.Sprintf("INSERT INTO words (seq, tag) VALUES (%q, %q)", seq, tag),
						apply: func(o *oracleDB) { o.insert(seq, tag) },
					})
				case 2:
					target := randOracleSeq(rng)
					steps = append(steps, step{
						stmt:  fmt.Sprintf(`DELETE FROM words WHERE seq SIMILAR TO %q WITHIN 1 USING edits`, target),
						apply: func(o *oracleDB) { o.deleteIDs(o.matchWithin(target, 1)) },
					})
				}
			}

			var wg sync.WaitGroup
			writeErr := make(chan error, 2)
			for _, eng := range []*Engine{p.plain, p.parallel} {
				eng := eng
				wg.Add(1)
				go func() {
					defer wg.Done()
					for _, s := range steps {
						if _, err := eng.Execute(s.stmt); err != nil {
							writeErr <- fmt.Errorf("%q: %w", s.stmt, err)
							return
						}
					}
				}()
			}
			queries := []string{
				`SELECT id, seq, dist FROM words WHERE seq SIMILAR TO "abab" WITHIN 2 USING edits`,
				`SELECT id, seq, dist FROM words WHERE seq NEAREST 5 TO "cdcd" USING edits`,
				`SELECT id, seq FROM words`,
				`SELECT id, seq, dist FROM words WHERE seq SIMILAR TO "abab" WITHIN 2 USING edits OR seq = "#"`,
			}
			readErr := make(chan error, 4)
			for r := 0; r < 4; r++ {
				r := r
				wg.Add(1)
				go func() {
					defer wg.Done()
					eng := p.parallel
					if r%2 == 0 {
						eng = p.plain
					}
					for i := 0; i < 60; i++ {
						if _, err := eng.Execute(queries[i%len(queries)]); err != nil {
							readErr <- err
							return
						}
					}
				}()
			}
			wg.Wait()
			close(writeErr)
			close(readErr)
			if err := <-writeErr; err != nil {
				t.Fatal(err)
			}
			if err := <-readErr; err != nil {
				t.Fatal(err)
			}
			for _, s := range steps {
				s.apply(p.model)
			}
			p.checkTableParity(t)
		})
	}
}
