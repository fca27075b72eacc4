package query

// FuzzBatchParity: arbitrary statement text must never make the engine
// at one block size diverge from the engine at another — same error or
// byte-identical rows in byte-identical order — and, whenever the
// statement lies inside the brute-force model's language
// (oracle_model_test.go), both must equal the model. This is the
// fuzz-shaped face of the block-size parity oracle, seeded with every
// statement family; the CI fuzz job runs it next to the lexer/parser
// fuzzers.

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/metric"
	"repro/internal/relation"
	"repro/internal/rewrite"
)

// fuzzParityEngines builds a fresh block-1/block-13 engine pair and the
// model over a small fixed dataset. Fresh per call: DML inputs mutate
// state, and corpus entries must reproduce independently of execution
// order. Every row but every fifth carries a 3-d vector, so the vector
// paths run too (the model leaves statements that read vec unmodeled;
// the pair still checks them against each other).
func fuzzParityEngines() (row, batch *Engine, model *oracleDB) {
	seqs := []string{
		"abcd", "abce", "abde", "acbd", "bcda", "cadb",
		"jihg", "jihf", "aaaa", "aaab", "bbbb", "dcba",
		"abcdefgh", "abcdefgi", "hgfedcba",
	}
	mk := func(size int) *Engine {
		cat := relation.NewCatalog()
		rel := relation.New("words")
		for i, s := range seqs {
			in := relation.InsertRow{Seq: s, Attrs: map[string]string{"tag": s[:1]}}
			if i%5 != 4 {
				in.Vec = metric.Vector{float32(i%4) * 0.5, float32(i % 3), float32(len(s)) * 0.25}
			}
			rel.InsertOne(in)
		}
		cat.Add(rel)
		e := NewEngine(cat, WithBatchSize(size))
		_ = e.RegisterRuleSet(rewrite.MustRuleSet("edits", rewrite.UnitEdits(oracleAlphabet).Rules()))
		return e
	}
	model = &oracleDB{}
	for _, s := range seqs {
		model.insert(s, s[:1])
	}
	// 13 is an odd block size: exercises partial-block edges.
	return mk(1), mk(13), model
}

func FuzzBatchParity(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Add(`SELECT seq, dist FROM words WHERE seq SIMILAR TO "abcd" WITHIN 2 USING edits ORDER BY dist DESC LIMIT 5`)
	f.Add(`SELECT * FROM words WHERE seq NEAREST 4 TO "abcd" USING edits`)
	f.Add(`SELECT * FROM words WHERE NOT (tag = "a") AND seq SIMILAR TO "abcd" WITHIN 3 USING edits`)
	f.Add(`DELETE FROM words WHERE seq SIMILAR TO "abcd" WITHIN 1 USING edits`)
	f.Add(`UPDATE words SET tag = "z" WHERE seq SIMILAR TO "jihg" WITHIN 1 USING edits`)
	// Two similarity predicates: the first in evaluation order sets dist,
	// not the one the band walk serves.
	f.Add(`SELECT id, dist FROM words WHERE tag SIMILAR TO "a" WITHIN 1 USING edits AND seq SIMILAR TO "abcd" WITHIN 2 USING edits ORDER BY dist`)
	f.Add(`SELECT * FROM words WHERE seq SIMILAR TO PATTERN "a(b|c)*" WITHIN 2 USING edits AND seq SIMILAR TO "abcd" WITHIN 1 USING edits`)
	// Error-order parity: the field error (dist unavailable) must win
	// over a hoisted evaluator error at every block size.
	f.Add(`SELECT seq FROM words WHERE dist SIMILAR TO PATTERN "c*" WITHIN 1 USING nosuch`)
	f.Add(`SELECT seq FROM words WHERE dist SIMILAR TO "x" WITHIN 1 USING nosuch`)
	// Self-joins: rows of two slots through the join, its residual
	// filter and every operator above it. The model does not join, so
	// these check block-size self-consistency — rows and error text.
	f.Add(`SELECT a.id, b.id, dist FROM words a, words b ON dist(a.seq, b.seq) <= 1 USING edits WHERE a.id != b.id`)
	f.Add(`SELECT * FROM words a, words b WHERE a.seq SIMILAR TO b.seq WITHIN 1 USING edits`)
	f.Add(`SELECT a.seq, b.seq, dist FROM words a, words b ON dist(a.seq, b.seq) <= 2 USING edits ORDER BY dist LIMIT 7`)
	f.Add(`SELECT a.id, b.id FROM words a, words b ON dist(a.seq, b.seq) <= 2 USING edits WHERE a.tag = "j" OR b.tag = "b"`)
	f.Add(`SELECT seq FROM words a, words b ON dist(a.seq, b.seq) <= 1 USING edits`)
	f.Add(`SELECT z.seq FROM words a, words b ON dist(a.seq, b.seq) <= 1 USING edits`)
	f.Add(`SELECT a.id, b.id, dist FROM words a, words b ON dist(a.seq, b.seq) <= 2 USING edits WHERE dist = "1"`)
	// Self-joins that verify each unordered pair once (IndexJoin ...,
	// symmetric): mirrored matches must land in outer order at every
	// block size, across a LIMIT, a sort and a residual.
	f.Add(`SELECT a.id, b.id, dist FROM words a, words b ON dist(a.seq, b.seq) <= 1 USING edits WHERE a.id != b.id LIMIT 3`)
	f.Add(`SELECT a.id, b.id, dist FROM words a, words b ON dist(a.seq, b.seq) <= 2 USING edits WHERE a.id != b.id ORDER BY dist`)
	f.Add(`SELECT a.id, b.id, dist FROM words a, words b ON dist(a.seq, b.seq) <= 1 USING edits WHERE b.id != a.id`)
	f.Add(`SELECT a.id, b.id FROM words a, words b ON dist(a.seq, b.seq) <= 2 USING edits WHERE a.tag = "j" AND a.id != b.id`)
	f.Add(`SELECT a.seq, b.seq FROM words a, words b ON dist(a.seq, b.seq) <= 0 USING edits WHERE a.id != b.id`)
	f.Add(`SELECT a.id, b.id, dist FROM words a, words b ON dist(b.seq, a.seq) <= 2 USING edits WHERE a.id != b.id ORDER BY dist DESC LIMIT 9`)
	// The vector paths: the view under either metric as leaves and as
	// join probes, a join whose two edges are of two domains (the row's
	// distance is the first edge's), and the vector statements that must
	// fail.
	f.Add(`SELECT id, dist FROM words WHERE vec NEAREST 3 TO [0.5, 1, 1] USING l2`)
	f.Add(`SELECT id, dist FROM words WHERE vec NEAREST 4 TO [1, 0, 1] USING cosine ORDER BY dist DESC`)
	f.Add(`SELECT id, dist FROM words WHERE vec SIMILAR TO [0.5, 1, 1] WITHIN 1.2 USING l2 ORDER BY dist`)
	f.Add(`SELECT id, dist FROM words WHERE vec SIMILAR TO [1, 0, 1] WITHIN 0.3 USING cosine ORDER BY dist`)
	f.Add(`SELECT id, dist FROM words WHERE tag = "a" AND vec SIMILAR TO [0, 0, 1] WITHIN 1 USING l2`)
	f.Add(`SELECT a.id, b.id, dist FROM words a, words b ON dist(a.vec, b.vec) <= 0.8 USING l2 WHERE a.id != b.id`)
	f.Add(`SELECT a.id, b.id, dist FROM words a, words b ON dist(a.vec, b.vec) <= 0.05 USING cosine WHERE a.id != b.id`)
	f.Add(`SELECT a.id, b.id, dist FROM words a, words b WHERE a.seq SIMILAR TO b.seq WITHIN 1 USING edits AND a.vec SIMILAR TO b.vec WITHIN 1.5 USING l2 AND a.id != b.id`)
	f.Add(`SELECT a.id, b.id, dist FROM words a, words b WHERE a.vec SIMILAR TO b.vec WITHIN 1.5 USING l2 AND a.seq SIMILAR TO b.seq WITHIN 1 USING edits AND a.id != b.id`)
	f.Add(`SELECT id FROM words WHERE vec SIMILAR TO PATTERN "a*" WITHIN 1 USING l2`)
	f.Add(`SELECT id FROM words WHERE vec NEAREST 2 TO [1, 1, 1] USING nosuch`)
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 512 {
			return // long inputs only stress the lexer, which FuzzLex owns
		}
		stmt, err := ParseStatement(src)
		if err != nil {
			return
		}
		row, batch, model := fuzzParityEngines()
		r, rerr := row.Execute(src)
		b, berr := batch.Execute(src)
		if (rerr == nil) != (berr == nil) {
			t.Fatalf("error parity broken for %q: block 1=%v block 13=%v", src, rerr, berr)
		}
		if rerr != nil {
			if rerr.Error() != berr.Error() {
				t.Fatalf("error text diverges for %q:\nblock 1:  %v\nblock 13: %v", src, rerr, berr)
			}
			return
		}
		if strings.Join(r.Columns, "\x1f") != strings.Join(b.Columns, "\x1f") {
			t.Fatalf("columns diverge for %q: %v vs %v", src, r.Columns, b.Columns)
		}
		if positional(r) != positional(b) {
			t.Fatalf("rows diverge for %q:\nblock 1:\n%s\nblock 13:\n%s", src, positional(r), positional(b))
		}
		switch s := stmt.(type) {
		case *Query:
			if s.Explain {
				return // the plan text is not a result set
			}
			mr, err := model.query(s)
			if errors.Is(err, errUnmodeled) {
				return
			}
			mr.check(t, src, b)
		case *Mutation:
			// DML: both engines must leave identical table contents — the
			// model's, when the statement is one it can apply.
			if dumpWords(row) != dumpWords(batch) {
				t.Fatalf("table contents diverge after %q", src)
			}
			if s.Explain || errors.Is(model.mutate(s), errUnmodeled) {
				return
			}
			if got, want := dumpWords(batch), model.dump(); got != want {
				t.Fatalf("table contents diverge from the model after %q:\nengine:\n%s\nmodel:\n%s", src, got, want)
			}
		}
	})
}
