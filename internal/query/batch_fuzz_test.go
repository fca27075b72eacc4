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

	"repro/internal/relation"
	"repro/internal/rewrite"
)

// fuzzParityEngines builds a fresh block-1/block-13 engine pair and the
// model over a small fixed dataset. Fresh per call: DML inputs mutate
// state, and corpus entries must reproduce independently of execution
// order.
func fuzzParityEngines() (row, batch *Engine, model *oracleDB) {
	seqs := []string{
		"abcd", "abce", "abde", "acbd", "bcda", "cadb",
		"jihg", "jihf", "aaaa", "aaab", "bbbb", "dcba",
		"abcdefgh", "abcdefgi", "hgfedcba",
	}
	mk := func(size int) *Engine {
		cat := relation.NewCatalog()
		rel := relation.New("words")
		for _, s := range seqs {
			rel.Insert(s, map[string]string{"tag": s[:1]})
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
