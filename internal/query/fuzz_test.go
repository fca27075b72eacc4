package query

import "testing"

// fuzzSeeds covers every statement family, the DML grammar included, so
// the fuzzers start from the interesting corners of the language.
var fuzzSeeds = []string{
	`SELECT * FROM words WHERE seq SIMILAR TO "colour" WITHIN 2 USING edits`,
	`SELECT a.seq, dist FROM s a, s b WHERE a.seq SIMILAR TO b.seq WITHIN 1 USING e ORDER BY dist DESC LIMIT 3`,
	`SELECT * FROM words WHERE seq NEAREST 5 TO "color" USING edits`,
	`SELECT * FROM w WHERE seq SIMILAR TO PATTERN "a(b|c)*d" WITHIN 1 USING edits`,
	`SELECT * FROM w WHERE seq SIMILAR TO ? WITHIN ? USING e LIMIT ?`,
	`SELECT * FROM w WHERE seq SIMILAR TO :t WITHIN :r USING e`,
	`EXPLAIN SELECT * FROM w WHERE NOT (a = "x" OR b != "y")`,
	`INSERT INTO words VALUES ("abc")`,
	`INSERT INTO words (seq, lang) VALUES ("abc", "en"), (?, ?)`,
	`DELETE FROM words WHERE seq SIMILAR TO "tmp" WITHIN 1 USING edits`,
	`DELETE FROM words`,
	`UPDATE words SET seq = :s, lang = "en" WHERE id = :id`,
	`EXPLAIN UPDATE w SET seq = "x" WHERE seq NEAREST 3 TO "y" USING e`,
	`;`, `"unterminated`, `:`, `INSERT INTO`, `UPDATE SET`,
	"SELECT * FROM w WHERE a = \"\\\"esc\\\"\"",
	// DML shapes: batch inserts and the id-addressed and predicate
	// forms of DELETE and UPDATE.
	`INSERT INTO words (seq, tag) VALUES ("abcj", "1"), ("jihg", "2"), ("aaaa", "0")`,
	`DELETE FROM words WHERE id = "17"`,
	`UPDATE words SET seq = "bdfh" WHERE seq SIMILAR TO "bdfg" WITHIN 1 USING edits`,
	`UPDATE words SET seq = "moved" WHERE id = "3"`,
	`EXPLAIN SELECT id, seq, dist FROM words WHERE seq NEAREST 7 TO "cadgbeif" USING edits`,
	// Whitespace and escapes inside and outside literals: the normalized
	// text is a statement's cache key, so it must never merge two
	// statements that lex differently.
	"SELECT\tseq\r\nFROM  words WHERE seq = \"a\\\" \\\"\tb\"\t",
	"\r\n\tSELECT * FROM w WHERE a = \"x\r\ny\" AND b = \"\\\\\" \r AND c = \" \t \"",
	"SELECT * FROM w WHERE a = \"unterminated\\\"  \t",
	"INSERT INTO w (seq)\tVALUES\r(\"a\\\"\r\\\"b\"),\n(\"  \")",
}

// FuzzLex asserts the lexer never panics, that every token it emits
// stays inside the input's bounds, and that normalizing the text (the
// statement cache's key) changes no token: lex(normalizeQueryText(s))
// yields the same kinds and texts as lex(s), or both fail.
func FuzzLex(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		toks, err := lex(src)
		norm, nerr := lex(normalizeQueryText(src))
		if (err == nil) != (nerr == nil) {
			t.Fatalf("lex(%q) err = %v, but lex of its normalized text %q err = %v", src, err, normalizeQueryText(src), nerr)
		}
		if err != nil {
			return
		}
		if len(norm) != len(toks) {
			t.Fatalf("lex(%q) gave %d tokens, its normalized text %q %d", src, len(toks), normalizeQueryText(src), len(norm))
		}
		for i := range toks {
			if toks[i].kind != norm[i].kind || toks[i].text != norm[i].text {
				t.Fatalf("lex(%q) token %d = %v, normalized %v", src, i, toks[i], norm[i])
			}
		}
		if len(toks) == 0 || toks[len(toks)-1].kind != tokEOF {
			t.Fatalf("lex(%q): missing EOF token", src)
		}
		for _, tok := range toks {
			if tok.pos < 0 || tok.pos > len(src) {
				t.Fatalf("lex(%q): token %v out of bounds", src, tok)
			}
		}
	})
}

// FuzzParse asserts the parser never panics, and that every statement
// it accepts round-trips: rendering it and parsing the rendering yields
// the same rendering (a fixpoint after at most one normalisation step).
func FuzzParse(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		stmt, err := ParseStatement(src)
		if err != nil {
			return
		}
		first := stmt.String()
		re, err := ParseStatement(first)
		if err != nil {
			t.Fatalf("accepted %q but rejected its own rendering %q: %v", src, first, err)
		}
		if second := re.String(); second != first {
			t.Fatalf("rendering not a fixpoint: %q -> %q", first, second)
		}
	})
}
