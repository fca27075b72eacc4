package query

import (
	"strings"
	"testing"
)

func TestParseRange(t *testing.T) {
	q, err := Parse(`SELECT * FROM words WHERE seq SIMILAR TO "colour" WITHIN 2 USING edits`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(q.From) != 1 || q.From[0].Name != "words" || q.From[0].Alias != "words" {
		t.Errorf("From = %+v", q.From)
	}
	sim, ok := q.Where.(SimExpr)
	if !ok {
		t.Fatalf("Where = %T", q.Where)
	}
	if sim.Field.Name != "seq" || !sim.Target.IsLit || sim.Target.Lit != "colour" ||
		sim.Radius != 2 || sim.RuleSet != "edits" || sim.Pattern {
		t.Errorf("sim = %+v", sim)
	}
}

func TestParsePattern(t *testing.T) {
	q, err := Parse(`SELECT * FROM words WHERE seq SIMILAR TO PATTERN "a(b|c)*d" WITHIN 1.5 USING w`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	sim := q.Where.(SimExpr)
	if !sim.Pattern || sim.Target.Lit != "a(b|c)*d" || sim.Radius != 1.5 {
		t.Errorf("sim = %+v", sim)
	}
}

func TestParseJoin(t *testing.T) {
	q, err := Parse(`SELECT a.id, b.id FROM stocks a, stocks b WHERE a.seq SIMILAR TO b.seq WITHIN 3 USING edits AND a.id != b.id`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(q.From) != 2 || q.From[0].Alias != "a" || q.From[1].Alias != "b" {
		t.Errorf("From = %+v", q.From)
	}
	and, ok := q.Where.(AndExpr)
	if !ok {
		t.Fatalf("Where = %T", q.Where)
	}
	sim := and.L.(SimExpr)
	if sim.Field.Table != "a" || sim.Target.Field.Table != "b" {
		t.Errorf("sim = %+v", sim)
	}
	cmp := and.R.(CmpExpr)
	if !cmp.Neq {
		t.Errorf("cmp = %+v", cmp)
	}
	if len(q.Select) != 2 || q.Select[0].String() != "a.id" {
		t.Errorf("Select = %+v", q.Select)
	}
}

// TestParseOnDistJoin pins the v1 join grammar: `FROM a, b ON
// dist(a.x, b.y) <= k USING m` desugars to the same SimExpr as the
// SIMILAR TO spelling, ANDed in front of any WHERE clause.
func TestParseOnDistJoin(t *testing.T) {
	q, err := Parse(`SELECT a.seq, b.seq FROM words a, words b ON dist(a.seq, b.seq) <= 2 USING edits WHERE a.tag = "1"`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	and, ok := q.Where.(AndExpr)
	if !ok {
		t.Fatalf("Where = %T, want AndExpr(ON, WHERE)", q.Where)
	}
	sim, ok := and.L.(SimExpr)
	if !ok {
		t.Fatalf("ON condition = %T, want SimExpr", and.L)
	}
	if sim.Field.Table != "a" || sim.Field.Name != "seq" ||
		sim.Target.Field.Table != "b" || sim.Target.Field.Name != "seq" ||
		sim.Radius != 2 || sim.RuleSet != "edits" {
		t.Errorf("sim = %+v", sim)
	}
	if cmp, ok := and.R.(CmpExpr); !ok || cmp.L.Field.Name != "tag" {
		t.Errorf("WHERE residual = %+v", and.R)
	}

	// Without a WHERE clause the ON condition is the whole predicate,
	// and the two spellings parse to the same query.
	onQ, err := Parse(`SELECT a.seq FROM s a, s b ON dist(a.seq, b.seq) <= 1.5 USING edits`)
	if err != nil {
		t.Fatalf("Parse ON-only: %v", err)
	}
	simQ, err := Parse(`SELECT a.seq FROM s a, s b WHERE a.seq SIMILAR TO b.seq WITHIN 1.5 USING edits`)
	if err != nil {
		t.Fatalf("Parse SIMILAR TO: %v", err)
	}
	if onQ.String() != simQ.String() {
		t.Errorf("spellings diverge:\n  %s\n  %s", onQ, simQ)
	}

	// dist() also accepts literal targets and bind parameters.
	q, err = Parse(`SELECT * FROM words WHERE dist(seq, "colour") <= 2 USING edits`)
	if err != nil {
		t.Fatalf("Parse literal dist: %v", err)
	}
	sim = q.Where.(SimExpr)
	if !sim.Target.IsLit || sim.Target.Lit != "colour" || sim.Radius != 2 {
		t.Errorf("literal sim = %+v", sim)
	}
	q, err = Parse(`SELECT * FROM items a, items b ON dist(a.vec, b.vec) <= ? USING l2`)
	if err != nil {
		t.Fatalf("Parse param radius: %v", err)
	}
	sim = q.Where.(SimExpr)
	if sim.RadiusParam == nil || sim.RuleSet != "l2" {
		t.Errorf("param sim = %+v", sim)
	}
}

func TestParseOnDistErrors(t *testing.T) {
	for _, src := range []string{
		`SELECT * FROM a, b ON dist(a.seq) <= 1 USING e`,
		`SELECT * FROM a, b ON dist("x", b.seq) <= 1 USING e`,
		`SELECT * FROM a, b ON dist(a.seq, b.seq) = 1 USING e`,
		`SELECT * FROM a, b ON dist(a.seq, b.seq) <= 1`,
		`SELECT * FROM a, b ON dist(a.seq, b.seq <= 1 USING e`,
		`SELECT * FROM a, b ON dist(a.seq, b.seq) <= "x" USING e`,
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestParseNearest(t *testing.T) {
	q, err := Parse(`SELECT * FROM words WHERE seq NEAREST 5 TO "color" USING edits LIMIT 3`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	ne := q.Where.(NearestExpr)
	if ne.K != 5 || ne.Target.Lit != "color" || ne.RuleSet != "edits" {
		t.Errorf("nearest = %+v", ne)
	}
	if q.Limit != 3 {
		t.Errorf("Limit = %d", q.Limit)
	}
}

func TestParseNWayFrom(t *testing.T) {
	q, err := Parse(`SELECT * FROM a, b x, c WHERE a.seq SIMILAR TO x.seq WITHIN 1 USING e AND x.seq SIMILAR TO c.seq WITHIN 1 USING e`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(q.From) != 3 || q.From[1].Alias != "x" || q.From[2].Alias != "c" {
		t.Errorf("From = %+v", q.From)
	}
}

func TestParseOrderBy(t *testing.T) {
	q, err := Parse(`SELECT * FROM r WHERE seq SIMILAR TO "x" WITHIN 2 USING e ORDER BY dist LIMIT 5`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if q.Order != OrderAsc || q.Limit != 5 {
		t.Errorf("Order = %v, Limit = %d", q.Order, q.Limit)
	}
	q, err = Parse(`SELECT * FROM r WHERE seq SIMILAR TO "x" WITHIN 2 USING e ORDER BY dist DESC`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if q.Order != OrderDesc {
		t.Errorf("Order = %v, want desc", q.Order)
	}
	q, err = Parse(`SELECT * FROM r WHERE seq SIMILAR TO "x" WITHIN 2 USING e ORDER BY dist ASC`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if q.Order != OrderAsc {
		t.Errorf("Order = %v, want asc", q.Order)
	}
}

func TestParseBooleans(t *testing.T) {
	q, err := Parse(`SELECT * FROM r WHERE NOT (a = "1" OR b != "2") AND c = "3"`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	and, ok := q.Where.(AndExpr)
	if !ok {
		t.Fatalf("Where = %T", q.Where)
	}
	if _, ok := and.L.(NotExpr); !ok {
		t.Errorf("L = %T", and.L)
	}
}

func TestParseExplain(t *testing.T) {
	q, err := Parse(`EXPLAIN SELECT * FROM r`)
	if err != nil {
		t.Fatal(err)
	}
	if !q.Explain {
		t.Error("Explain flag not set")
	}
}

func TestParseCaseInsensitiveKeywords(t *testing.T) {
	if _, err := Parse(`select * from r where seq similar to "x" within 1 using e`); err != nil {
		t.Fatalf("lowercase keywords: %v", err)
	}
}

func TestParseSemicolon(t *testing.T) {
	if _, err := Parse(`SELECT * FROM r;`); err != nil {
		t.Fatalf("trailing semicolon: %v", err)
	}
}

func TestParseStringEscapes(t *testing.T) {
	q, err := Parse(`SELECT * FROM r WHERE seq = "a\"b"`)
	if err != nil {
		t.Fatal(err)
	}
	cmp := q.Where.(CmpExpr)
	if cmp.R.Lit != `a"b` {
		t.Errorf("Lit = %q", cmp.R.Lit)
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		``,
		`SELECT`,
		`SELECT * FROM`,
		`SELECT * FROM r WHERE`,
		`SELECT * FROM r WHERE seq SIMILAR "x"`,
		`SELECT * FROM r WHERE seq SIMILAR TO "x" WITHIN`,
		`SELECT * FROM r WHERE seq SIMILAR TO "x" WITHIN 1`,
		`SELECT * FROM r WHERE seq SIMILAR TO "x" WITHIN abc USING e`,
		`SELECT * FROM r WHERE "lit" SIMILAR TO "x" WITHIN 1 USING e`,
		`SELECT * FROM r WHERE seq NEAREST 0 TO "x" USING e`,
		`SELECT * FROM r WHERE seq = `,
		`SELECT * FROM r WHERE (seq = "x"`,
		`SELECT * FROM r trailing garbage !`,
		`SELECT * FROM r WHERE seq SIMILAR TO PATTERN x WITHIN 1 USING e`,
		`SELECT * FROM r LIMIT x`,
		`SELECT * FROM r LIMIT 0`, // read as "no limit" downstream: used to return every row
		`SELECT * FROM r ORDER BY seq`,
		`SELECT * FROM r ORDER dist`,
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestQueryStringRoundTrip(t *testing.T) {
	for _, src := range []string{
		`SELECT * FROM words WHERE seq SIMILAR TO "colour" WITHIN 2 USING edits`,
		`SELECT a.id, b.id FROM s a, s b WHERE a.seq SIMILAR TO b.seq WITHIN 3 USING edits AND a.id != b.id`,
		`SELECT * FROM words WHERE seq NEAREST 5 TO "color" USING edits`,
		`EXPLAIN SELECT * FROM r WHERE seq SIMILAR TO PATTERN "a(b|c)*" WITHIN 1 USING e`,
		`SELECT * FROM words WHERE seq SIMILAR TO "color" WITHIN 2 USING edits ORDER BY dist DESC LIMIT 4`,
		`SELECT * FROM s a, s b, s c WHERE a.seq SIMILAR TO b.seq WITHIN 1 USING e AND b.seq SIMILAR TO c.seq WITHIN 1 USING e`,
		`SELECT a.seq, b.seq FROM s a, s b ON dist(a.seq, b.seq) <= 2 USING edits WHERE a.tag = "1"`,
	} {
		q1, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		q2, err := Parse(q1.String())
		if err != nil {
			t.Fatalf("re-Parse(%q): %v", q1.String(), err)
		}
		if q1.String() != q2.String() {
			t.Errorf("round trip:\n  %s\n  %s", q1, q2)
		}
	}
}

func TestLexErrors(t *testing.T) {
	for _, src := range []string{`"unterminated`, `a ! b`, "\x01"} {
		if _, err := lex(src); err == nil {
			t.Errorf("lex(%q) succeeded, want error", src)
		}
	}
}

func TestLexTokens(t *testing.T) {
	toks, err := lex(`a.b, (x) = != 12.5 "s" *;`)
	if err != nil {
		t.Fatal(err)
	}
	kinds := []tokenKind{tokIdent, tokDot, tokIdent, tokComma, tokLParen, tokIdent, tokRParen,
		tokEq, tokNeq, tokNumber, tokString, tokStar, tokSemi, tokEOF}
	if len(toks) != len(kinds) {
		t.Fatalf("%d tokens, want %d", len(toks), len(kinds))
	}
	for i, k := range kinds {
		if toks[i].kind != k {
			t.Errorf("token %d = %v, want %v", i, toks[i].kind, k)
		}
	}
}

func TestKeywordAliasRejected(t *testing.T) {
	// "where" after a table name must be the keyword, not an alias.
	q, err := Parse(`SELECT * FROM r WHERE seq = "x"`)
	if err != nil {
		t.Fatal(err)
	}
	if q.From[0].Alias != "r" {
		t.Errorf("alias = %q", q.From[0].Alias)
	}
	if !strings.Contains(q.String(), "WHERE") {
		t.Errorf("String lost WHERE: %s", q)
	}
}
