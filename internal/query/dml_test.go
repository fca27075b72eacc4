package query

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
)

func count(t *testing.T, res *Result) int {
	t.Helper()
	if len(res.Columns) != 1 || res.Columns[0] != "count" || len(res.Rows) != 1 {
		t.Fatalf("mutation result shape = %v %v", res.Columns, res.Rows)
	}
	n, err := strconv.Atoi(res.Rows[0][0])
	if err != nil {
		t.Fatalf("count row %q: %v", res.Rows[0][0], err)
	}
	return n
}

func TestParseStatementDML(t *testing.T) {
	cases := []string{
		`INSERT INTO words VALUES ("abc")`,
		`INSERT INTO words (seq, lang) VALUES ("abc", "en"), ("def", "de")`,
		`INSERT INTO words VALUES (?)`,
		`DELETE FROM words`,
		`DELETE FROM words WHERE seq SIMILAR TO "abc" WITHIN 1 USING unit-edits`,
		`UPDATE words SET lang = "en" WHERE id = "3"`,
		`UPDATE words SET seq = :s, lang = :l WHERE seq = :old`,
		`EXPLAIN DELETE FROM words WHERE seq SIMILAR TO "abc" WITHIN 1 USING unit-edits`,
	}
	for _, src := range cases {
		stmt, err := ParseStatement(src)
		if err != nil {
			t.Fatalf("ParseStatement(%q): %v", src, err)
		}
		m, ok := stmt.(*Mutation)
		if !ok {
			t.Fatalf("ParseStatement(%q) = %T, want *Mutation", src, stmt)
		}
		// Round trip: the rendering must parse back to the same text.
		re, err := ParseStatement(m.String())
		if err != nil {
			t.Fatalf("re-parse of %q: %v", m.String(), err)
		}
		if re.String() != m.String() {
			t.Fatalf("round trip drifted: %q -> %q", m.String(), re.String())
		}
	}
}

func TestParseDMLErrors(t *testing.T) {
	for _, src := range []string{
		`INSERT INTO words (lang) VALUES ("en")`,         // no seq column
		`INSERT INTO words (seq, seq) VALUES ("a", "b")`, // dup column
		`INSERT INTO words (seq, id) VALUES ("a", "1")`,  // id not writable
		`INSERT INTO words (seq, lang) VALUES ("a")`,     // arity
		`INSERT INTO words VALUES ("a") trailing`,        // trailing
		`UPDATE words SET id = "9"`,                      // id not assignable
		`UPDATE words SET lang = "x", lang = "y"`,        // dup SET
		`DELETE words`,                   // missing FROM
		`INSERT INTO words VALUES (seq)`, // field ref as value
		`UPDATE words SET seq = ? WHERE seq SIMILAR TO :x WITHIN 1 USING e`, // mixed params
	} {
		if _, err := ParseStatement(src); err == nil {
			t.Errorf("ParseStatement(%q) succeeded, want error", src)
		}
	}
}

func TestParseRejectsDML(t *testing.T) {
	if _, err := Parse(`INSERT INTO words VALUES ("x")`); err == nil {
		t.Fatal("Parse accepted DML")
	}
}

func TestInsertExecute(t *testing.T) {
	e := testEngine(t)
	res, err := e.Execute(`INSERT INTO words (seq, lang) VALUES ("colores", "es"), ("couleur", "fr")`)
	if err != nil {
		t.Fatal(err)
	}
	if count(t, res) != 2 {
		t.Fatalf("count = %d, want 2", count(t, res))
	}
	check, err := e.Execute(`SELECT * FROM words WHERE lang = "es"`)
	if err != nil {
		t.Fatal(err)
	}
	if got := seqsOf(check); len(got) != 1 || got[0] != "colores" {
		t.Fatalf("inserted rows = %v", got)
	}
}

func TestDeleteWithSimilarityUsesIndex(t *testing.T) {
	e := testEngine(t)
	// EXPLAIN first: the read phase must go through the metric index.
	res, err := e.Execute(`EXPLAIN DELETE FROM words WHERE seq SIMILAR TO "color" WITHIN 1 USING unit-edits`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Plan(), "Mutate(delete from words)") || !strings.Contains(res.Plan(), "IndexRange") {
		t.Fatalf("explain plan = %q, want Mutate over IndexRange", res.Plan())
	}

	res, err = e.Execute(`DELETE FROM words WHERE seq SIMILAR TO "color" WITHIN 1 USING unit-edits`)
	if err != nil {
		t.Fatal(err)
	}
	if count(t, res) != 4 { // color, colon, colour, dolor
		t.Fatalf("deleted %d rows, want 4", count(t, res))
	}
	left, err := e.Execute(`SELECT * FROM words`)
	if err != nil {
		t.Fatal(err)
	}
	if got := seqsOf(left); strings.Join(got, ",") != "clamor,cool,velour" {
		t.Fatalf("remaining rows = %v", got)
	}
}

func TestUpdateExecute(t *testing.T) {
	e := testEngine(t)
	res, err := e.Execute(`UPDATE words SET lang = "latin" WHERE seq = "dolor"`)
	if err != nil {
		t.Fatal(err)
	}
	if count(t, res) != 1 {
		t.Fatalf("updated %d rows, want 1", count(t, res))
	}
	check, err := e.Execute(`SELECT seq, lang FROM words WHERE lang = "latin"`)
	if err != nil {
		t.Fatal(err)
	}
	if len(check.Rows) != 1 || check.Rows[0][0] != "dolor" {
		t.Fatalf("updated row = %v", check.Rows)
	}
	// Attributes not mentioned in SET survive; seq can be reassigned.
	if _, err := e.Execute(`UPDATE words SET seq = "dolores" WHERE lang = "latin"`); err != nil {
		t.Fatal(err)
	}
	check, err = e.Execute(`SELECT seq, lang FROM words WHERE lang = "latin"`)
	if err != nil {
		t.Fatal(err)
	}
	if len(check.Rows) != 1 || check.Rows[0][0] != "dolores" {
		t.Fatalf("after seq update = %v", check.Rows)
	}
}

func TestDeleteAllWithoutWhere(t *testing.T) {
	e := testEngine(t)
	res, err := e.Execute(`DELETE FROM words`)
	if err != nil {
		t.Fatal(err)
	}
	if count(t, res) != 7 {
		t.Fatalf("deleted %d, want 7", count(t, res))
	}
	left, _ := e.Execute(`SELECT * FROM words`)
	if len(left.Rows) != 0 {
		t.Fatalf("rows left: %v", left.Rows)
	}
}

func TestMutationErrors(t *testing.T) {
	e := testEngine(t)
	for _, src := range []string{
		`INSERT INTO nosuch VALUES ("x")`,
		`DELETE FROM nosuch`,
		`INSERT INTO words VALUES (?)`, // unbound parameter
		`DELETE FROM words WHERE seq SIMILAR TO "x" WITHIN 1 USING nosuchrules`,
	} {
		if _, err := e.Execute(src); err == nil {
			t.Errorf("Execute(%q) succeeded, want error", src)
		}
	}
}

func TestPreparedDML(t *testing.T) {
	e := testEngine(t)
	ins, err := e.Prepare(`INSERT INTO words (seq, lang) VALUES (?, ?)`)
	if err != nil {
		t.Fatal(err)
	}
	if ins.NumParams() != 2 {
		t.Fatalf("NumParams = %d", ins.NumParams())
	}
	for i := 0; i < 3; i++ {
		res, err := ins.Execute(fmt.Sprintf("word%c", 'a'+i), "xx")
		if err != nil {
			t.Fatal(err)
		}
		if count(t, res) != 1 {
			t.Fatalf("insert %d applied %d", i, count(t, res))
		}
	}
	del, err := e.Prepare(`DELETE FROM words WHERE seq SIMILAR TO :target WITHIN :r USING unit-edits`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := del.ExecuteNamed(map[string]any{"target": "worda", "r": 1})
	if err != nil {
		t.Fatal(err)
	}
	if count(t, res) != 3 { // worda, wordb, wordc
		t.Fatalf("prepared delete removed %d, want 3", count(t, res))
	}
}

// TestMutationInvalidatesPlanCache: a committed mutation leaves the
// statement cached — the next execution skips the parser — but that
// execution plans and reads the new state: its EXPLAIN and rows equal a
// fresh engine's and include the inserted row.
func TestMutationInvalidatesPlanCache(t *testing.T) {
	e := testEngine(t)
	const q = `SELECT * FROM words WHERE seq SIMILAR TO "color" WITHIN 1 USING unit-edits`
	if _, err := e.Execute(q); err != nil {
		t.Fatal(err)
	}
	res, err := e.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.PlanCacheHit {
		t.Fatal("second execution missed the plan cache")
	}

	if _, err := e.Execute(`INSERT INTO words (seq, lang) VALUES ("colord", "xx")`); err != nil {
		t.Fatal(err)
	}
	res, err = e.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.PlanCacheHit {
		t.Fatal("a committed mutation evicted the statement")
	}
	found := false
	for _, s := range seqsOf(res) {
		if s == "colord" {
			found = true
		}
	}
	if !found {
		t.Fatal("the execution after the commit missed the inserted row")
	}
	checkLikeFresh(t, e, q)
}

// TestMutationForcesPreparedRedecision: a PreparedQuery executed after
// a committed DELETE plans against the new state — its EXPLAIN and rows
// equal a fresh engine's, before the mutation and after it.
func TestMutationForcesPreparedRedecision(t *testing.T) {
	e := testEngine(t)
	const stmt = `SELECT * FROM words WHERE seq SIMILAR TO ? WITHIN ? USING unit-edits`
	hasCool := func(res *Result) bool {
		for _, s := range seqsOf(res) {
			if s == "cool" {
				return true
			}
		}
		return false
	}
	if !hasCool(checkLikeFresh(t, e, stmt, "color", 2)) {
		t.Fatal("cool is 2 edits from color")
	}
	checkLikeFresh(t, e, stmt, "colour", 1)

	if _, err := e.Execute(`DELETE FROM words WHERE seq = "cool"`); err != nil {
		t.Fatal(err)
	}
	if hasCool(checkLikeFresh(t, e, stmt, "color", 2)) {
		t.Fatal("the execution after the DELETE still returns the deleted row")
	}
}
