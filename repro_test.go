package repro

import (
	"strings"
	"testing"
)

// The facade test exercises the whole public surface end to end: rules,
// distances, patterns, the query language and the time-series DB.

func TestFacadeEditDistance(t *testing.T) {
	calc, err := NewEditCalculator(UnitEdits("abcdefghijklmnopqrstuvwxyz"))
	if err != nil {
		t.Fatal(err)
	}
	if got := calc.Distance("kitten", "sitting"); got != 3 {
		t.Errorf("Distance = %g, want 3", got)
	}
	if got := Levenshtein("kitten", "sitting"); got != 3 {
		t.Errorf("Levenshtein = %d, want 3", got)
	}
	if _, ok := LevenshteinWithin("kitten", "sitting", 2); ok {
		t.Error("within 2 accepted distance 3")
	}
}

func TestFacadeGeneralEngine(t *testing.T) {
	rs := MustRuleSet("swap", []Rule{Swap('a', 'b', 1), Swap('b', 'a', 1)})
	eng, err := NewTransformEngine(rs)
	if err != nil {
		t.Fatal(err)
	}
	d, ok, err := eng.Distance("aabb", "bbaa", 10)
	if err != nil || !ok || d != 4 {
		t.Errorf("swap distance = %g,%v,%v", d, ok, err)
	}
}

func TestFacadePattern(t *testing.T) {
	p, err := CompilePattern("col(o|u)+r")
	if err != nil {
		t.Fatal(err)
	}
	if !p.Match("colour") || p.Match("colr") {
		t.Error("pattern match wrong")
	}
	calc, err := NewEditCalculator(UnitEdits("abcdefghijklmnopqrstuvwxyz"))
	if err != nil {
		t.Fatal(err)
	}
	if got := PatternDistance(calc, "color", p); got != 0 {
		t.Errorf("PatternDistance(color) = %g", got)
	}
	if got := PatternDistance(calc, "colon", p); got != 1 {
		t.Errorf("PatternDistance(colon) = %g", got)
	}
	if _, ok := PatternWithin(calc, "colon", p, 0.5); ok {
		t.Error("PatternWithin(0.5) accepted distance 1")
	}
	y, d, ok := NearestMember(calc, "colonn", p, 5)
	if !ok || !p.Match(y) || d != 2 {
		t.Errorf("NearestMember = %q,%g,%v", y, d, ok)
	}
	lit := LiteralPattern("a+b")
	if !lit.Match("a+b") || lit.Match("aab") {
		t.Error("LiteralPattern escaped wrong")
	}
}

func TestFacadeQueryLanguage(t *testing.T) {
	cat := NewCatalog()
	words := NewRelation("words")
	for _, w := range []string{"color", "colour", "colon", "dolor", "cool"} {
		words.Insert(w, nil)
	}
	cat.Add(words)
	eng := NewQueryEngine(cat)
	if err := eng.RegisterRuleSet(MustRuleSet("edits", UnitEdits("abcdefghijklmnopqrstuvwxyz").Rules())); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Execute(`SELECT seq, dist FROM words WHERE seq SIMILAR TO "color" WITHIN 1 USING edits`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Errorf("rows = %v", res.Rows)
	}
	if !strings.Contains(res.Plan(), "IndexRange") {
		t.Errorf("plan = %q", res.Plan())
	}
	q, err := ParseQuery(`SELECT * FROM words LIMIT 1`)
	if err != nil || q.Limit != 1 {
		t.Errorf("ParseQuery: %v %+v", err, q)
	}
}

// TestFacadeEngineOptions pins the functional-option construction
// surface and runs a distance join through a facade-built engine at
// block sizes 1 and 256.
func TestFacadeEngineOptions(t *testing.T) {
	cat := NewCatalog()
	words := NewRelation("words")
	for _, w := range []string{"color", "colour", "colon", "dolor", "cool"} {
		words.Insert(w, nil)
	}
	cat.Add(words)
	opts := []EngineOption{WithBatchSize(1), WithParallelism(2), WithParallelMinRows(8), WithPlanCacheSize(4), WithTracing(true)}
	eng := NewQueryEngine(cat, opts...)
	if err := eng.RegisterRuleSet(MustRuleSet("edits", UnitEdits("abcdefghijklmnopqrstuvwxyz").Rules())); err != nil {
		t.Fatal(err)
	}
	if eng.BatchSize() != 1 {
		t.Errorf("WithBatchSize(1): BatchSize() = %d", eng.BatchSize())
	}
	join := `SELECT a.seq, b.seq FROM words a, words b ON dist(a.seq, b.seq) <= 1 USING edits WHERE a.id != b.id`
	row, err := eng.Execute(join)
	if err != nil {
		t.Fatal(err)
	}
	if len(row.Rows) != 6 { // color↔{colour,colon,dolor}, both directions
		t.Errorf("block-1 join rows = %v", row.Rows)
	}
	if row.Trace == nil {
		t.Error("WithTracing(true): no span tree on the result")
	}
	batched := NewQueryEngine(cat, WithBatchSize(256))
	if err := batched.RegisterRuleSet(MustRuleSet("edits", UnitEdits("abcdefghijklmnopqrstuvwxyz").Rules())); err != nil {
		t.Fatal(err)
	}
	batch, err := batched.Execute(join)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Rows) != len(row.Rows) {
		t.Errorf("block-256 join rows = %v, block-1 = %v", batch.Rows, row.Rows)
	}
}

func TestFacadeFrameworkCore(t *testing.T) {
	dom, err := SequenceDomain(MustRuleSet("del", []Rule{Delete('a', 1), Delete('b', 1)}))
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluator(dom)
	if err != nil {
		t.Fatal(err)
	}
	d, ok, err := ev.Distance("ab", "ba", 5)
	if err != nil || !ok || d != 2 {
		t.Errorf("two-sided distance = %g,%v,%v", d, ok, err)
	}
}

func TestFacadeTimeSeries(t *testing.T) {
	db, err := NewTimeSeriesDB(2)
	if err != nil {
		t.Fatal(err)
	}
	base := make([]float64, 64)
	for i := range base {
		base[i] = 50 + 10*float64(i%8) + float64(i)/4
	}
	if _, err := db.Add(base); err != nil {
		t.Fatal(err)
	}
	shifted := make([]float64, 64)
	for i := range shifted {
		shifted[i] = base[i]*2 + 30 // same normal form
	}
	if _, err := db.Add(shifted); err != nil {
		t.Fatal(err)
	}
	if err := db.Build(); err != nil {
		t.Fatal(err)
	}
	ms, _, err := db.RangeIndex(base, nil, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 {
		t.Errorf("normal-form twins not both found: %v", ms)
	}
	mavg, err := MovingAvg(64, 8)
	if err != nil {
		t.Fatal(err)
	}
	sm, err := mavg.ApplySeries(base)
	if err != nil {
		t.Fatal(err)
	}
	tm, err := MovingAverage(base, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tm {
		if diff := sm[i] - tm[i]; diff > 1e-8 || diff < -1e-8 {
			t.Fatalf("moving average mismatch at %d", i)
		}
	}
	norm, mean, std, err := NormalForm(base)
	if err != nil {
		t.Fatal(err)
	}
	if mean == 0 || std == 0 || len(norm) != 64 {
		t.Error("NormalForm broken")
	}
	rev := ReverseT(64)
	ident := IdentityT(64)
	if rev.Name != "reverse" || ident.Name != "identity" {
		t.Error("transform names wrong")
	}
}
