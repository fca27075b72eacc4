package query

import (
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/relation"
	"repro/internal/rewrite"
)

// testEngine builds a small word database with unit edits and a weighted
// rule set registered.
func testEngine(t *testing.T, opts ...Option) *Engine {
	t.Helper()
	cat := relation.NewCatalog()
	words := relation.New("words")
	for _, w := range []struct {
		s    string
		lang string
	}{
		{"color", "en"}, {"colour", "uk"}, {"colon", "en"}, {"cool", "en"},
		{"dolor", "la"}, {"velour", "fr"}, {"clamor", "en"},
	} {
		words.Insert(w.s, map[string]string{"lang": w.lang})
	}
	cat.Add(words)

	e := NewEngine(cat, opts...)
	if err := e.RegisterRuleSet(rewrite.UnitEdits("abcdefghijklmnopqrstuvwxyz")); err != nil {
		t.Fatal(err)
	}
	weighted := rewrite.MustRuleSet("cheap_vowels", []rewrite.Rule{
		rewrite.Subst('o', 'u', 0.1), rewrite.Subst('u', 'o', 0.1),
		rewrite.Insert('u', 0.2), rewrite.Delete('u', 0.2),
	})
	if err := e.RegisterRuleSet(weighted); err != nil {
		t.Fatal(err)
	}
	swap := rewrite.MustRuleSet("swaps", []rewrite.Rule{
		rewrite.Swap('o', 'l', 1), rewrite.Swap('l', 'o', 1),
	})
	if err := e.RegisterRuleSet(swap); err != nil {
		t.Fatal(err)
	}
	// all-one computes the same distances as unit edits on these words
	// but is asymmetric (extra ε->0 rule), so NEAREST runs the weighted
	// kernel without the unit-cost lower bounds.
	allOne := append([]rewrite.Rule{rewrite.Insert('0', 1)},
		rewrite.UnitEdits("abcdefghijklmnopqrstuvwxyz").Rules()...)
	if err := e.RegisterRuleSet(rewrite.MustRuleSet("all-one", allOne)); err != nil {
		t.Fatal(err)
	}
	return e
}

func seqsOf(res *Result) []string {
	var out []string
	for _, row := range res.Rows {
		out = append(out, row[1])
	}
	sort.Strings(out)
	return out
}

func TestRangeQueryUsesIndex(t *testing.T) {
	e := testEngine(t)
	res, err := e.Execute(`SELECT * FROM words WHERE seq SIMILAR TO "color" WITHIN 1 USING unit-edits`)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if !strings.Contains(res.Plan(), "IndexRange") {
		t.Errorf("plan = %q, want IndexRange", res.Plan())
	}
	got := seqsOf(res)
	want := []string{"color", "colon", "colour", "dolor"}
	sort.Strings(want)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("answers = %v, want %v", got, want)
	}
}

func TestRangeQueryMatchesScan(t *testing.T) {
	e := testEngine(t)
	idx, err := e.Execute(`SELECT * FROM words WHERE seq SIMILAR TO "color" WITHIN 2 USING unit-edits`)
	if err != nil {
		t.Fatal(err)
	}
	// Force a scan by OR-ing with a false predicate (not a top-level
	// conjunct anymore).
	scan, err := e.Execute(`SELECT * FROM words WHERE seq SIMILAR TO "color" WITHIN 2 USING unit-edits OR seq = "zzz"`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(scan.Plan(), "Scan") {
		t.Errorf("plan = %q, want Scan", scan.Plan())
	}
	a, b := seqsOf(idx), seqsOf(scan)
	if strings.Join(a, ",") != strings.Join(b, ",") {
		t.Errorf("index answers %v != scan answers %v", a, b)
	}
}

func TestWeightedRangeQuery(t *testing.T) {
	e := testEngine(t)
	res, err := e.Execute(`SELECT * FROM words WHERE seq SIMILAR TO "color" WITHIN 0.3 USING cheap_vowels`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Plan(), "Scan") {
		t.Errorf("plan = %q, want Scan for weighted rule set", res.Plan())
	}
	got := seqsOf(res)
	// colour -> color: delete u (0.2). color itself: 0.
	want := []string{"color", "colour"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("answers = %v, want %v", got, want)
	}
}

func TestGeneralRuleSetQuery(t *testing.T) {
	e := testEngine(t)
	// swaps can turn "cool" into "colo"? c-o-o-l: swap(o,l) at pos 2
	// gives "colo"... target "colo" not in the relation; use an
	// attainable pair: "dolor" with swaps of o,l: "dloor"? Instead
	// verify that identical strings match at radius 0.
	res, err := e.Execute(`SELECT * FROM words WHERE seq SIMILAR TO "cool" WITHIN 0 USING swaps`)
	if err != nil {
		t.Fatal(err)
	}
	got := seqsOf(res)
	if len(got) != 1 || got[0] != "cool" {
		t.Errorf("answers = %v, want [cool]", got)
	}
}

func TestAttributeFilter(t *testing.T) {
	e := testEngine(t)
	res, err := e.Execute(`SELECT * FROM words WHERE seq SIMILAR TO "color" WITHIN 2 USING unit-edits AND lang = "en"`)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row[1] == "colour" || row[1] == "velour" {
			t.Errorf("non-en word %q passed the filter", row[1])
		}
	}
	if len(res.Rows) == 0 {
		t.Error("no rows")
	}
	if !strings.Contains(res.Plan(), "Filter") {
		t.Errorf("plan %q lacks Filter", res.Plan())
	}
}

func TestProjection(t *testing.T) {
	e := testEngine(t)
	res, err := e.Execute(`SELECT seq, lang, dist FROM words WHERE seq SIMILAR TO "color" WITHIN 1 USING unit-edits`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) != 3 || res.Columns[0] != "seq" || res.Columns[2] != "dist" {
		t.Errorf("Columns = %v", res.Columns)
	}
	for _, row := range res.Rows {
		if row[0] == "color" && row[2] != "0" {
			t.Errorf("dist(color) = %q", row[2])
		}
		if row[0] == "colour" && row[2] != "1" {
			t.Errorf("dist(colour) = %q", row[2])
		}
	}
}

func TestPatternQuery(t *testing.T) {
	e := testEngine(t)
	// Words within 1 edit of the language col(o|u)+r.
	res, err := e.Execute(`SELECT * FROM words WHERE seq SIMILAR TO PATTERN "col(o|u)+r" WITHIN 1 USING unit-edits`)
	if err != nil {
		t.Fatal(err)
	}
	got := seqsOf(res)
	// color(0), colour(0), colon(1: n->r), dolor(1: d->c), clamor? c-l-a-m-o-r vs colour... >1.
	want := []string{"colon", "color", "colour", "dolor"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("answers = %v, want %v", got, want)
	}
}

func TestPatternRequiresEditLike(t *testing.T) {
	e := testEngine(t)
	_, err := e.Execute(`SELECT * FROM words WHERE seq SIMILAR TO PATTERN "a*" WITHIN 1 USING swaps`)
	if err == nil {
		t.Fatal("pattern query with non-edit-like rule set succeeded")
	}
}

func TestNearestQuery(t *testing.T) {
	e := testEngine(t)
	res, err := e.Execute(`SELECT * FROM words WHERE seq NEAREST 3 TO "color" USING unit-edits`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Plan(), "NearestK") {
		t.Errorf("plan = %q", res.Plan())
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
	if res.Rows[0][1] != "color" || res.Rows[0][2] != "0" {
		t.Errorf("nearest[0] = %v", res.Rows[0])
	}
	// Next nearest are colon/colour/dolor at distance 1.
	if res.Rows[1][2] != "1" || res.Rows[2][2] != "1" {
		t.Errorf("nearest dists = %v %v", res.Rows[1], res.Rows[2])
	}
}

func TestNearestScanWeighted(t *testing.T) {
	e := testEngine(t)
	res, err := e.Execute(`SELECT seq, dist FROM words WHERE seq NEAREST 2 TO "color" USING cheap_vowels`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Plan(), "NearestK(words, k=2, ruleset=cheap_vowels)  (kernel=targetdp)") {
		t.Errorf("plan = %q", res.Plan())
	}
	if len(res.Rows) != 2 || res.Rows[0][0] != "color" || res.Rows[1][0] != "colour" {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[1][1] != "0.2" {
		t.Errorf("dist(colour) = %q, want 0.2", res.Rows[1][1])
	}
}

func TestJoinIndexVsNested(t *testing.T) {
	e := testEngine(t)
	idx, err := e.Execute(`SELECT a.seq, b.seq FROM words a, words b WHERE a.seq SIMILAR TO b.seq WITHIN 1 USING unit-edits AND a.id != b.id`)
	if err != nil {
		t.Fatal(err)
	}
	// Unit-cost joins over seq probe the inner length view; weighted
	// rule sets scan the inner side, verifying every pair.
	if !strings.Contains(idx.Plan(), "IndexJoin(probe a.seq into lengthview(b)") {
		t.Errorf("plan = %q", idx.Plan())
	}
	nested, err := e.Execute(`SELECT a.seq, b.seq FROM words a, words b WHERE a.seq SIMILAR TO b.seq WITHIN 1 USING cheap_vowels AND a.id != b.id`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(nested.Plan(), "NestedLoopJoin(b, on") {
		t.Errorf("plan = %q", nested.Plan())
	}
	// Index join at radius 1 with unit edits: color~colour? distance 1
	// yes; color~colon 1; color~dolor 1; colour~velour 2 no.
	found := false
	for _, row := range idx.Rows {
		if row[0] == "color" && row[1] == "colour" {
			found = true
		}
		if row[0] == row[1] {
			t.Errorf("self pair %v despite id != id", row)
		}
	}
	if !found {
		t.Error("color~colour missing from join")
	}
	// Join results are symmetric: each unordered pair appears twice.
	pairs := map[string]int{}
	for _, row := range idx.Rows {
		pairs[row[0]+"|"+row[1]]++
	}
	for key, n := range pairs {
		parts := strings.SplitN(key, "|", 2)
		if pairs[parts[1]+"|"+parts[0]] != n {
			t.Errorf("pair %s not mirrored", key)
		}
	}
}

func TestExplain(t *testing.T) {
	e := testEngine(t)
	res, err := e.Execute(`EXPLAIN SELECT * FROM words WHERE seq SIMILAR TO "color" WITHIN 1 USING unit-edits`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || !strings.Contains(res.Rows[0][0], "IndexRange") {
		t.Errorf("EXPLAIN = %v", res.Rows)
	}
}

func TestLimit(t *testing.T) {
	e := testEngine(t)
	res, err := e.Execute(`SELECT * FROM words LIMIT 2`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Errorf("rows = %d", len(res.Rows))
	}
}

func TestSelectAllNoWhere(t *testing.T) {
	e := testEngine(t)
	res, err := e.Execute(`SELECT * FROM words`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 7 {
		t.Errorf("rows = %d, want 7", len(res.Rows))
	}
}

func TestErrors(t *testing.T) {
	e := testEngine(t)
	for _, src := range []string{
		`SELECT * FROM nosuch`,
		`SELECT * FROM words WHERE seq SIMILAR TO "x" WITHIN 1 USING nosuchrules`,
		`SELECT * FROM words WHERE seq SIMILAR TO PATTERN "(((" WITHIN 1 USING unit-edits`,
		`SELECT * FROM words a, words a WHERE a.seq SIMILAR TO a.seq WITHIN 1 USING unit-edits`,
		`SELECT * FROM words a, words b WHERE a.lang = b.lang`,
		`SELECT * FROM words WHERE seq NEAREST 3 TO "x" USING swaps`,
		`SELECT a.seq FROM words WHERE a.seq = "x"`,
	} {
		if _, err := e.Execute(src); err == nil {
			t.Errorf("Execute(%q) succeeded, want error", src)
		}
	}
}

func TestRuleSetNames(t *testing.T) {
	e := testEngine(t)
	names := e.RuleSets()
	if len(names) != 4 {
		t.Fatalf("RuleSets = %v", names)
	}
	if names[0] != "all-one" || names[1] != "cheap_vowels" {
		t.Errorf("sorted names = %v", names)
	}
}

func TestDistColumnUnavailable(t *testing.T) {
	e := testEngine(t)
	if _, err := e.Execute(`SELECT dist FROM words`); err == nil {
		t.Error("dist without similarity predicate succeeded")
	}
}

func TestUnknownAttributeIsEmpty(t *testing.T) {
	// Relations are schemaless beyond id/seq: unknown attributes project
	// as the empty string rather than failing.
	e := testEngine(t)
	res, err := e.Execute(`SELECT nosuchcol FROM words LIMIT 1`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != "" {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestNearestUnitMatchesWeightedKernel(t *testing.T) {
	// The unit path (Myers behind the length and signature bounds) must
	// return the distance multiset of the weighted path (TargetDP, every
	// row verified) on a rule set whose costs happen to be unit.
	e := testEngine(t)
	unitRes, err := e.Execute(`SELECT dist FROM words WHERE seq NEAREST 5 TO "color" USING unit-edits`)
	if err != nil {
		t.Fatal(err)
	}
	weightedRes, err := e.Execute(`SELECT dist FROM words WHERE seq NEAREST 5 TO "color" USING all-one`)
	if err != nil {
		t.Fatal(err)
	}
	if len(unitRes.Rows) != len(weightedRes.Rows) {
		t.Fatalf("unit %d rows, weighted %d rows", len(unitRes.Rows), len(weightedRes.Rows))
	}
	for i := range unitRes.Rows {
		if unitRes.Rows[i][0] != weightedRes.Rows[i][0] {
			t.Errorf("dist[%d]: unit %q weighted %q", i, unitRes.Rows[i][0], weightedRes.Rows[i][0])
		}
	}
}

func TestNotPredicate(t *testing.T) {
	e := testEngine(t)
	res, err := e.Execute(`SELECT * FROM words WHERE NOT lang = "en"`)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row[1] == "color" || row[1] == "colon" {
			t.Errorf("en word %q passed NOT filter", row[1])
		}
	}
	if len(res.Rows) != 3 {
		t.Errorf("rows = %d, want 3", len(res.Rows))
	}
}

// TestRuleSetNameWithDash exercises registration of the default
// "unit-edits" name, which is not an identifier in the query grammar —
// engine must accept it when registered under an identifier-safe name.
func TestRuleSetNameLookup(t *testing.T) {
	cat := relation.NewCatalog()
	cat.Add(relation.New("r"))
	e := NewEngine(cat)
	rs := rewrite.MustRuleSet("edits", rewrite.UnitEdits("ab").Rules())
	if err := e.RegisterRuleSet(rs); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Execute(`SELECT * FROM r WHERE seq SIMILAR TO "a" WITHIN 1 USING edits`); err != nil {
		t.Fatalf("identifier rule-set name: %v", err)
	}
}

// TestFormatDistMatchesFormatFloat: formatDist and appendDist take
// strconv's integer path for integral distances below 2^53 and must stay
// byte-identical to the formula they replace — FormatFloat(d, 'f', 0, 64)
// for integral d, FormatFloat(d, 'g', -1, 64) otherwise — for every
// float64: signed zeros, the integers around the edges of small-number
// tables (63/64, 99/100) and around 2^53, infinities, NaN and random
// values of every magnitude.
func TestFormatDistMatchesFormatFloat(t *testing.T) {
	old := func(d float64) string {
		if d == math.Trunc(d) {
			return strconv.FormatFloat(d, 'f', 0, 64)
		}
		return strconv.FormatFloat(d, 'g', -1, 64)
	}
	cases := []float64{0, math.Copysign(0, -1), 0.5, -0.5, 1e-300, math.SmallestNonzeroFloat64,
		math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, -math.MaxFloat64, 1e300}
	for _, base := range []float64{0, 64, 100, 1 << 53} {
		for i := -3.0; i <= 3; i++ {
			cases = append(cases, base+i, -(base + i))
		}
	}
	for _, base := range []float64{1 << 53, 1 << 54, 1 << 63} {
		cases = append(cases, math.Nextafter(base, 0), base, math.Nextafter(base, math.Inf(1)))
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		cases = append(cases,
			math.Float64frombits(rng.Uint64()), // any bit pattern
			math.Trunc(rng.NormFloat64()*1e6),  // integers
			rng.Float64()*math.Pow(10, float64(rng.Intn(40)-20)))
	}
	for _, d := range cases {
		want := old(d)
		if got := formatDist(d); got != want {
			t.Fatalf("formatDist(%v) = %q, want %q", d, got, want)
		}
		if got := string(appendDist([]byte("x"), d)); got != "x"+want {
			t.Fatalf("appendDist(%v) = %q, want %q", d, got, "x"+want)
		}
	}
}
