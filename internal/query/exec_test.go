package query

import (
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/metric"
	"repro/internal/relation"
	"repro/internal/rewrite"
)

// bigEngine builds a catalog exercising the cost model's large-relation
// regime: "dict" (500 tuples over a 26-letter alphabet, BK-tree
// territory) and "dna" (240 tuples over a 4-letter alphabet, where the
// trie's branching bound wins).
func bigEngine(t testing.TB, opts ...Option) *Engine {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	randomWord := func(alpha string, n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = alpha[rng.Intn(len(alpha))]
		}
		return string(b)
	}
	cat := relation.NewCatalog()
	dict := relation.New("dict")
	for i := 0; i < 500; i++ {
		dict.Insert(randomWord("abcdefghijklmnopqrstuvwxyz", 6+rng.Intn(5)), nil)
	}
	cat.Add(dict)
	dna := relation.New("dna")
	for i := 0; i < 240; i++ {
		dna.Insert(randomWord("acgt", 8), nil)
	}
	cat.Add(dna)
	// clust: 500 single-character perturbations of one base word, so a
	// radius-1 range query around the base matches (and must visit)
	// nearly the whole relation.
	clust := relation.New("clust")
	base := "abcdefgh"
	for i := 0; i < 500; i++ {
		w := []byte(base)
		w[i%len(base)] = byte('a' + (i/len(base))%26)
		clust.Insert(string(w), nil)
	}
	cat.Add(clust)

	e := NewEngine(cat, opts...)
	if err := e.RegisterRuleSet(rewrite.UnitEdits("abcdefghijklmnopqrstuvwxyz")); err != nil {
		t.Fatal(err)
	}
	// "half" is unit edits at cost 0.5: edit-like but not unit-cost, so
	// it exercises the weighted scan paths over the full alphabet.
	alpha := []byte("abcdefghijklmnopqrstuvwxyz")
	var rules []rewrite.Rule
	for _, c := range alpha {
		rules = append(rules, rewrite.Insert(c, 0.5), rewrite.Delete(c, 0.5))
		for _, d := range alpha {
			if c != d {
				rules = append(rules, rewrite.Subst(c, d, 0.5))
			}
		}
	}
	if err := e.RegisterRuleSet(rewrite.MustRuleSet("half", rules)); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestExplainOperatorTrees asserts the planner's operator choice for
// every access path, one EXPLAIN per row.
func TestExplainOperatorTrees(t *testing.T) {
	small := testEngine(t)
	big := bigEngine(t)
	cases := []struct {
		name string
		eng  *Engine
		src  string
		want []string // substrings that must appear in the plan tree
		not  []string // substrings that must not
	}{
		{
			name: "plain scan",
			eng:  small,
			src:  `SELECT * FROM words`,
			want: []string{"Project(*)", "Scan(words)"},
			not:  []string{"Filter", "IndexRange"},
		},
		{
			name: "index range via lengthview on small relation",
			eng:  small,
			src:  `SELECT * FROM words WHERE seq SIMILAR TO "color" WITHIN 1 USING unit-edits`,
			want: []string{"IndexRange(words via lengthview, target=color, radius=1, ruleset=unit-edits)  (kernel=myers)"},
			not:  []string{"Scan(", "Filter"},
		},
		{
			name: "index range via lengthview on low-branching relation",
			eng:  big,
			src:  `SELECT * FROM dna WHERE seq SIMILAR TO "acgtacgt" WITHIN 1 USING unit-edits`,
			want: []string{"IndexRange(dna via lengthview"},
			not:  []string{"Scan("},
		},
		{
			name: "index range at a fractional and a wide radius",
			eng:  big,
			src:  `SELECT * FROM dict WHERE seq SIMILAR TO "abcdefgh" WITHIN 5.5 USING unit-edits`,
			want: []string{"IndexRange(dict via lengthview, target=abcdefgh, radius=5.5, ruleset=unit-edits)"},
			not:  []string{"Scan("},
		},
		{
			name: "weighted range falls back to scan+filter",
			eng:  small,
			src:  `SELECT * FROM words WHERE seq SIMILAR TO "color" WITHIN 0.3 USING cheap_vowels`,
			want: []string{"Scan(words)", "Filter("},
			not:  []string{"IndexRange"},
		},
		{
			name: "non-seq similarity cannot use the seq index",
			eng:  small,
			src:  `SELECT * FROM words WHERE lang SIMILAR TO "en" WITHIN 1 USING unit-edits`,
			want: []string{"Scan(words)", "Filter("},
			not:  []string{"IndexRange"},
		},
		{
			name: "indexable conjunct found behind a non-indexable sim",
			eng:  small,
			src: `SELECT * FROM words WHERE lang SIMILAR TO "en" WITHIN 1 USING unit-edits ` +
				`AND seq SIMILAR TO "color" WITHIN 1 USING unit-edits`,
			want: []string{"IndexRange(words via lengthview, target=color", "Filter("},
			not:  []string{"Scan("},
		},
		{
			name: "residual filter above index range",
			eng:  small,
			src:  `SELECT * FROM words WHERE seq SIMILAR TO "color" WITHIN 1 USING unit-edits AND lang = "en"`,
			want: []string{"Filter(lang = \"en\")", "IndexRange(words via lengthview"},
		},
		{
			name: "nearest-k, unit rule set",
			eng:  small,
			src:  `SELECT * FROM words WHERE seq NEAREST 3 TO "color" USING unit-edits`,
			want: []string{"NearestK(words, k=3, ruleset=unit-edits)  (kernel=myers)"},
		},
		{
			name: "nearest-k, weighted rule set",
			eng:  small,
			src:  `SELECT * FROM words WHERE seq NEAREST 2 TO "color" USING cheap_vowels`,
			want: []string{"NearestK(words, k=2, ruleset=cheap_vowels)  (kernel=targetdp)"},
		},
		{
			name: "unit seq join probes the inner length view",
			eng:  small,
			src:  `SELECT * FROM words a, words b WHERE a.seq SIMILAR TO b.seq WITHIN 1 USING unit-edits`,
			want: []string{"IndexJoin(probe a.seq into lengthview(b)", "Scan(a)"},
			not:  []string{"NestedLoopJoin"},
		},
		{
			name: "unit join scans the length band",
			eng:  small,
			src:  `SELECT * FROM words a, words b WHERE a.lang SIMILAR TO b.lang WITHIN 1 USING unit-edits`,
			want: []string{"NestedLoopJoin(b[length-banded], on", "Scan(a)"},
			not:  []string{"IndexJoin"},
		},
		{
			name: "weighted join needs nested loops",
			eng:  small,
			src:  `SELECT * FROM words a, words b WHERE a.seq SIMILAR TO b.seq WITHIN 1 USING cheap_vowels`,
			want: []string{"NestedLoopJoin(b, on", "Scan(a)"},
			not:  []string{"IndexJoin", "length-banded"},
		},
		{
			name: "three-way join chains two banded scans",
			eng:  small,
			src: `SELECT * FROM words a, words b, words c WHERE a.lang SIMILAR TO b.lang WITHIN 1 USING unit-edits ` +
				`AND b.lang SIMILAR TO c.lang WITHIN 1 USING unit-edits`,
			want: []string{"NestedLoopJoin(b[length-banded], on a.lang", "NestedLoopJoin(c[length-banded], on b.lang"},
		},
		{
			name: "three-way seq join chains two index joins",
			eng:  small,
			src: `SELECT * FROM words a, words b, words c WHERE a.seq SIMILAR TO b.seq WITHIN 1 USING unit-edits ` +
				`AND b.seq SIMILAR TO c.seq WITHIN 1 USING unit-edits`,
			want: []string{"IndexJoin(probe a.seq into lengthview(b)", "IndexJoin(probe b.seq into lengthview(c)"},
		},
		{
			name: "order by dist",
			eng:  small,
			src:  `SELECT * FROM words WHERE seq SIMILAR TO "color" WITHIN 2 USING unit-edits ORDER BY dist DESC LIMIT 3`,
			want: []string{"Limit(3)", "IndexRange(words via lengthview, target=color, radius=2, ruleset=unit-edits, order=dist desc)"},
			not:  []string{"OrderByDist"},
		},
		{
			name: "order by dist over a preceding similarity conjunct",
			eng:  small,
			src: `SELECT * FROM words WHERE lang SIMILAR TO "en" WITHIN 1 USING unit-edits ` +
				`AND seq SIMILAR TO "color" WITHIN 1 USING unit-edits ORDER BY dist`,
			want: []string{"OrderByDist(asc)", "Filter((lang SIMILAR TO", "IndexRange(words via lengthview, target=color, radius=1, ruleset=unit-edits)"},
		},
		{
			name: "order by dist over nearest-k",
			eng:  small,
			src:  `SELECT * FROM words WHERE seq NEAREST 3 TO "color" USING unit-edits ORDER BY dist DESC`,
			want: []string{"NearestK(words, k=3, ruleset=unit-edits, order=dist desc)"},
			not:  []string{"OrderByDist"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := tc.eng.Execute("EXPLAIN " + tc.src)
			if err != nil {
				t.Fatalf("Execute: %v", err)
			}
			if len(res.Rows) != 1 {
				t.Fatalf("EXPLAIN rows = %d, want 1", len(res.Rows))
			}
			plan := res.Rows[0][0]
			for _, w := range tc.want {
				if !strings.Contains(plan, w) {
					t.Errorf("plan missing %q:\n%s", w, plan)
				}
			}
			for _, n := range tc.not {
				if strings.Contains(plan, n) {
					t.Errorf("plan unexpectedly contains %q:\n%s", n, plan)
				}
			}
		})
	}
}

func TestOrderByDistExecution(t *testing.T) {
	e := testEngine(t)
	res, err := e.Execute(`SELECT seq, dist FROM words WHERE seq SIMILAR TO "color" WITHIN 2 USING unit-edits ORDER BY dist`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	var prev float64 = -1
	for _, row := range res.Rows {
		d, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatalf("bad dist %q", row[1])
		}
		if d < prev {
			t.Fatalf("distances not ascending: %v", res.Rows)
		}
		prev = d
	}
	if res.Rows[0][0] != "color" {
		t.Errorf("first row = %v, want color at dist 0", res.Rows[0])
	}

	desc, err := e.Execute(`SELECT seq, dist FROM words WHERE seq SIMILAR TO "color" WITHIN 2 USING unit-edits ORDER BY dist DESC`)
	if err != nil {
		t.Fatal(err)
	}
	if len(desc.Rows) != len(res.Rows) {
		t.Fatalf("desc rows = %d, asc rows = %d", len(desc.Rows), len(res.Rows))
	}
	if desc.Rows[len(desc.Rows)-1][0] != "color" {
		t.Errorf("desc last row = %v, want color", desc.Rows[len(desc.Rows)-1])
	}
}

// TestOrderByDistDistlessLast: rows admitted by a non-similarity OR
// branch carry no distance and must sort last in both directions.
func TestOrderByDistDistlessLast(t *testing.T) {
	e := testEngine(t)
	for _, dir := range []string{"", " DESC"} {
		res, err := e.Execute(`SELECT * FROM words WHERE seq SIMILAR TO "color" WITHIN 1 USING unit-edits OR lang = "fr" ORDER BY dist` + dir)
		if err != nil {
			t.Fatal(err)
		}
		// '*' projects id, seq, dist; velour matches only via
		// lang = "fr", so its dist is empty and it must come last.
		last := res.Rows[len(res.Rows)-1]
		if last[1] != "velour" || last[2] != "" {
			t.Errorf("ORDER BY dist%s: dist-less row not last: %v", dir, res.Rows)
		}
	}
}

func TestOrderByDistRequiresSimilarity(t *testing.T) {
	e := testEngine(t)
	if _, err := e.Execute(`SELECT * FROM words ORDER BY dist`); err == nil {
		t.Error("ORDER BY dist without a similarity predicate succeeded")
	}
}

// TestThreeWayJoin verifies an N-way join against hand-computed pairs:
// chain a-b-c where consecutive relations hold words at distance 1.
func TestThreeWayJoin(t *testing.T) {
	cat := relation.NewCatalog()
	mk := func(name string, words ...string) {
		r := relation.New(name)
		for _, w := range words {
			r.Insert(w, nil)
		}
		cat.Add(r)
	}
	mk("a", "cat", "dog")
	mk("b", "cot", "dig", "zzzz")
	mk("c", "cut", "fig")
	e := NewEngine(cat)
	if err := e.RegisterRuleSet(rewrite.UnitEdits("abcdefghijklmnopqrstuvwxyz")); err != nil {
		t.Fatal(err)
	}
	res, err := e.Execute(`SELECT a.seq, b.seq, c.seq FROM a, b, c ` +
		`WHERE a.seq SIMILAR TO b.seq WITHIN 1 USING unit-edits AND b.seq SIMILAR TO c.seq WITHIN 1 USING unit-edits`)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, row := range res.Rows {
		got[strings.Join(row[:3], "|")] = true
	}
	// cat~cot~cut and dog~dig~fig are the only chains.
	want := map[string]bool{"cat|cot|cut": true, "dog|dig|fig": true}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("three-way join = %v, want %v", got, want)
	}
}

// TestThreeWayJoinCycleEdge: a third SIMILAR TO edge between already-
// joined relations must still be enforced (as a residual predicate).
func TestThreeWayJoinCycleEdge(t *testing.T) {
	cat := relation.NewCatalog()
	mk := func(name string, words ...string) {
		r := relation.New(name)
		for _, w := range words {
			r.Insert(w, nil)
		}
		cat.Add(r)
	}
	mk("a", "cat")
	mk("b", "cot")
	mk("c", "cut", "frog")
	e := NewEngine(cat)
	if err := e.RegisterRuleSet(rewrite.UnitEdits("abcdefghijklmnopqrstuvwxyz")); err != nil {
		t.Fatal(err)
	}
	res, err := e.Execute(`SELECT a.seq, b.seq, c.seq FROM a, b, c ` +
		`WHERE a.seq SIMILAR TO b.seq WITHIN 1 USING unit-edits ` +
		`AND b.seq SIMILAR TO c.seq WITHIN 1 USING unit-edits ` +
		`AND a.seq SIMILAR TO c.seq WITHIN 1 USING unit-edits`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][2] != "cut" {
		t.Errorf("cycle join rows = %v, want only cat|cot|cut", res.Rows)
	}

	// The vector form: the cycle edge a.vec SIMILAR TO c.vec becomes a
	// filter over three-slot rows whose target is another slot's vector.
	// c0 is within 1.5 of both; c1 is within 1.5 of b but 2 from a.
	vcat := relation.NewCatalog()
	mkv := func(name string, vecs ...metric.Vector) {
		r := relation.New(name)
		for _, v := range vecs {
			r.InsertOne(relation.InsertRow{Vec: v})
		}
		vcat.Add(r)
	}
	mkv("a", metric.Vector{0, 0})
	mkv("b", metric.Vector{0, 1})
	mkv("c", metric.Vector{1, 1}, metric.Vector{0, 2}, metric.Vector{5, 5})
	res, err = NewEngine(vcat).Execute(`SELECT a.id, b.id, c.id, dist FROM a, b, c ` +
		`WHERE a.vec SIMILAR TO b.vec WITHIN 1.5 USING l2 ` +
		`AND b.vec SIMILAR TO c.vec WITHIN 1.5 USING l2 ` +
		`AND a.vec SIMILAR TO c.vec WITHIN 1.5 USING l2`)
	if err != nil {
		t.Fatal(err)
	}
	if want := [][]string{{"0", "0", "0", "1"}}; !reflect.DeepEqual(res.Rows, want) {
		t.Errorf("vector cycle join rows = %v, want %v", res.Rows, want)
	}
	if !strings.Contains(res.Plan, "Filter(a.vec SIMILAR TO c.vec") {
		t.Errorf("the cycle edge is not a residual filter:\n%s", res.Plan)
	}
}

func TestJoinDisconnectedRelationsRejected(t *testing.T) {
	e := testEngine(t)
	_, err := e.Execute(`SELECT * FROM words a, words b, words c WHERE a.seq SIMILAR TO b.seq WITHIN 1 USING unit-edits`)
	if err == nil {
		t.Error("disconnected 3-way join succeeded")
	}
}

// TestLimitPushdownIndexCandidates pins how LIMIT meets each access
// path: the band walk is blocking — it sorts its matches by id before
// the first block leaves — so an indexed LIMIT 1 reads exactly the
// candidates of the full range and returns its first row, while a scan
// streams and stops early.
func TestLimitPushdownIndexCandidates(t *testing.T) {
	e := bigEngine(t)
	full, err := e.Execute(`SELECT seq FROM clust WHERE seq SIMILAR TO "abcdefgh" WITHIN 1 USING unit-edits`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(full.Plan, "IndexRange(clust via lengthview") {
		t.Fatalf("plan = %q, want the length-view index range", full.Plan)
	}
	if len(full.Rows) < 100 || full.Stats.Candidates < 100 {
		t.Fatalf("weak test premise: %d rows, %d candidates", len(full.Rows), full.Stats.Candidates)
	}
	limited, err := e.Execute(`SELECT seq FROM clust WHERE seq SIMILAR TO "abcdefgh" WITHIN 1 USING unit-edits LIMIT 1`)
	if err != nil {
		t.Fatal(err)
	}
	if len(limited.Rows) != 1 || limited.Rows[0][0] != full.Rows[0][0] {
		t.Fatalf("limited rows = %v, want the full range's first row %v", limited.Rows, full.Rows[0])
	}
	if limited.Stats.Candidates != full.Stats.Candidates {
		t.Errorf("LIMIT 1 read %d candidates, the full range %d: the walk should not depend on the limit",
			limited.Stats.Candidates, full.Stats.Candidates)
	}
	// The scan access path also stops early under LIMIT.
	scanAll, err := e.Execute(`SELECT seq FROM dict`)
	if err != nil {
		t.Fatal(err)
	}
	scanOne, err := e.Execute(`SELECT seq FROM dict LIMIT 1`)
	if err != nil {
		t.Fatal(err)
	}
	if scanOne.Stats.Candidates >= scanAll.Stats.Candidates {
		t.Errorf("scan LIMIT 1 touched %d candidates, full scan %d", scanOne.Stats.Candidates, scanAll.Stats.Candidates)
	}
}

// TestParallelScanDeterminism: parallel execution must yield
// byte-identical results to serial execution, for scans and joins.
func TestParallelScanDeterminism(t *testing.T) {
	queries := []string{
		`SELECT seq, dist FROM dict WHERE seq SIMILAR TO "aaaaaaa" WITHIN 4 USING half`,
		`SELECT seq FROM dict WHERE seq SIMILAR TO "qqqq" WITHIN 20 USING half ORDER BY dist LIMIT 17`,
		`SELECT a.seq, b.seq, dist FROM dna a, dna b WHERE a.seq SIMILAR TO b.seq WITHIN 2 USING unit-edits AND a.id != b.id`,
	}
	serialEng := bigEngine(t, WithParallelism(1))
	parallelEng := bigEngine(t, WithParallelism(4), WithParallelMinRows(1))
	for _, src := range queries {
		serial, err := serialEng.Execute(src)
		if err != nil {
			t.Fatalf("serial %q: %v", src, err)
		}
		par, err := parallelEng.Execute(src)
		if err != nil {
			t.Fatalf("parallel %q: %v", src, err)
		}
		if !strings.Contains(par.Plan, "GatherMerge(shards=4, workers=4, merge=id)") {
			t.Fatalf("parallel plan for %q did not shard:\n%s", src, par.Plan)
		}
		if !reflect.DeepEqual(serial.Rows, par.Rows) {
			t.Errorf("parallel result differs from serial for %q:\nserial %v\nparallel %v", src, serial.Rows, par.Rows)
		}
	}
	// Plans that gain nothing from sharding stay serial even on a
	// parallel engine: a LIMIT without ORDER BY can stop early, and a
	// bare scan has no per-tuple work to spread.
	for _, src := range []string{
		`SELECT seq FROM dict WHERE seq SIMILAR TO "qqqq" WITHIN 20 USING half LIMIT 3`,
		`SELECT seq FROM dict`,
	} {
		res, err := parallelEng.Execute(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		if strings.Contains(res.Plan, "GatherMerge") {
			t.Errorf("%q should plan serial, got:\n%s", src, res.Plan)
		}
	}
}

// TestCompiledPredShortCircuit pins the documented error semantics of
// the compiled predicate over a joined (two-slot) row: NOT propagates
// errors instead of negating error results, and AND/OR short-circuit
// without evaluating (or erroring on) the right side.
func TestCompiledPredShortCircuit(t *testing.T) {
	e := testEngine(t)
	slots := slotMap{"words", "w2"}
	b := &Batch{}
	b.reset(len(slots))
	b.slot(0).Append(0, "color", nil, nil)
	b.slot(1).Append(1, "colour", nil, nil)
	b.dist, b.has = []float64{1}, []bool{true}
	eval := func(ex Expr) (bool, error) { return e.compilePred(ex, slots)(b, 0) }
	bad := CmpExpr{L: Operand{Field: FieldRef{Table: "nosuch", Name: "x"}}, R: Operand{Lit: "y", IsLit: true}}
	falsy := CmpExpr{L: Operand{Field: FieldRef{Table: "words", Name: "seq"}}, R: Operand{Field: FieldRef{Table: "w2", Name: "seq"}}}
	truthy := CmpExpr{L: Operand{Field: FieldRef{Table: "words", Name: "id"}}, R: Operand{Field: FieldRef{Table: "w2", Name: "id"}}, Neq: true}

	if v, err := eval(NotExpr{E: bad}); err == nil || v {
		t.Errorf("NOT over erroring expr = (%v, %v), want (false, error)", v, err)
	}
	if v, err := eval(AndExpr{L: falsy, R: bad}); err != nil || v {
		t.Errorf("false AND erroring = (%v, %v), want short-circuit (false, nil)", v, err)
	}
	if v, err := eval(OrExpr{L: truthy, R: bad}); err != nil || !v {
		t.Errorf("true OR erroring = (%v, %v), want short-circuit (true, nil)", v, err)
	}
	if _, err := eval(AndExpr{L: truthy, R: bad}); err == nil || err.Error() != `query: unknown alias "nosuch"` {
		t.Errorf("true AND erroring right side: error = %v, want the unknown alias", err)
	}
}

// TestNonSeqSimilarityCorrect verifies scan fallback answers for a
// similarity predicate over an attribute column.
func TestNonSeqSimilarityCorrect(t *testing.T) {
	e := testEngine(t)
	res, err := e.Execute(`SELECT seq, lang FROM words WHERE lang SIMILAR TO "en" WITHIN 1 USING unit-edits`)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		// uk, fr and la are all at distance 2 from en; only exact "en"
		// matches within 1.
		if row[1] != "en" {
			t.Errorf("lang %q should not be within 1 of en", row[1])
		}
	}
	if len(res.Rows) != 4 {
		t.Errorf("rows = %d (%v), want the 4 en words", len(res.Rows), res.Rows)
	}
}
