package repro

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/seq"
	"repro/internal/stock"
	"repro/internal/tsdb"
)

// TestPipelineStoreLoadQuery drives the full storage path: build a
// relation, serialise it, load it back, query it through the engine.
func TestPipelineStoreLoadQuery(t *testing.T) {
	a := seq.MustAlphabet("abcdef")
	rng := rand.New(rand.NewSource(1))
	orig := NewRelation("dict")
	for i := 0; i < 500; i++ {
		orig.Insert(a.Random(rng, 4+rng.Intn(8)), map[string]string{"even": map[bool]string{true: "y", false: "n"}[i%2 == 0]})
	}
	var buf bytes.Buffer
	if err := orig.Store(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadRelation("dict", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != orig.Len() {
		t.Fatalf("round trip lost tuples: %d vs %d", loaded.Len(), orig.Len())
	}

	cat := NewCatalog()
	cat.Add(loaded)
	eng := NewQueryEngine(cat)
	if err := eng.RegisterRuleSet(MustRuleSet("edits", UnitEdits("abcdef").Rules())); err != nil {
		t.Fatal(err)
	}
	target, _ := loaded.Tuple(42)
	res, err := eng.Execute(`SELECT seq, dist FROM dict WHERE seq SIMILAR TO "` + target.Seq + `" WITHIN 1 USING edits`)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, row := range res.Rows {
		if row[0] == target.Seq && row[1] == "0" {
			found = true
		}
	}
	if !found {
		t.Errorf("target %q missing from its own range query: %v", target.Seq, res.Rows)
	}

	// Index path and forced scan path agree on the loaded data.
	scan, err := eng.Execute(`SELECT seq FROM dict WHERE seq SIMILAR TO "` + target.Seq + `" WITHIN 1 USING edits OR seq = "zzzzzzzzzz"`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(scan.Plan(), "Scan") {
		t.Fatalf("expected scan plan, got %s", scan.Plan())
	}
	if len(scan.Rows) != len(res.Rows) {
		t.Errorf("scan %d rows, index %d rows", len(scan.Rows), len(res.Rows))
	}
}

// TestLemma1PropertyTimeSeries is the superset guarantee as a property
// test: for random walks, random transformations and random thresholds,
// the index answer set equals the exhaustive scan's.
func TestLemma1PropertyTimeSeries(t *testing.T) {
	const n = 64
	db, err := NewTimeSeriesDB(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range stock.Walks(5, 200, n) {
		if _, err := db.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Build(); err != nil {
		t.Fatal(err)
	}
	mavg5, _ := MovingAvg(n, 5)
	mavg20, _ := MovingAvg(n, 20)
	transforms := []*SpectralTransform{nil, IdentityT(n), mavg5, mavg20, ReverseT(n)}
	rng := rand.New(rand.NewSource(6))
	f := func(seed int64, epsRaw uint8, trIdx uint8) bool {
		q := stock.Walk(rand.New(rand.NewSource(seed)), n)
		eps := float64(epsRaw%12) + 0.5
		tr := transforms[int(trIdx)%len(transforms)]
		idx, _, err := db.RangeIndex(q, tr, eps)
		if err != nil {
			return false
		}
		scan, _, err := db.RangeScan(q, tr, eps)
		if err != nil {
			return false
		}
		if len(idx) != len(scan) {
			return false
		}
		seen := map[int]float64{}
		for _, m := range idx {
			seen[m.ID] = m.Dist
		}
		for _, m := range scan {
			if d, ok := seen[m.ID]; !ok || d != m.Dist {
				return false
			}
		}
		return true
	}
	_ = rng
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestCrossEvaluatorAgreement: the three distance evaluators (DP,
// general search, framework core) agree wherever they are all defined.
func TestCrossEvaluatorAgreement(t *testing.T) {
	rs := UnitEdits("abc")
	calc, err := NewEditCalculator(rs)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewTransformEngine(rs)
	if err != nil {
		t.Fatal(err)
	}
	dom, err := SequenceDomain(rs)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluator(dom)
	if err != nil {
		t.Fatal(err)
	}
	a := seq.MustAlphabet("abc")
	rng := rand.New(rand.NewSource(9))
	const budget = 3.0
	for trial := 0; trial < 30; trial++ {
		x := a.Random(rng, rng.Intn(5))
		y := a.Random(rng, rng.Intn(5))
		dp := calc.Distance(x, y)
		d1, ok1, err := eng.Distance(x, y, budget)
		if err != nil {
			t.Fatal(err)
		}
		d2, ok2, err := ev.Distance(x, y, budget)
		if err != nil {
			t.Fatal(err)
		}
		if ok1 != ok2 || (ok1 && d1 != d2) {
			t.Fatalf("(%q,%q): engine %g,%v vs core %g,%v", x, y, d1, ok1, d2, ok2)
		}
		if wantOK := dp <= budget; wantOK != ok1 || (ok1 && dp != d1) {
			t.Fatalf("(%q,%q): dp %g vs engine %g,%v", x, y, dp, d1, ok1)
		}
	}
}

// TestTimeWarpEndToEnd exercises Appendix A through the public surface:
// warping in the time domain matches the spectral prediction.
func TestTimeWarpEndToEnd(t *testing.T) {
	s := stock.Walk(rand.New(rand.NewSource(11)), 16)
	warped := tsdb.WarpSeries(s, 2)
	if len(warped) != 32 {
		t.Fatalf("warp length = %d", len(warped))
	}
	for i, v := range s {
		if warped[2*i] != v || warped[2*i+1] != v {
			t.Fatalf("warp misplaced value at %d", i)
		}
	}
	if _, err := tsdb.WarpCoefficients(16, 2, 8); err != nil {
		t.Fatal(err)
	}
}
