package query

import (
	"strings"
	"testing"

	"repro/internal/metric"
)

// TestPreparedThresholdCrossoverReplans: one PreparedQuery whose bound
// THRESHOLD moves back and forth across the radius where the deleted
// VP-tree/scan cost choice used to switch to the scan. Vector access is
// a capability now, so every binding plans the vector view's VecRange,
// and each returns what a fresh engine returns for the same binding.
// String WITHIN has one access path at every radius;
// TestRangeCrossoverAnswersAgree covers it.
func TestPreparedThresholdCrossoverReplans(t *testing.T) {
	e := vecEngine(t, 1, 256, vecRows(
		metric.Vector{0, 0}, metric.Vector{1, 0}, metric.Vector{0, 3}, metric.Vector{5, 5},
	))
	pq, err := e.Prepare(`SELECT id FROM items WHERE vec SIMILAR TO ? WITHIN ? USING l2`)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		target string
		radius float64
		want   int
	}{
		{"[0, 0]", 1, 2},
		{"[0, 0]", 4, 3},
		{"[0, 0]", 1, 2},
		{"[5, 5]", 1, 1},
		{"[5, 5]", 8, 4},
	} {
		res := checkLikeFresh(t, e, pq.Text(), c.target, c.radius)
		if !strings.Contains(res.Plan(), "VecRange(items via vecview, radius=") || strings.Contains(res.Plan(), "Scan(") {
			t.Errorf("%s WITHIN %g plan = %q, want the vector view's VecRange", c.target, c.radius, res.Plan())
		}
		if len(res.Rows) != c.want {
			t.Errorf("%s WITHIN %g: %d rows, want %d", c.target, c.radius, len(res.Rows), c.want)
		}
	}
}

// TestRangeCrossoverAnswersAgree: at a radius whose length bands cover
// most of the relation, the band walk must still return exactly the
// BK-tree's answer set, and the same rows in the same order as a
// forced scan.
func TestRangeCrossoverAnswersAgree(t *testing.T) {
	e := bigEngine(t, WithParallelism(1))
	const within = `SELECT seq FROM dict WHERE seq SIMILAR TO "abcdefgh" WITHIN 4 USING unit-edits`
	res, err := e.Execute(within + ` ORDER BY dist`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Plan(), "IndexRange(dict via lengthview") {
		t.Fatalf("radius-4 plan should walk the length view, got:\n%s", res.Plan())
	}
	scan, err := e.Execute(within + ` OR seq = "#" ORDER BY dist`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(scan.Plan(), "Scan(") {
		t.Fatalf("the OR conjunct should force a scan, got:\n%s", scan.Plan())
	}
	if positional(res) != positional(scan) {
		t.Errorf("band walk and scan disagree:\nwalk:\n%s\nscan:\n%s", positional(res), positional(scan))
	}
	// Cross-check against the BK-tree directly.
	rel, _ := e.Catalog().Lookup("dict")
	want := map[string]bool{}
	for _, m := range rel.BKTree().Range("abcdefgh", 4) {
		want[m.S] = true
	}
	got := map[string]bool{}
	for _, row := range res.Rows {
		got[row[0]] = true
	}
	if len(got) != len(want) {
		t.Errorf("band walk answers = %d, bktree answers = %d", len(got), len(want))
	}
	for s := range want {
		if !got[s] {
			t.Errorf("band walk missed %q", s)
		}
	}
}
