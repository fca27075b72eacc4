package query

import (
	"strings"
	"testing"

	"repro/internal/metric"
)

// TestPreparedThresholdCrossoverReplans: one PreparedQuery whose bound
// THRESHOLD moves across the VP-tree's selectivity crossover switches
// between VecRange and Scan plans, and back: every binding plans as a
// fresh engine would. String WITHIN has one access path at every
// radius; TestRangeCrossoverAnswersAgree covers it.
func TestPreparedThresholdCrossoverReplans(t *testing.T) {
	e := vecEngine(t, 1, 256, vecRows(
		metric.Vector{0, 0}, metric.Vector{1, 0}, metric.Vector{0, 3}, metric.Vector{5, 5},
	))
	pq, err := e.Prepare(`SELECT id FROM items WHERE vec SIMILAR TO ? WITHIN ? USING l2`)
	if err != nil {
		t.Fatal(err)
	}

	plan1, err := pq.Explain("[0, 0]", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan1, "VecRange") {
		t.Errorf("radius 1 plan = %q, want VecRange", plan1)
	}

	plan4, err := pq.Explain("[0, 0]", 4)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan4, "Scan(") || strings.Contains(plan4, "VecRange") {
		t.Errorf("radius 4 plan = %q, want Scan without VecRange", plan4)
	}

	// Back below the crossover, and a second target at the same radius.
	for _, target := range []string{"[0, 0]", "[5, 5]"} {
		if res := checkLikeFresh(t, e, pq.Text(), target, 1); !strings.Contains(res.Plan, "VecRange") {
			t.Errorf("radius 1 plan for %s = %q, want VecRange", target, res.Plan)
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
	if !strings.Contains(res.Plan, "IndexRange(dict via lengthview") {
		t.Fatalf("radius-4 plan should walk the length view, got:\n%s", res.Plan)
	}
	scan, err := e.Execute(within + ` OR seq = "#" ORDER BY dist`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(scan.Plan, "Scan(") {
		t.Fatalf("the OR conjunct should force a scan, got:\n%s", scan.Plan)
	}
	if positional(res) != positional(scan) {
		t.Errorf("band walk and scan disagree:\nwalk:\n%s\nscan:\n%s", positional(res), positional(scan))
	}
	// Cross-check against the BK-tree directly.
	rel, _ := e.Catalog().Get("dict")
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
