package query

import (
	"strings"
	"testing"
)

// TestExplainRootIsTheTopOperator pins the EXPLAIN surface of the one
// pipeline: the root is the plan's real top operator (no pseudo-root,
// no adapters anywhere), the kernel label sits on the operator that
// runs the kernel, and every join shape renders the one join operator
// under its probe strategy's name.
func TestExplainRootIsTheTopOperator(t *testing.T) {
	e := bigEngine(t)
	cases := []struct {
		stmt string
		root string
		want []string
	}{
		{`EXPLAIN SELECT * FROM dict LIMIT 3`, "Limit(3)", nil},
		// The band-walk range plan carries the decided distance kernel
		// (bit-parallel Myers inside the walk) on the leaf.
		{`EXPLAIN SELECT seq FROM dict WHERE seq SIMILAR TO "abcdef" WITHIN 1 USING unit-edits`,
			"Project(seq)", []string{"ruleset=unit-edits)  (kernel=myers)"}},
		{`EXPLAIN SELECT a.seq FROM dna a, dna b WHERE a.seq SIMILAR TO b.seq WITHIN 1 USING unit-edits`,
			"Project(a.seq)", []string{"IndexJoin(probe a.seq into lengthview(b)", "Scan(a)"}},
		{`EXPLAIN SELECT a.seq FROM dna a, dna b WHERE a.seq SIMILAR TO b.id WITHIN 1 USING unit-edits`,
			"Project(a.seq)", []string{"NestedLoopJoin(b[length-banded], on", "Scan(a)"}},
		// A weighted rule set licenses neither the length band nor the
		// length view: the scan verifies every pair.
		{`EXPLAIN SELECT a.seq FROM dna a, dna b WHERE a.seq SIMILAR TO b.seq WITHIN 1 USING half`,
			"Project(a.seq)", []string{"NestedLoopJoin(b, on", "Scan(a)"}},
	}
	for _, c := range cases {
		res, err := e.Execute(c.stmt)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(res.Plan(), c.root+"\n") {
			t.Errorf("%s: root is not %s:\n%s", c.stmt, c.root, res.Plan())
		}
		for _, frag := range append(c.want, "└─ ") {
			if !strings.Contains(res.Plan(), frag) {
				t.Errorf("%s: plan lacks %q:\n%s", c.stmt, frag, res.Plan())
			}
		}
		for _, gone := range []string{"Vectorize(", "RowToBatch", "BatchToRow"} {
			if strings.Contains(res.Plan(), gone) {
				t.Errorf("%s: plan still renders %q:\n%s", c.stmt, gone, res.Plan())
			}
		}
	}
}

// TestWithBatchSizeClamps: a block holds at least one row — values
// below 1 clamp to 1 (the WithParallelism precedent) and select no other
// engine.
func TestWithBatchSizeClamps(t *testing.T) {
	for _, n := range []int{0, -7} {
		e := analyzeEngine(t, 1, n)
		if e.BatchSize() != 1 {
			t.Fatalf("WithBatchSize(%d): BatchSize() = %d, want 1", n, e.BatchSize())
		}
		res, err := e.Execute(`SELECT seq FROM words WHERE seq NEAREST 2 TO "color" USING unit-edits`)
		if err != nil || len(res.Rows) != 2 {
			t.Fatalf("WithBatchSize(%d): rows = %v, err = %v", n, res, err)
		}
	}
}

// TestBatchLimitPushdownCandidates is the block-granular LIMIT-pushdown
// regression test: the leaf block size is capped by a LIMIT without
// ORDER BY, so a LIMIT 1 scan must touch far fewer candidates than the
// full query (TestLimitPushdownIndexCandidates covers the band walk,
// which a LIMIT does not cut short).
func TestBatchLimitPushdownCandidates(t *testing.T) {
	e := bigEngine(t)
	full, err := e.Execute(`SELECT seq FROM dict`)
	if err != nil {
		t.Fatal(err)
	}
	one, err := e.Execute(`SELECT seq FROM dict LIMIT 1`)
	if err != nil {
		t.Fatal(err)
	}
	if one.Stats.Candidates >= full.Stats.Candidates {
		t.Errorf("batch scan LIMIT 1 touched %d candidates, full scan %d", one.Stats.Candidates, full.Stats.Candidates)
	}
	filtered, err := e.Execute(`SELECT seq FROM clust WHERE seq SIMILAR TO "abcdefgh" WITHIN 1 USING unit-edits OR seq = "#" LIMIT 1`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(filtered.Plan(), "Scan(clust)") || filtered.Stats.Candidates >= 500 {
		t.Errorf("filtered scan LIMIT 1 touched %d of 500 candidates:\n%s", filtered.Stats.Candidates, filtered.Plan())
	}
}

// TestBatchSyncColsDivergedCapacities is the regression test for a
// pooled-batch crash: dist ([]float64) and has ([]bool) grow through
// independent appends and land in different allocator size classes, so
// a recycled batch can carry cap(has) < n <= cap(dist); syncCols must
// resize each column by its own capacity instead of assuming they
// moved in lockstep.
func TestBatchSyncColsDivergedCapacities(t *testing.T) {
	b := &Batch{}
	b.dist = make([]float64, 0, 64)
	b.has = make([]bool, 0, 8)
	for i := 0; i < 20; i++ {
		b.Block.Append(i, "s", nil, nil)
	}
	b.syncCols() // panicked before the fix: has[:20] with capacity 8
	if len(b.dist) != 20 || len(b.has) != 20 {
		t.Fatalf("syncCols lengths = %d/%d, want 20/20", len(b.dist), len(b.has))
	}
	for i := range b.has {
		if b.has[i] || b.dist[i] != 0 {
			t.Fatalf("syncCols left stale distance state at row %d", i)
		}
	}
}

// TestBatchDMLReadPlan pins that DELETE/UPDATE read phases take their
// ids from the read plan's id column (collectIDs) and affect the rows
// the model says — covered broadly by the oracle, but this is the
// minimal deterministic repro.
func TestBatchDMLReadPlan(t *testing.T) {
	p := newBatchPair(t, 1, 16)
	p.exec(t, `INSERT INTO words (seq, tag) VALUES ("abc", "1"), ("abd", "1"), ("jih", "2"), ("abe", "2")`)
	res := p.exec(t, `DELETE FROM words WHERE seq SIMILAR TO "abc" WITHIN 1 USING edits`)
	if res.Rows[0][0] != "3" {
		t.Fatalf("delete count = %s, want 3", res.Rows[0][0])
	}
	p.exec(t, `UPDATE words SET tag = "9" WHERE seq = "jih"`)
	p.checkDump(t)
}
