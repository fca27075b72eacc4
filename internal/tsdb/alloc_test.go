//go:build !race

package tsdb

import "testing"

// Under the race detector sync.Pool discards a share of what is put back,
// so the pooled scratch is reallocated and the counts below do not hold.

// TestRangeIndexAllocations: a query's scratch — normal form, spectrum,
// rectangle, search buffers — is pooled, so what a call allocates is its
// answer slice and nothing that grows with the nodes visited or the
// candidates verified.
func TestRangeIndexAllocations(t *testing.T) {
	db := buildDB(t, 29, 3000, 128, 2)
	mavg, err := MovingAvg(128, 20)
	if err != nil {
		t.Fatal(err)
	}
	q, err := MovingAverage(db.raw[5], 20)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		eps       float64
		maxAllocs float64
	}{
		{2, 0}, // candidates but no answers: nothing to allocate
		{3, 4}, // a handful of answers: the answer slice, grown by append
	} {
		var st Stats
		var got []Match
		run := func() {
			if got, st, err = db.RangeIndex(q, mavg, c.eps); err != nil {
				t.Fatal(err)
			}
		}
		run()
		if c.maxAllocs == 0 && len(got) != 0 || c.maxAllocs > 0 && (len(got) == 0 || len(got) > 8) {
			t.Fatalf("eps %g: %d answers; the case no longer tests what it says", c.eps, len(got))
		}
		if st.Candidates < 20 {
			t.Fatalf("eps %g: only %d candidates", c.eps, st.Candidates)
		}
		if allocs := testing.AllocsPerRun(50, run); allocs > c.maxAllocs {
			t.Errorf("eps %g (%d answers, %d candidates): %v allocations per call, want at most %v",
				c.eps, len(got), st.Candidates, allocs, c.maxAllocs)
		}
	}
}
