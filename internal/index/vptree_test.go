package index

import (
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/metric"
)

func randVecs(rng *rand.Rand, n, dim int) []metric.Vector {
	out := make([]metric.Vector, n)
	for i := range out {
		v := make(metric.Vector, dim)
		for j := range v {
			v[j] = float32(rng.NormFloat64())
		}
		out[i] = v
	}
	return out
}

// bruteNearestK and bruteRange are the independent oracle every VP-tree
// answer is pinned against, sharing only metric.Distance with the tree.
func vecBruteNearestK(m metric.Distance, vecs []metric.Vector, q metric.Vector, k int, accept func(id int) bool) []Match {
	var best []Match
	for id, v := range vecs {
		if accept != nil && !accept(id) {
			continue
		}
		best = PushBestK(best, Match{ID: id, Dist: m.Dist(q, v)}, k)
	}
	return best
}

func vecBruteRange(m metric.Distance, vecs []metric.Vector, q metric.Vector, r float64) []Match {
	var out []Match
	for id, v := range vecs {
		if d := m.Dist(q, v); d <= r {
			out = append(out, Match{ID: id, Dist: d})
		}
	}
	sort.Slice(out, func(i, j int) bool { return lessMatchID(out[i], out[j]) })
	return out
}

func lessMatchID(a, b Match) bool { return a.ID < b.ID }

func sortByID(ms []Match) []Match {
	out := append([]Match(nil), ms...)
	sort.Slice(out, func(i, j int) bool { return lessMatchID(out[i], out[j]) })
	return out
}

// TestVPTreeVecNearestOracle pins VP-tree NEAREST byte-identical to the
// brute-force oracle across dimensions, k sweeps and interleaved
// inserts (queries run while the tree is still growing).
func TestVPTreeVecNearestOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, dim := range []int{2, 8, 64} {
		vecs := randVecs(rng, 400, dim)
		tr := NewVPTree(metric.L2{})
		for i, v := range vecs {
			tr.Insert(i, v)
			// Interleaved: every 97 inserts, query against the prefix.
			if i%97 != 96 {
				continue
			}
			q := randVecs(rng, 1, dim)[0]
			got := tr.NearestK(q, 5)
			want := vecBruteNearestK(metric.L2{}, vecs[:i+1], q, 5, nil)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("dim %d prefix %d: NearestK diverged\n got %v\nwant %v", dim, i+1, got, want)
			}
		}
		if tr.Len() != len(vecs) {
			t.Fatalf("Len = %d, want %d", tr.Len(), len(vecs))
		}
		for _, k := range []int{1, 3, 10, 400, 1000} {
			for trial := 0; trial < 10; trial++ {
				q := randVecs(rng, 1, dim)[0]
				got := tr.NearestK(q, k)
				want := vecBruteNearestK(metric.L2{}, vecs, q, k, nil)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("dim %d k %d: NearestK diverged\n got %v\nwant %v", dim, k, got, want)
				}
			}
		}
		// Filtered form: only even ids visible (the MVCC accept hook).
		even := func(id int) bool { return id%2 == 0 }
		q := randVecs(rng, 1, dim)[0]
		got, st := tr.NearestKFilterStats(q, 7, even)
		want := vecBruteNearestK(metric.L2{}, vecs, q, 7, even)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("dim %d filtered: diverged\n got %v\nwant %v", dim, got, want)
		}
		if st.Verifications == 0 || st.Candidates == 0 {
			t.Fatalf("stats not counted: %+v", st)
		}
	}
}

// TestVPTreeNearestAcceptOnlyAdmitted pins that NEAREST consults the
// accept hook only for nodes that pass the admission test — the best
// list is short, or the node is no farther than its k-th entry — so a
// snapshot's visibility lookup is not paid for every visited node. The
// hook accepts everything and mirrors the best list it implies: every
// call must be admissible against that mirror, and the result and
// counters must not depend on the hook.
func TestVPTreeNearestAcceptOnlyAdmitted(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	vecs := randVecs(rng, 2000, 4)
	tr := NewVPTree(metric.L2{})
	for i, v := range vecs {
		tr.Insert(i, v)
	}
	for _, k := range []int{1, 10} {
		q := randVecs(rng, 1, 4)[0]
		var mirror []Match
		calls := 0
		accept := func(id int) bool {
			calls++
			d := metric.L2{}.Dist(q, vecs[id])
			if len(mirror) == k && d > mirror[k-1].Dist {
				t.Fatalf("k %d: accept(%d) consulted at distance %g beyond the k-th best %g", k, id, d, mirror[k-1].Dist)
			}
			mirror = PushBestK(mirror, Match{ID: id, Dist: d}, k)
			return true
		}
		got, st := tr.NearestKFilterStats(q, k, accept)
		want, wantSt := tr.NearestKFilterStats(q, k, nil)
		if !reflect.DeepEqual(got, want) || st != wantSt {
			t.Fatalf("k %d: hook changed the answer: %v %+v, want %v %+v", k, got, st, want, wantSt)
		}
		if calls >= st.Verifications/2 {
			t.Fatalf("k %d: accept consulted %d times for %d visited nodes", k, calls, st.Verifications)
		}
	}
}

// TestVPTreeVecRangeOracle pins WITHIN answers (as canonical id-sorted
// sets) against brute force across radius sweeps, including radius 0
// and a radius covering everything.
func TestVPTreeVecRangeOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, dim := range []int{2, 8, 64} {
		vecs := randVecs(rng, 300, dim)
		tr := NewVPTree(metric.L2{})
		for i, v := range vecs {
			tr.Insert(i, v)
		}
		for _, r := range []float64{0, 0.5, 1, 2, 4, 1e9} {
			for trial := 0; trial < 5; trial++ {
				q := randVecs(rng, 1, dim)[0]
				got := sortByID(tr.Range(q, r))
				want := vecBruteRange(metric.L2{}, vecs, q, r)
				if len(got) == 0 && len(want) == 0 {
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("dim %d r %v: Range diverged (%d vs %d matches)", dim, r, len(got), len(want))
				}
			}
		}
		// Exact-boundary radius: querying a stored vector at the distance
		// of another stored vector must include the boundary point
		// (inclusive pruning bounds).
		q := vecs[0]
		d := metric.L2{}.Dist(q, vecs[1])
		got := sortByID(tr.Range(q, d))
		found := false
		for _, m := range got {
			if m.ID == 1 {
				found = true
			}
		}
		if !found {
			t.Fatalf("dim %d: boundary match at exact radius %v lost", dim, d)
		}
	}
}

// TestVPTreeVecIterDeterminism pins the streaming iterator: same
// matches as RangeStats, deterministic order across runs, early
// abandonment legal.
func TestVPTreeVecIterDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	vecs := randVecs(rng, 200, 8)
	tr := NewVPTree(metric.L2{})
	for i, v := range vecs {
		tr.Insert(i, v)
	}
	q := randVecs(rng, 1, 8)[0]
	full, fullStats := tr.RangeStats(q, 3)
	var run1 []Match
	it := tr.RangeIter(q, 3)
	for m, ok := it.Next(); ok; m, ok = it.Next() {
		run1 = append(run1, m)
	}
	if !reflect.DeepEqual(run1, full) {
		t.Fatalf("iterator emission diverged from RangeStats")
	}
	if it.Stats() != fullStats {
		t.Fatalf("iterator stats %+v != %+v", it.Stats(), fullStats)
	}
	var run2 []Match
	it2 := tr.RangeIter(q, 3)
	for m, ok := it2.Next(); ok; m, ok = it2.Next() {
		run2 = append(run2, m)
	}
	if !reflect.DeepEqual(run1, run2) {
		t.Fatalf("iterator order not deterministic across runs")
	}
	// Pull only one match: traversal must stop early (no crash, stats
	// bounded by the full walk).
	it3 := tr.RangeIter(q, 3)
	if _, ok := it3.Next(); len(full) > 0 && !ok {
		t.Fatal("expected at least one match")
	}
	if it3.Stats().Candidates > fullStats.Candidates {
		t.Fatalf("early-abandoned iterator did more work than full walk")
	}
	// Negative radius: empty stream.
	it4 := tr.RangeIter(q, -1)
	if _, ok := it4.Next(); ok {
		t.Fatal("negative radius must yield no matches")
	}
}

// TestVPTreeVecConcurrentReaders exercises the single-writer /
// lock-free-reader contract under -race: readers must always see a
// subset-consistent tree (every answer correct for some insert prefix).
func TestVPTreeVecConcurrentReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	vecs := randVecs(rng, 500, 8)
	queries := randVecs(rng, 8, 8)
	tr := NewVPTree(metric.L2{})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(q metric.Vector) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				got := tr.NearestK(q, 3)
				for i := 1; i < len(got); i++ {
					if got[i-1].Dist > got[i].Dist {
						t.Errorf("unsorted best list during concurrent insert")
						return
					}
				}
				_ = tr.Range(q, 1.5)
			}
		}(queries[g%len(queries)])
	}
	for i, v := range vecs {
		tr.Insert(i, v)
	}
	close(stop)
	wg.Wait()
	// Quiesced: answers must now equal brute force exactly.
	for _, q := range queries {
		got := tr.NearestK(q, 4)
		want := vecBruteNearestK(metric.L2{}, vecs, q, 4, nil)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("post-quiesce NearestK diverged\n got %v\nwant %v", got, want)
		}
	}
}

// TestVPTreeVecEdgeCases covers the empty tree, k<=0, duplicate
// vectors and single-element trees.
func TestVPTreeVecEdgeCases(t *testing.T) {
	tr := NewVPTree(metric.L2{})
	if got := tr.NearestK(metric.Vector{1}, 3); len(got) != 0 {
		t.Fatalf("empty tree NearestK = %v", got)
	}
	if got := tr.Range(metric.Vector{1}, 10); len(got) != 0 {
		t.Fatalf("empty tree Range = %v", got)
	}
	tr.Insert(0, metric.Vector{1, 0})
	tr.Insert(1, metric.Vector{1, 0}) // duplicate vector, distinct id
	tr.Insert(2, metric.Vector{1, 0})
	got := tr.NearestK(metric.Vector{1, 0}, 5)
	if len(got) != 3 || got[0].ID != 0 || got[1].ID != 1 || got[2].ID != 2 {
		t.Fatalf("duplicate handling: %v", got)
	}
	for _, m := range got {
		if m.Dist != 0 {
			t.Fatalf("duplicate distance %v, want 0", m.Dist)
		}
	}
	if got := tr.NearestK(metric.Vector{1, 0}, 0); len(got) != 0 {
		t.Fatalf("k=0 must return nothing, got %v", got)
	}
	if tr.Metric().Name() != "l2" {
		t.Fatalf("Metric() = %q", tr.Metric().Name())
	}
}
