package relation

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/index"
	"repro/internal/metric"
)

// vecHit is one (id, distance) answer, compared bit for bit.
type vecHit struct {
	id int
	d  float64
}

func (h vecHit) String() string { return fmt.Sprintf("%d@%x", h.id, math.Float64bits(h.d)) }

func byDistID(a, b vecHit) int {
	if c := cmp.Compare(a.d, b.d); c != 0 {
		return c
	}
	return cmp.Compare(a.id, b.id)
}

// bruteVec is the reference: every vector-bearing row visible in snaps,
// measured with Dist (query first), in id order.
func bruteVec(m metric.Distance, snaps []*Snapshot, q metric.Vector) []vecHit {
	var all []vecHit
	for _, s := range snaps {
		for _, t := range s.Tuples() {
			if t.Vec != nil {
				all = append(all, vecHit{t.ID, m.Dist(q, t.Vec)})
			}
		}
	}
	slices.SortFunc(all, func(a, b vecHit) int { return cmp.Compare(a.id, b.id) })
	return all
}

// walkFunc is one view walk with the query fixed: Snapshot.VecWalk, or
// VecView.walk over a given view.
type walkFunc func(bound *float64, emit func(rows []*Row, dists []float64)) index.Stats

func snapWalk(m metric.Distance, s *Snapshot, q metric.Vector) walkFunc {
	return func(bound *float64, emit func([]*Row, []float64)) index.Stats {
		st, _ := s.VecWalk(context.Background(), m, q, bound, emit)
		return st
	}
}

// viewRange runs a range walk over every snapshot's view and returns
// the hits in id order.
func viewRange(m metric.Distance, snaps []*Snapshot, q metric.Vector, r float64) []vecHit {
	var out []vecHit
	for _, s := range snaps {
		bound := r
		s.VecWalk(context.Background(), m, q, &bound, func(rows []*Row, ds []float64) {
			for i, row := range rows {
				out = append(out, vecHit{row.ID, ds[i]})
			}
		})
	}
	slices.SortFunc(out, func(a, b vecHit) int { return cmp.Compare(a.id, b.id) })
	return out
}

// nearestK is a NEAREST k over one walk, as the NEAREST operator runs
// it: a (dist, id) best list whose k-th distance becomes the bound.
func nearestK(walk walkFunc, k int) ([]vecHit, index.Stats) {
	var best []vecHit
	bound := math.Inf(1)
	st := walk(&bound, func(rows []*Row, ds []float64) {
		for i, row := range rows {
			best = append(best, vecHit{row.ID, ds[i]})
		}
		slices.SortFunc(best, byDistID)
		if len(best) >= k {
			best = best[:k]
			bound = best[k-1].d
		}
	})
	return best, st
}

// viewNearest runs nearestK over every snapshot's view and merges the
// per-snapshot lists.
func viewNearest(m metric.Distance, snaps []*Snapshot, q metric.Vector, k int) []vecHit {
	var out []vecHit
	for _, s := range snaps {
		best, _ := nearestK(snapWalk(m, s, q), k)
		out = append(out, best...)
	}
	slices.SortFunc(out, byDistID)
	return out[:min(k, len(out))]
}

// clusteredVec draws a vector near one of a few centres, of dimension 3
// or 5, or nil for about one row in eight. Mixed dimensions compare as
// zero-padded, so the view must bound them like any other.
func clusteredVec(rng *rand.Rand) metric.Vector {
	if rng.Intn(8) == 0 {
		return nil
	}
	v := make(metric.Vector, 3+2*rng.Intn(2))
	c := float32(rng.Intn(4)) * 3
	for j := range v {
		v[j] = c + float32(rng.NormFloat64())
	}
	return v
}

// TestVecViewMatchesBruteForce: WITHIN at radii from 0 to past the
// data's diameter and NEAREST with k from 1 to more than the row count
// return, through the view, exactly the brute-force answers with
// identical distance bits (the no-false-dismissal guarantee), while the
// view carries inserted rows, tombstones, nil vectors and mixed
// dimensions, across a rebuild and a compaction. Snapshots taken before
// a rebuild keep answering from their own view.
func TestVecViewMatchesBruteForce(t *testing.T) {
	l2, _ := metric.Lookup("l2")
	// One relation: shards=1.
	t.Run("shards=1", func(t *testing.T) {
		rng := rand.New(rand.NewSource(42))
		tab := New("v")
		insert := func(n int) {
			rows := make([]InsertRow, n)
			for i := range rows {
				rows[i] = InsertRow{Seq: fmt.Sprint(i), Vec: clusteredVec(rng)}
			}
			tab.InsertBatch(rows)
		}
		insert(600)
		// Duplicates of row 0's vector make exact distance ties.
		if t0, ok := tab.Tuple(0); ok && t0.Vec != nil {
			for i := 0; i < 3; i++ {
				tab.InsertBatch([]InsertRow{{Vec: t0.Vec}})
			}
		}
		tab.VecView(l2)

		check := func(stage string, snaps []*Snapshot) {
			t.Helper()
			queries := []metric.Vector{{0, 0, 0}, {3, 3, 3, 3, 3}, {9, 9, 9}, {-4, 20, 1}}
			for _, s := range snaps {
				for _, tu := range s.Tuples()[:min(3, s.Len())] {
					if tu.Vec != nil {
						queries = append(queries, tu.Vec)
					}
				}
			}
			for _, q := range queries {
				all := bruteVec(l2, snaps, q)
				diameter := 0.0
				for _, h := range all {
					diameter = max(diameter, h.d)
				}
				for _, r := range []float64{0, 0.5, 1, 2, 4, 8, diameter, 2*diameter + 1} {
					var want []vecHit
					for _, h := range all {
						if h.d <= r {
							want = append(want, h)
						}
					}
					if got := viewRange(l2, snaps, q, r); fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("%s: WITHIN %g of %v: view %d hits, brute force %d\n%v\n%v", stage, r, q, len(got), len(want), got, want)
					}
				}
				slices.SortFunc(all, byDistID)
				for _, k := range []int{1, 2, 3, 10, 50, len(all), len(all) + 7} {
					want := all[:min(k, len(all))]
					if got := viewNearest(l2, snaps, q, k); fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("%s: NEAREST %d to %v:\nview  %v\nbrute %v", stage, k, q, got, want)
					}
				}
			}
		}
		check("built", []*Snapshot{tab.Snapshot()})

		// Tombstones and inserted rows: deletes stay in the view
		// until compaction; inserts land in their leaves' overflow.
		for id := 0; id < 600; id += 7 {
			tab.Delete(id)
		}
		insert(20)
		before := []*Snapshot{tab.Snapshot()}
		check("inserts and tombstones", before)
		views := func(snaps []*Snapshot) []*VecView {
			var vs []*VecView
			for _, s := range snaps {
				vs = append(vs, s.h.vvs["l2"])
			}
			return vs
		}
		if views(before)[0].added == 0 {
			t.Fatal("no inserted rows in the view; the test lost its point")
		}

		// Insert more rows than every view was built over: the insert
		// paths install rebuilt views, and the earlier snapshots keep
		// answering from theirs.
		insert(700)
		after := []*Snapshot{tab.Snapshot()}
		rebuilt := false
		for i, v := range views(after) {
			if v != views(before)[i] {
				rebuilt = true
			}
		}
		if !rebuilt {
			t.Fatal("no view was rebuilt; the test lost its point")
		}
		check("rebuilt", after)
		check("snapshot before the rebuild", before)

		tab.Compact()
		for i, v := range views([]*Snapshot{tab.Snapshot()}) {
			if v == views(after)[i] || v.added != 0 {
				t.Fatalf("view %d: compaction kept the old view or its inserted rows", i)
			}
		}
		check("compacted", []*Snapshot{tab.Snapshot()})
	})
}

// TestVecViewWorkRepeats: the build is deterministic, so two views over
// the same rows do exactly the same work for the same query.
func TestVecViewWorkRepeats(t *testing.T) {
	l2, _ := metric.Lookup("l2")
	rng := rand.New(rand.NewSource(5))
	r := New("v")
	for i := 0; i < 2000; i++ {
		r.InsertOne(InsertRow{Vec: clusteredVec(rng)})
	}
	snap := r.Snapshot()
	q := metric.Vector{3, 3, 3}
	a, b := buildVecView(l2, 0, snap.h.rows), buildVecView(l2, 0, snap.h.rows)
	walk := func(v *VecView) walkFunc {
		return func(bound *float64, emit func([]*Row, []float64)) index.Stats {
			st, _ := v.walk(context.Background(), snap, q, bound, emit)
			return st
		}
	}
	for _, k := range []int{1, 10} {
		_, sa := nearestK(walk(a), k)
		_, sb := nearestK(walk(b), k)
		if sa != sb {
			t.Fatalf("k=%d: work differs between two builds: %+v vs %+v", k, sa, sb)
		}
	}
	ra, rb := 1.0, 1.0
	if sa, sb := walk(a)(&ra, func([]*Row, []float64) {}), walk(b)(&rb, func([]*Row, []float64) {}); sa != sb {
		t.Fatalf("range work differs between two builds: %+v vs %+v", sa, sb)
	}
}

// TestVecViewConcurrentInsertCompact runs readers against the shared
// views while a writer inserts vectors (widening the intervals the
// readers prune by), past the rebuild threshold by round 3, deletes and
// compacts: every reader's answer must equal the brute force over its
// own snapshot. Run it under -race.
func TestVecViewConcurrentInsertCompact(t *testing.T) {
	l2, _ := metric.Lookup("l2")
	// One relation: shards=1.
	t.Run("shards=1", func(t *testing.T) {
		tab := New("v")
		seed := rand.New(rand.NewSource(3))
		rows := make([]InsertRow, 200)
		for i := range rows {
			rows[i] = InsertRow{Vec: clusteredVec(seed)}
		}
		tab.InsertBatch(rows)
		tab.VecView(l2)

		done := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(done)
			rng := rand.New(rand.NewSource(4))
			for round := 0; round < 6; round++ {
				for i := 0; i < 60; i++ {
					tab.InsertBatch([]InsertRow{{Vec: clusteredVec(rng)}})
				}
				for i := 0; i < 20; i++ {
					tab.Delete(rng.Intn(200 + 60*round))
				}
				if round == 3 || round == 5 {
					tab.Compact()
				}
			}
		}()
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(10 + g)))
				// At least 20 reads, and on until the writer is done.
				for i := 0; ; i++ {
					if i >= 20 {
						select {
						case <-done:
							return
						default:
						}
					}
					snaps := []*Snapshot{tab.Snapshot()}
					q := metric.Vector{float32(rng.Intn(4)) * 3, 1, 2}
					all := bruteVec(l2, snaps, q)
					var want []vecHit
					for _, h := range all {
						if h.d <= 3 {
							want = append(want, h)
						}
					}
					if got := viewRange(l2, snaps, q, 3); fmt.Sprint(got) != fmt.Sprint(want) {
						t.Errorf("reader %d: WITHIN 3: view %d hits, brute force %d", g, len(got), len(want))
						return
					}
					slices.SortFunc(all, byDistID)
					want = all[:min(5, len(all))]
					if got := viewNearest(l2, snaps, q, 5); fmt.Sprint(got) != fmt.Sprint(want) {
						t.Errorf("reader %d: NEAREST 5: view %v, brute force %v", g, got, want)
						return
					}
				}
			}(g)
		}
		wg.Wait()
	})
}

// TestVecViewLayout: every leaf but the last holds vecLeaf built rows,
// each inner child's built rows are no farther from the vantage than its
// outer sibling's, and the partition is balanced. After inserts short of
// a rebuild, every row of a node, built or inserted, still lies inside
// the node's interval around its parent's vantage, and a leaf's built
// rows ascend by pivot, their distance to the leaf's parent vantage: the
// invariants the walk's pruning rests on.
func TestVecViewLayout(t *testing.T) {
	l2, _ := metric.Lookup("l2")
	rng := rand.New(rand.NewSource(8))
	for _, n := range []int{0, 1, vecLeaf, vecLeaf + 1, 1000, 4133} {
		r := New("v")
		for r.Stats().VecCount < n {
			r.InsertOne(InsertRow{Vec: clusteredVec(rng)})
		}
		v := r.VecView(l2)
		leaves, depth := 0, 0
		var visit func(i int32, d int)
		visit = func(i int32, d int) {
			nd := &v.nodes[i]
			if nd.left == 0 {
				leaves++
				depth = max(depth, d)
				if size := int(nd.hi - nd.lo); size != vecLeaf && int(nd.hi) != len(v.rows) {
					t.Errorf("n=%d: leaf [%d,%d) holds %d rows", n, nd.lo, nd.hi, size)
				}
				return
			}
			in, out := &v.nodes[nd.left], &v.nodes[nd.left+1]
			_, imax := in.bounds()
			omin, _ := out.bounds()
			if in.hi != out.lo || in.lo != nd.lo || out.hi != nd.hi || imax > omin {
				t.Errorf("n=%d: node %d splits badly: inner %+v outer %+v", n, i, *in, *out)
			}
			visit(nd.left, d+1)
			visit(nd.left+1, d+1)
		}
		visit(0, 0)
		if want := max(1, (n+vecLeaf-1)/vecLeaf); leaves != want {
			t.Errorf("n=%d: %d leaves, want %d", n, leaves, want)
		}
		if leaves > 1 && 1<<(depth-1) >= leaves {
			t.Errorf("n=%d: %d leaves at depth %d", n, leaves, depth)
		}

		for i := 0; i < max(vecLeaf, n)*3/4; i++ {
			r.InsertOne(InsertRow{Vec: clusteredVec(rng)})
		}
		if r.VecView(l2) != v {
			t.Fatalf("n=%d: the view was rebuilt before the inserts outnumbered its rows", n)
		}
		// covered checks the rows of node i against the vantage above it.
		var covered func(i int32, vantage metric.Vector)
		covered = func(i int32, vantage metric.Vector) {
			nd := &v.nodes[i]
			vecs := slices.Clone(v.vecs[nd.lo:nd.hi])
			for l := nd.lo / vecLeaf; l <= max(nd.lo, nd.hi-1)/vecLeaf; l++ {
				if o := v.over[l].Load(); o != nil {
					vecs = append(vecs, o.vecs...)
				}
			}
			dmin, dmax := nd.bounds()
			for j, x := range vecs {
				d := 0.0
				if vantage != nil {
					d = l2.Dist(vantage, x)
				}
				if i != 0 && (d < dmin || d > dmax) {
					t.Fatalf("n=%d: node %d: a row at %g from the parent vantage, outside [%g, %g]", n, i, d, dmin, dmax)
				}
				if lo := int(nd.lo); nd.left == 0 && j < int(nd.hi)-lo && (v.pivot[lo+j] != d || j > 0 && v.pivot[lo+j-1] > d) {
					t.Fatalf("n=%d: leaf %d: built row %d has pivot %g, distance %g to the parent vantage, or pivots descend", n, i, j, v.pivot[lo+j], d)
				}
			}
			if nd.left != 0 {
				covered(nd.left, nd.vantage)
				covered(nd.left+1, nd.vantage)
			}
		}
		covered(0, nil)
		if v.added == 0 {
			t.Fatalf("n=%d: no inserted rows in the view", n)
		}
	}
}

// TestVecWalkOldSnapshot: a snapshot taken before its relation's view
// was built walks its own arena, not the view installed later, whose
// built rows postdate it.
func TestVecWalkOldSnapshot(t *testing.T) {
	l2, _ := metric.Lookup("l2")
	rng := rand.New(rand.NewSource(9))
	r := New("v")
	for i := 0; i < 300; i++ {
		r.InsertOne(InsertRow{Vec: clusteredVec(rng)})
	}
	old := r.Snapshot()
	for i := 0; i < 300; i++ {
		r.InsertOne(InsertRow{Vec: clusteredVec(rng)})
	}
	r.VecView(l2)
	if old.h.vvs["l2"] != nil || r.Snapshot().h.vvs["l2"] == nil {
		t.Fatal("the view is not installed after the old snapshot only; the test lost its point")
	}
	for _, q := range []metric.Vector{{0, 0, 0}, {3, 3, 3, 3, 3}, {9, 9, 9}} {
		all := bruteVec(l2, []*Snapshot{old}, q)
		if got := viewRange(l2, []*Snapshot{old}, q, math.MaxFloat64); fmt.Sprint(got) != fmt.Sprint(all) {
			t.Fatalf("WITHIN the diameter of %v: %d hits at the old snapshot, want %d", q, len(got), len(all))
		}
		slices.SortFunc(all, byDistID)
		if got := viewNearest(l2, []*Snapshot{old}, q, 10); fmt.Sprint(got) != fmt.Sprint(all[:10]) {
			t.Fatalf("NEAREST 10 to %v at the old snapshot:\nview  %v\nbrute %v", q, got, all[:10])
		}
	}
}

// flatTestMetric is an unregistered metric that is no Pruner: its view
// is flat.
type flatTestMetric struct{}

func (flatTestMetric) Name() string { return "test-flat" }

func (flatTestMetric) Dist(a, b metric.Vector) float64 { return metric.L2{}.Dist(a, b) }

// viewDiff describes the first field in which two views differ, or
// returns "" when they agree field for field: node ranges, children,
// intervals and vantage bits, row order (by id), vector bits, pivots,
// leaf overflows and the insert count.
func viewDiff(a, b *VecView) string {
	bits := func(v metric.Vector) []uint32 {
		out := make([]uint32, len(v))
		for i, x := range v {
			out[i] = math.Float32bits(x)
		}
		return out
	}
	if a.m.Name() != b.m.Name() || a.gen != b.gen || (a.p == nil) != (b.p == nil) || a.added != b.added {
		return fmt.Sprintf("metric %s/%d/%v/%d vs %s/%d/%v/%d", a.m.Name(), a.gen, a.p != nil, a.added, b.m.Name(), b.gen, b.p != nil, b.added)
	}
	if len(a.nodes) != len(b.nodes) || len(a.rows) != len(b.rows) || len(a.over) != len(b.over) {
		return fmt.Sprintf("%d nodes, %d rows, %d leaves vs %d, %d, %d", len(a.nodes), len(a.rows), len(a.over), len(b.nodes), len(b.rows), len(b.over))
	}
	for i := range a.nodes {
		x, y := &a.nodes[i], &b.nodes[i]
		if x.lo != y.lo || x.hi != y.hi || x.left != y.left || x.dmin != y.dmin || x.dmax != y.dmax ||
			(x.vantage == nil) != (y.vantage == nil) || !slices.Equal(bits(x.vantage), bits(y.vantage)) {
			return fmt.Sprintf("node %d: %+v vs %+v", i, *x, *y)
		}
	}
	for i := range a.rows {
		if a.rows[i].ID != b.rows[i].ID || math.Float64bits(a.pivot[i]) != math.Float64bits(b.pivot[i]) ||
			!slices.Equal(bits(a.vecs[i]), bits(b.vecs[i])) || cap(a.vecs[i]) != cap(b.vecs[i]) {
			return fmt.Sprintf("row %d: id %d pivot %v vs id %d pivot %v", i, a.rows[i].ID, a.pivot[i], b.rows[i].ID, b.pivot[i])
		}
	}
	ids := func(o *vecOver) (out []int) {
		if o != nil {
			for _, row := range o.rows {
				out = append(out, row.ID)
			}
		}
		return out
	}
	for l := range a.over {
		x, y := a.over[l].Load(), b.over[l].Load()
		if (x == nil) != (y == nil) || !slices.Equal(ids(x), ids(y)) {
			return fmt.Sprintf("leaf %d overflows differ", l)
		}
	}
	return ""
}

// TestVecViewBuildDeterministic: a view built at GOMAXPROCS 1, 2 and 4
// is the same view, field for field, for l2, for cosine's chord, for a
// flat view and for the rebuild an insert makes after a doubling, over
// mixed dimensions and rows without a vector.
func TestVecViewBuildDeterministic(t *testing.T) {
	l2, _ := metric.Lookup("l2")
	cosine, _ := metric.Lookup("cosine")
	rng := rand.New(rand.NewSource(47))
	rows := make([]InsertRow, 3001)
	for i := range rows {
		rows[i] = InsertRow{Vec: clusteredVec(rng)}
	}
	extra := make([]InsertRow, 3100)
	for i := range extra {
		extra[i] = InsertRow{Vec: clusteredVec(rng)}
	}
	r := New("v")
	r.InsertBatch(rows)
	arena := r.Snapshot().h.rows
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, m := range []metric.Distance{l2, cosine, flatTestMetric{}} {
		for _, n := range []int{0, 1, vecLeaf + 1, 100, len(arena)} {
			var want *VecView
			for _, procs := range []int{1, 2, 4} {
				runtime.GOMAXPROCS(procs)
				v := buildVecView(m, 0, arena[:n])
				if want == nil {
					want = v
				} else if d := viewDiff(want, v); d != "" {
					t.Fatalf("%s, %d rows: GOMAXPROCS %d builds another view: %s", m.Name(), n, procs, d)
				}
			}
		}
	}
	// The rebuild after a doubling: the insert that brings the inserted
	// rows past the built ones installs a new view.
	var want *VecView
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		r := New("v")
		r.InsertBatch(rows)
		built := r.VecView(l2)
		for _, in := range extra {
			r.InsertOne(in)
		}
		v := r.VecView(l2)
		if v == built || v.added == 0 {
			t.Fatalf("GOMAXPROCS %d: no rebuild, or none followed by inserts; the test lost its point", procs)
		}
		if want == nil {
			want = v
		} else if d := viewDiff(want, v); d != "" {
			t.Fatalf("rebuild after a doubling at GOMAXPROCS %d differs: %s", procs, d)
		}
	}
}

// TestVecWalkCancel: a view walk whose context is cancelled from inside
// its first leaf visits no further node. Every leaf is visited by a
// walk with an unbounded bound (a NEAREST before its list fills); the
// cancelled walk returns the context's error, having emitted at most
// that one leaf's rows and visited fewer nodes than the whole walk.
func TestVecWalkCancel(t *testing.T) {
	l2, _ := metric.Lookup("l2")
	rng := rand.New(rand.NewSource(49))
	r := New("v")
	rows := make([]InsertRow, 4000)
	for i := range rows {
		rows[i] = InsertRow{Vec: clusteredVec(rng)}
	}
	r.InsertBatch(rows)
	r.VecView(l2)
	snap := r.Snapshot()
	q := metric.Vector{3, 3, 3}
	walk := func(ctx context.Context, emit func()) (index.Stats, int, error) {
		n, bound := 0, math.Inf(1)
		st, err := snap.VecWalk(ctx, l2, q, &bound, func(rows []*Row, _ []float64) {
			n += len(rows)
			emit()
		})
		return st, n, err
	}
	full, all, err := walk(context.Background(), func() {})
	if err != nil || all != snap.Stats().VecCount {
		t.Fatalf("whole walk: %d rows, %v", all, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	st, n, err := walk(ctx, cancel)
	if err != context.Canceled {
		t.Fatalf("cancelled walk returned %v, want %v", err, context.Canceled)
	}
	if n == 0 || n > vecLeaf || st.Nodes >= full.Nodes {
		t.Fatalf("cancelled walk emitted %d rows over %d nodes; the whole walk visits %d nodes, a leaf holds at most %d rows",
			n, st.Nodes, full.Nodes, vecLeaf)
	}
	// A context done before the walk starts stops it before the root.
	if st, n, err := walk(ctx, func() {}); err != context.Canceled || n != 0 || st.Nodes != 0 {
		t.Fatalf("walk under a done context: %d rows, %d nodes, %v", n, st.Nodes, err)
	}
}
