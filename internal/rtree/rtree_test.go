package rtree

import (
	"math"
	"math/big"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

func randPoints(seed int64, n, dim int) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, n)
	for i := range out {
		p := make([]float64, dim)
		for d := range p {
			p[d] = rng.Float64()*200 - 100
		}
		out[i] = p
	}
	return out
}

func buildTree(t *testing.T, pts [][]float64, maxEntries int) *Tree {
	t.Helper()
	tr, err := New(len(pts[0]), maxEntries)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		if err := tr.Insert(i, p); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

func bruteRange(pts [][]float64, q Rect, tf *Affine) []int {
	var out []int
	for i, p := range pts {
		x := p
		if tf != nil {
			x = tf.Apply(p)
		}
		if q.Contains(x) {
			out = append(out, i)
		}
	}
	sort.Ints(out)
	return out
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestInvariantsAfterInserts(t *testing.T) {
	for _, n := range []int{0, 1, 5, 33, 200, 1500} {
		pts := randPoints(int64(n)+1, n, 4)
		tr, err := New(4, 8)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range pts {
			if err := tr.Insert(i, p); err != nil {
				t.Fatal(err)
			}
		}
		if err := tr.checkInvariants(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if tr.Len() != n {
			t.Fatalf("Len = %d, want %d", tr.Len(), n)
		}
	}
}

func TestRangeMatchesBruteForce(t *testing.T) {
	pts := randPoints(7, 2000, 3)
	tr := buildTree(t, pts, 16)
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 50; trial++ {
		lo := make([]float64, 3)
		hi := make([]float64, 3)
		for d := range lo {
			a := rng.Float64()*200 - 100
			b := rng.Float64()*200 - 100
			lo[d], hi[d] = math.Min(a, b), math.Max(a, b)
		}
		q, err := NewRect(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := tr.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteRange(pts, q, nil)
		if !sameInts(got, want) {
			t.Fatalf("trial %d: got %d ids, want %d", trial, len(got), len(want))
		}
	}
}

// TestTransformedSearchMatchesBruteForce: the pulled-back search returns
// what applying the transformation forward to every point returns, for
// positive, negative and zero stretches (a zero stretch collapses its
// dimension to the constant b: every point passes that dimension or
// none does).
func TestTransformedSearchMatchesBruteForce(t *testing.T) {
	pts := randPoints(9, 1500, 2)
	tr := buildTree(t, pts, 12)
	rng := rand.New(rand.NewSource(10))
	nonEmpty := 0
	for trial := 0; trial < 200; trial++ {
		tf := &Affine{
			A: []float64{rng.Float64()*4 - 2, rng.Float64()*4 - 2}, // negatives allowed
			B: []float64{rng.Float64()*20 - 10, rng.Float64()*20 - 10},
		}
		if trial%4 == 0 {
			tf.A[trial/4%2] = 0
		}
		lo := []float64{rng.Float64()*300 - 150, rng.Float64()*300 - 150}
		hi := []float64{lo[0] + rng.Float64()*100, lo[1] + rng.Float64()*100}
		if trial%8 == 0 { // make the collapsed dimension pass
			d := trial / 4 % 2
			lo[d], hi[d] = tf.B[d]-1, tf.B[d]+1
		}
		q, err := NewRect(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := tr.SearchTransformed(q, tf)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteRange(pts, q, tf)
		if !sameInts(got, want) {
			t.Fatalf("trial %d (A=%v): transformed search wrong: got %d want %d", trial, tf.A, len(got), len(want))
		}
		if len(want) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 50 {
		t.Fatalf("only %d of 200 trials had answers; the test is not exercising the search", nonEmpty)
	}
}

// TestBoundaryPointsKept: a point whose image lies on the query boundary
// or inside it by less than a rounding error is returned, whatever the
// roundings in pulling the boundary back (the bounds move outward, never
// inward). The image a·p + b is computed exactly in big.Float; the query
// starts at the nearest float below it, or ends at the nearest above.
func TestBoundaryPointsKept(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	exact := func(x float64) *big.Float { return new(big.Float).SetPrec(300).SetFloat64(x) }
	for trial := 0; trial < 20000; trial++ {
		a := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
		b := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
		p := rng.NormFloat64() * 100
		img := exact(a)
		img.Mul(img, exact(p)).Add(img, exact(b))
		below, acc := img.Float64()
		above := below
		if acc > 0 { // big.Above: the float is above the exact value
			below = math.Nextafter(below, math.Inf(-1))
		} else if acc < 0 {
			above = math.Nextafter(above, math.Inf(1))
		}
		tf := &Affine{A: []float64{a}, B: []float64{b}}
		tr, _ := New(1, 8)
		tr.Insert(0, []float64{p})
		for _, q := range []Rect{
			{Min: []float64{below}, Max: []float64{below + 1}},
			{Min: []float64{above - 1}, Max: []float64{above}},
		} {
			got, _, err := tr.SearchTransformed(q, tf)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != 1 {
				t.Fatalf("a=%g b=%g p=%g: image %s inside %v was dismissed", a, b, p, img.Text('g', 25), q)
			}
		}
	}
}

func angDist(x, y float64) float64 { return math.Abs(WrapAngle(x - y)) }

// TestCircularSearchMatchesBruteForce: in a circular dimension the query
// interval is an arc — it may run across the ±π seam, under a rotation, a
// reflection or a collapse — and the search returns the points whose
// rotated angle is within the arc's half-width of its centre. Points
// within 1e-9 of an arc's end are left out of the comparison: the search
// widens arcs by angleSlack.
func TestCircularSearchMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	pts := make([][]float64, 2000)
	for i := range pts {
		pts[i] = []float64{rng.Float64() * 10, rng.Float64()*2*math.Pi - math.Pi}
	}
	pts[0][1], pts[1][1] = -math.Pi, math.Pi // the seam itself, both spellings
	tr := buildTree(t, pts, 16)
	crossed := 0
	for trial := 0; trial < 300; trial++ {
		tf := &Affine{
			A:        []float64{rng.Float64()*4 - 2, []float64{1, -1, 1, 0}[trial%4]},
			B:        []float64{rng.Float64() * 2, rng.Float64()*40 - 20},
			Circular: []bool{false, true},
		}
		centre := rng.Float64()*2*math.Pi - math.Pi
		half := rng.Float64() * 1.2 * math.Pi // some arcs are the full circle
		if trial%5 == 0 {
			half = rng.Float64() * 0.2
		}
		q := Rect{Min: []float64{-5, centre - half}, Max: []float64{15, centre + half}}
		if centre-half < -math.Pi || centre+half > math.Pi {
			crossed++
		}
		got, _, err := tr.SearchTransformed(q, tf)
		if err != nil {
			t.Fatal(err)
		}
		in := map[int]bool{}
		for _, id := range got {
			in[id] = true
		}
		for id, p := range pts {
			img := tf.Apply(p)
			if img[0] < -5 || img[0] > 15 {
				if in[id] {
					t.Fatalf("trial %d: id %d fails the linear dimension but was returned", trial, id)
				}
				continue
			}
			d := angDist(img[1], centre) // at most π, so half >= π accepts everything
			if math.Abs(d-half) < 1e-9 {
				continue
			}
			if want := d <= half; want != in[id] {
				t.Fatalf("trial %d (a=%g b=%g): id %d at angle %g, image %g, distance %g from centre %g, half-width %g: returned=%v",
					trial, tf.A[1], tf.B[1], id, p[1], img[1], d, centre, half, in[id])
			}
		}
	}
	if crossed < 50 {
		t.Fatalf("only %d arcs crossed the seam", crossed)
	}
}

// TestSeamArcPrunes: an arc across the seam is searched as an arc, not
// widened to the whole circle: the search visits a fraction of the tree.
func TestSeamArcPrunes(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	pts := make([][]float64, 4000)
	for i := range pts {
		pts[i] = []float64{rng.Float64()*2*math.Pi - math.Pi}
	}
	tr := buildTree(t, pts, 16)
	tf := &Affine{A: []float64{1}, B: []float64{0}, Circular: []bool{true}}
	q := Rect{Min: []float64{math.Pi - 0.05}, Max: []float64{math.Pi + 0.05}}
	got, st, err := tr.SearchTransformed(q, tf)
	if err != nil {
		t.Fatal(err)
	}
	all, stAll, err := tr.SearchTransformed(Rect{Min: []float64{-math.Pi}, Max: []float64{math.Pi}}, tf)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(pts) {
		t.Fatalf("full circle returned %d of %d", len(all), len(pts))
	}
	if len(got) == 0 || len(got) > len(pts)/20 {
		t.Errorf("arc of 0.1 rad returned %d of %d points", len(got), len(pts))
	}
	if st.NodeAccesses*5 > stAll.NodeAccesses {
		t.Errorf("seam arc visited %d nodes, full circle %d — not pruned", st.NodeAccesses, stAll.NodeAccesses)
	}
}

func TestIdentityTransformSameAccesses(t *testing.T) {
	// The companion's claim behind Figures 8/9: identity-transformed
	// search touches exactly the same nodes as the plain search.
	pts := randPoints(11, 3000, 4)
	tr := buildTree(t, pts, 16)
	q, _ := NewRect([]float64{-20, -20, -20, -20}, []float64{20, 20, 20, 20})
	plain, st1, err := tr.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	tfed, st2, err := tr.SearchTransformed(q, Identity(4))
	if err != nil {
		t.Fatal(err)
	}
	if !sameInts(plain, tfed) {
		t.Fatal("identity transform changed the answers")
	}
	if st1.NodeAccesses != st2.NodeAccesses {
		t.Errorf("node accesses differ: %d vs %d", st1.NodeAccesses, st2.NodeAccesses)
	}
}

func TestNearestKMatchesBruteForce(t *testing.T) {
	pts := randPoints(13, 1200, 3)
	tr := buildTree(t, pts, 16)
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 30; trial++ {
		q := []float64{rng.Float64()*200 - 100, rng.Float64()*200 - 100, rng.Float64()*200 - 100}
		for _, k := range []int{1, 5, 17} {
			got, _, err := tr.NearestK(q, k, nil)
			if err != nil {
				t.Fatal(err)
			}
			type nd struct {
				id int
				d  float64
			}
			all := make([]nd, len(pts))
			for i, p := range pts {
				all[i] = nd{i, math.Sqrt(sqDist(p, q))}
			}
			sort.Slice(all, func(i, j int) bool { return all[i].d < all[j].d })
			if len(got) != k {
				t.Fatalf("k=%d: got %d results", k, len(got))
			}
			for i := range got {
				if math.Abs(got[i].Dist-all[i].d) > 1e-9 {
					t.Fatalf("k=%d result %d: dist %g, want %g", k, i, got[i].Dist, all[i].d)
				}
			}
		}
	}
}

func TestNearestKTransformed(t *testing.T) {
	pts := randPoints(15, 800, 2)
	tr := buildTree(t, pts, 8)
	q := []float64{1, 1}
	for _, tf := range []*Affine{
		{A: []float64{-1, 2}, B: []float64{5, -3}},
		{A: []float64{0, -0.5}, B: []float64{4, 2}}, // first dimension collapses to 4
	} {
		got, _, err := tr.NearestK(q, 7, tf)
		if err != nil {
			t.Fatal(err)
		}
		type nd struct {
			id int
			d  float64
		}
		all := make([]nd, len(pts))
		for i, p := range pts {
			all[i] = nd{i, math.Sqrt(sqDist(tf.Apply(p), q))}
		}
		sort.Slice(all, func(i, j int) bool { return all[i].d < all[j].d })
		if len(got) != 7 {
			t.Fatalf("A=%v: %d results, want 7", tf.A, len(got))
		}
		for i := range got {
			if math.Abs(got[i].Dist-all[i].d) > 1e-9 {
				t.Fatalf("A=%v result %d: dist %g, want %g", tf.A, i, got[i].Dist, all[i].d)
			}
		}
	}
}

func TestSearchEmptyTree(t *testing.T) {
	tr, _ := New(2, 8)
	q, _ := NewRect([]float64{0, 0}, []float64{1, 1})
	got, _, err := tr.Search(q)
	if err != nil || got != nil {
		t.Errorf("empty search = %v, %v", got, err)
	}
	nn, _, err := tr.NearestK([]float64{0, 0}, 3, nil)
	if err != nil || nn != nil {
		t.Errorf("empty NN = %v, %v", nn, err)
	}
}

func TestDimensionErrors(t *testing.T) {
	if _, err := New(0, 8); err == nil {
		t.Error("New(0) succeeded")
	}
	if _, err := New(2, 3); err == nil {
		t.Error("New with maxEntries 3 succeeded")
	}
	tr, _ := New(2, 8)
	if err := tr.Insert(0, []float64{1}); err == nil {
		t.Error("Insert with wrong dim succeeded")
	}
	q, _ := NewRect([]float64{0}, []float64{1})
	if _, _, err := tr.Search(q); err == nil {
		t.Error("Search with wrong dim succeeded")
	}
	if _, _, err := tr.NearestK([]float64{0}, 1, nil); err == nil {
		t.Error("NearestK with wrong dim succeeded")
	}
	tr.Insert(0, []float64{0, 0})
	q2, _ := NewRect([]float64{0, 0}, []float64{1, 1})
	bad := &Affine{A: []float64{1}, B: []float64{0}}
	if _, _, err := tr.SearchTransformed(q2, bad); err == nil {
		t.Error("bad affine accepted")
	}
}

func TestNewRectValidation(t *testing.T) {
	if _, err := NewRect([]float64{1}, []float64{0}); err == nil {
		t.Error("inverted rect accepted")
	}
	if _, err := NewRect([]float64{0, 0}, []float64{1}); err == nil {
		t.Error("dim mismatch accepted")
	}
}

func TestRectOps(t *testing.T) {
	r, _ := NewRect([]float64{0, 0}, []float64{2, 4})
	if got := r.Area(); got != 8 {
		t.Errorf("Area = %g", got)
	}
	if got := r.Margin(); got != 6 {
		t.Errorf("Margin = %g", got)
	}
	o, _ := NewRect([]float64{1, 1}, []float64{3, 3})
	if got := r.OverlapArea(o); got != 2 {
		t.Errorf("OverlapArea = %g", got)
	}
	if !r.Overlaps(o) {
		t.Error("Overlaps = false")
	}
	e := r.Enlarged(o)
	if e.Max[0] != 3 || e.Max[1] != 4 {
		t.Errorf("Enlarged = %+v", e)
	}
	if got := r.Enlargement(o); got != 12-8 {
		t.Errorf("Enlargement = %g", got)
	}
	c := r.Center()
	if c[0] != 1 || c[1] != 2 {
		t.Errorf("Center = %v", c)
	}
	if !r.Contains([]float64{1, 1}) || r.Contains([]float64{3, 3}) {
		t.Error("Contains wrong")
	}
	far, _ := NewRect([]float64{5, 5}, []float64{6, 6})
	if r.Overlaps(far) {
		t.Error("disjoint rects overlap")
	}
	if got := far.MinDist([]float64{5.5, 5.5}); got != 0 {
		t.Errorf("MinDist inside = %g", got)
	}
	if got := far.MinDist([]float64{4, 5.5}); got != 1 {
		t.Errorf("MinDist = %g, want 1 (squared)", got)
	}
}

func TestAffineValidation(t *testing.T) {
	tr, _ := New(2, 8)
	tr.Insert(0, []float64{0, 4}) // 4 rad is outside [-π, π]
	q, _ := NewRect([]float64{0, 0}, []float64{1, 1})
	for name, tf := range map[string]*Affine{
		"NaN stretch":         {A: []float64{math.NaN(), 1}, B: []float64{0, 0}},
		"infinite shift":      {A: []float64{1, 1}, B: []float64{0, math.Inf(1)}},
		"scaled angle":        {A: []float64{1, 2}, B: []float64{0, 0}, Circular: []bool{false, true}},
		"short circular mask": {A: []float64{1, 1}, B: []float64{0, 0}, Circular: []bool{true}},
		"angle out of range":  {A: []float64{1, 1}, B: []float64{0, 0}, Circular: []bool{false, true}},
	} {
		if _, _, err := tr.SearchTransformed(q, tf); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, _, err := tr.Search(Rect{Min: []float64{0, math.NaN()}, Max: []float64{1, 1}}); err == nil {
		t.Error("NaN query bound accepted")
	}
	circ := &Affine{A: []float64{1, 1}, B: []float64{0, 0}, Circular: []bool{true, false}}
	if _, _, err := tr.NearestK([]float64{0, 0}, 1, circ); err == nil {
		t.Error("NearestK accepted a circular dimension")
	}
}

// TestInsertAfterSearchRebuildsLayout: searches run on a flat copy of
// the tree; an Insert must drop the copy, or later searches would answer
// from the tree as it was.
func TestInsertAfterSearchRebuildsLayout(t *testing.T) {
	pts := randPoints(30, 500, 2)
	tr := buildTree(t, pts[:300], 8)
	tr.Pack()
	everything, _ := NewRect([]float64{-1000, -1000}, []float64{1000, 1000})
	var s Searcher
	got, _, err := s.Search(tr, everything, nil)
	if err != nil || len(got) != 300 {
		t.Fatalf("before: %d ids, %v", len(got), err)
	}
	for i, p := range pts[300:] {
		if err := tr.Insert(300+i, p); err != nil {
			t.Fatal(err)
		}
		if i%50 == 0 { // interleave, so some layouts are built mid-load
			if got, _, _ := s.Search(tr, everything, nil); len(got) != 301+i {
				t.Fatalf("after %d inserts: %d ids", i+1, len(got))
			}
		}
	}
	q, _ := NewRect([]float64{-40, -40}, []float64{40, 40})
	got, _, err = s.Search(tr, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	sort.Ints(got) // a Searcher answers in traversal order
	if want := bruteRange(pts, q, nil); !sameInts(got, want) {
		t.Fatalf("after inserts: got %d ids, want %d", len(got), len(want))
	}
	nn, _, err := s.NearestK(tr, pts[499], 1, nil)
	if err != nil || len(nn) != 1 || nn[0].Dist != 0 {
		t.Fatalf("nearest to a just-inserted point: %v, %v", nn, err)
	}
}

// TestSearchLoopsDoNotAllocate: a reused Searcher allocates nothing, for
// range and nearest-neighbour searches, transformed or not — in
// particular nothing per node visited or per entry tested.
func TestSearchLoopsDoNotAllocate(t *testing.T) {
	pts := randPoints(31, 3000, 3)
	tr := buildTree(t, pts, 16)
	tf := &Affine{A: []float64{-1, 2, 0.5}, B: []float64{5, -3, 1}}
	q, _ := NewRect([]float64{-30, -30, -30}, []float64{30, 30, 30})
	at := []float64{1, 1, 1}
	var s Searcher
	for name, fn := range map[string]func(){
		"Search": func() {
			if ids, st, err := s.Search(tr, q, tf); err != nil || len(ids) == 0 || st.EntryTests < 100 {
				t.Fatalf("Search: %d ids, %+v, %v", len(ids), st, err)
			}
		},
		"NearestK": func() {
			if nn, st, err := s.NearestK(tr, at, 10, tf); err != nil || len(nn) != 10 || st.EntryTests < 10 {
				t.Fatalf("NearestK: %d, %+v, %v", len(nn), st, err)
			}
		},
	} {
		fn() // size the buffers
		if got := testing.AllocsPerRun(20, fn); got != 0 {
			t.Errorf("%s on a reused Searcher allocates %v times per call, want 0", name, got)
		}
	}
}

func TestHeight(t *testing.T) {
	tr, _ := New(2, 4)
	if tr.Height() != 0 {
		t.Errorf("empty height = %d", tr.Height())
	}
	pts := randPoints(20, 300, 2)
	for i, p := range pts {
		tr.Insert(i, p)
	}
	if tr.Height() < 3 {
		t.Errorf("300 points with fanout 4: height = %d, want >= 3", tr.Height())
	}
	if err := tr.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicatePoints(t *testing.T) {
	tr, _ := New(2, 4)
	for i := 0; i < 50; i++ {
		tr.Insert(i, []float64{1, 1})
	}
	q, _ := NewRect([]float64{1, 1}, []float64{1, 1})
	got, _, err := tr.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 50 {
		t.Errorf("duplicates: %d found, want 50", len(got))
	}
	if err := tr.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentSearchesAfterInsert: the first searches after an Insert
// find no flat layout and race to build it; every one of them must
// answer from the complete tree. Run under -race.
func TestConcurrentSearchesAfterInsert(t *testing.T) {
	pts := randPoints(32, 2000, 3)
	tr := buildTree(t, pts, 16) // never packed
	q, _ := NewRect([]float64{-50, -50, -50}, []float64{50, 50, 50})
	want := bruteRange(pts, q, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				got, _, err := tr.Search(q)
				if err != nil || !sameInts(got, want) {
					t.Errorf("concurrent search: %d ids, want %d (%v)", len(got), len(want), err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
