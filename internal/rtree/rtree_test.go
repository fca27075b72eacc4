package rtree

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"reflect"
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

// build indexes pts[i] under id i.
func build(t *testing.T, dim int, pts [][]float64) *Tree {
	t.Helper()
	entries := make([]Entry, len(pts))
	for i, p := range pts {
		entries[i] = Entry{ID: i, Point: p}
	}
	tr, err := Build(dim, entries)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkLayout(tr, len(pts)); err != nil {
		t.Fatalf("%d points: %v", len(pts), err)
	}
	return tr
}

// pointSet is one input of the brute-force tests.
type pointSet struct {
	name string
	pts  [][]float64
}

// pointSets draws, at each size around one node's capacity and well
// past it, points from gen: all distinct, each repeated three times,
// and all equal.
func pointSets(seed int64, gen func(*rand.Rand) []float64) []pointSet {
	rng := rand.New(rand.NewSource(seed))
	var out []pointSet
	for _, n := range []int{0, 1, 31, 32, 33, 1000} {
		distinct := make([][]float64, n)
		for i := range distinct {
			distinct[i] = gen(rng)
		}
		dups, equal := make([][]float64, n), make([][]float64, n)
		for i := range dups {
			dups[i], equal[i] = distinct[i/3], distinct[0]
		}
		out = append(out,
			pointSet{fmt.Sprintf("%d distinct", n), distinct},
			pointSet{fmt.Sprintf("%d tripled", n), dups},
			pointSet{fmt.Sprintf("%d equal", n), equal})
	}
	return out
}

// uniform draws points uniformly from [-100, 100)^dim.
func uniform(dim int) func(*rand.Rand) []float64 {
	return func(rng *rand.Rand) []float64 {
		p := make([]float64, dim)
		for d := range p {
			p[d] = rng.Float64()*200 - 100
		}
		return p
	}
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

func sqDist(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// containsRect reports whether r fully contains o.
func containsRect(r, o Rect) bool {
	for i := range r.Min {
		if o.Min[i] < r.Min[i] || o.Max[i] > r.Max[i] {
			return false
		}
	}
	return true
}

// checkLayout verifies the packed layout of a tree built over ids
// 0..n-1: every id appears exactly once; every node's rectangle contains
// its children's rectangles or its entries; every leaf sits at depth
// Height()-1; no node holds more than nodeSize, and at most one node per
// level holds fewer.
func checkLayout(tr *Tree, n int) error {
	f := &tr.flat
	if len(f.nodes) == 0 {
		if n != 0 || tr.Height() != 0 || tr.Len() != 0 {
			return fmt.Errorf("no nodes, but %d ids, height %d, Len %d", n, tr.Height(), tr.Len())
		}
		return nil
	}
	seen := make([]int, n)
	short := map[int]int{} // depth -> nodes holding fewer than nodeSize
	var walk func(at int32, box Rect, depth int) error
	walk = func(at int32, box Rect, depth int) error {
		nd := f.nodes[at]
		if nd.count < 1 || nd.count > nodeSize {
			return fmt.Errorf("node %d holds %d", at, nd.count)
		}
		if nd.count < nodeSize {
			short[depth]++
		}
		if nd.leaf {
			if depth != tr.Height()-1 {
				return fmt.Errorf("leaf %d at depth %d, height %d", at, depth, tr.Height())
			}
			co := f.leafCoords(nd)
			for i := 0; i < int(nd.count); i++ {
				id := f.ids[nd.first+i]
				if id < 0 || id >= n {
					return fmt.Errorf("leaf %d holds unknown id %d", at, id)
				}
				seen[id]++
				if p := co[i*f.dim : (i+1)*f.dim]; !box.Contains(p) {
					return fmt.Errorf("leaf %d's rectangle %v does not contain id %d at %v", at, box, id, p)
				}
			}
			return nil
		}
		bs := f.childBounds(nd)
		for i := 0; i < int(nd.count); i++ {
			c := Rect{Min: make([]float64, f.dim), Max: make([]float64, f.dim)}
			for d := range c.Min {
				c.Min[d], c.Max[d] = bs[(2*i*f.dim)+2*d], bs[(2*i*f.dim)+2*d+1]
			}
			if !containsRect(box, c) {
				return fmt.Errorf("node %d's rectangle %v does not contain child %d's %v", at, box, i, c)
			}
			if err := walk(f.child[nd.first+i], c, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(0, tr.rect, 0); err != nil {
		return err
	}
	for id, k := range seen {
		if k != 1 {
			return fmt.Errorf("id %d appears %d times", id, k)
		}
	}
	if tr.Len() != n {
		return fmt.Errorf("Len %d, want %d", tr.Len(), n)
	}
	for depth, k := range short {
		if k > 1 {
			return fmt.Errorf("%d nodes at depth %d are not full", k, depth)
		}
	}
	return nil
}

func TestLayoutInvariants(t *testing.T) {
	for _, dim := range []int{1, 2, 4, 7} {
		for _, set := range pointSets(int64(dim), uniform(dim)) {
			build(t, dim, set.pts) // checks the layout
		}
		build(t, dim, randPoints(int64(dim), 40000, dim))
	}
}

// TestBuildIsDeterministic: the layout is a function of the entry set
// alone, so building from a shuffled copy gives the same arrays and the
// same traversals.
func TestBuildIsDeterministic(t *testing.T) {
	for _, set := range pointSets(40, uniform(3)) {
		entries := make([]Entry, len(set.pts))
		for i, p := range set.pts {
			entries[i] = Entry{ID: i, Point: p}
		}
		a, err := Build(3, entries)
		if err != nil {
			t.Fatal(err)
		}
		rand.New(rand.NewSource(41)).Shuffle(len(entries), func(i, j int) { entries[i], entries[j] = entries[j], entries[i] })
		b, err := Build(3, entries)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: shuffled input gives another layout", set.name)
		}
		rng := rand.New(rand.NewSource(42))
		for trial := 0; trial < 20; trial++ {
			at := uniform(3)(rng)
			q := Rect{Min: make([]float64, 3), Max: make([]float64, 3)}
			for d := range at {
				q.Min[d], q.Max[d] = at[d]-30, at[d]+30
			}
			_, sa, _ := a.Search(q)
			_, sb, _ := b.Search(q)
			_, na, _ := a.NearestK(at, 5, nil)
			_, nb, _ := b.NearestK(at, 5, nil)
			if sa != sb || na != nb {
				t.Fatalf("%s: work differs: range %+v vs %+v, nearest %+v vs %+v", set.name, sa, sb, na, nb)
			}
		}
	}
}

// TestPackTilesEveryDimension: the leaves are tiles, not strips. Over
// 10 000 uniform points in the square, a query a tenth of the side wide
// meets about (0.1·√313 + 1)² ≈ 8 of the 313 leaves of a tiled packing,
// and at least a tenth of them, 31, of a packing that sorted by one
// dimension only.
func TestPackTilesEveryDimension(t *testing.T) {
	tr := build(t, 2, randPoints(33, 10000, 2))
	q, _ := NewRect([]float64{-10, -10}, []float64{10, 10})
	if _, st, err := tr.Search(q); err != nil || st.NodeAccesses > 20 {
		t.Fatalf("a 10%% square opened %d nodes (%v), want at most 20", st.NodeAccesses, err)
	}
}

func TestRangeMatchesBruteForce(t *testing.T) {
	for _, set := range pointSets(7, uniform(3)) {
		tr := build(t, 3, set.pts)
		rng := rand.New(rand.NewSource(8))
		for trial := 0; trial < 50; trial++ {
			lo := make([]float64, 3)
			hi := make([]float64, 3)
			for d := range lo {
				a := rng.Float64()*200 - 100
				b := rng.Float64()*200 - 100
				lo[d], hi[d] = math.Min(a, b), math.Max(a, b)
			}
			if trial == 0 && len(set.pts) > 0 { // the degenerate rectangle at a point
				copy(lo, set.pts[0])
				copy(hi, set.pts[0])
			}
			q, err := NewRect(lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := tr.Search(q)
			if err != nil {
				t.Fatal(err)
			}
			if want := bruteRange(set.pts, q, nil); !sameInts(got, want) {
				t.Fatalf("%s, trial %d: got %d ids, want %d", set.name, trial, len(got), len(want))
			}
		}
	}
}

// TestTransformedSearchMatchesBruteForce: the pulled-back search returns
// what applying the transformation forward to every point returns, for
// positive, negative and zero stretches (a zero stretch collapses its
// dimension to the constant b: every point passes that dimension or
// none does).
func TestTransformedSearchMatchesBruteForce(t *testing.T) {
	for _, set := range pointSets(9, uniform(2)) {
		tr := build(t, 2, set.pts)
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
			want := bruteRange(set.pts, q, tf)
			if !sameInts(got, want) {
				t.Fatalf("%s, trial %d (A=%v): transformed search wrong: got %d want %d", set.name, trial, tf.A, len(got), len(want))
			}
			if len(want) > 0 {
				nonEmpty++
			}
		}
		if set.name == "1000 distinct" && nonEmpty < 50 {
			t.Fatalf("only %d of 200 trials had answers; the test is not exercising the search", nonEmpty)
		}
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
		tr := build(t, 1, [][]float64{{p}})
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
	crossed := 0
	for _, set := range pointSets(22, func(rng *rand.Rand) []float64 {
		return []float64{rng.Float64() * 10, rng.Float64()*2*math.Pi - math.Pi}
	}) {
		pts := set.pts
		if set.name == "1000 distinct" {
			pts[0][1], pts[1][1] = -math.Pi, math.Pi // the seam itself, both spellings
		}
		tr := build(t, 2, pts)
		rng := rand.New(rand.NewSource(23))
		for trial := 0; trial < 100; trial++ {
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
						t.Fatalf("%s, trial %d: id %d fails the linear dimension but was returned", set.name, trial, id)
					}
					continue
				}
				d := angDist(img[1], centre) // at most π, so half >= π accepts everything
				if math.Abs(d-half) < 1e-9 {
					continue
				}
				if want := d <= half; want != in[id] {
					t.Fatalf("%s, trial %d (a=%g b=%g): id %d at angle %g, image %g, distance %g from centre %g, half-width %g: returned=%v",
						set.name, trial, tf.A[1], tf.B[1], id, p[1], img[1], d, centre, half, in[id])
				}
			}
		}
	}
	if crossed < 200 {
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
	tr := build(t, 1, pts)
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
	tr := build(t, 4, pts)
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

// checkNearest compares NearestK's distances with a brute-force sort
// (ids may differ among points at equal distance).
func checkNearest(t *testing.T, name string, tr *Tree, pts [][]float64, q []float64, k int, tf *Affine) {
	t.Helper()
	got, _, err := tr.NearestK(q, k, tf)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, len(pts))
	for i, p := range pts {
		if tf != nil {
			p = tf.Apply(p)
		}
		want[i] = math.Sqrt(sqDist(p, q))
	}
	sort.Float64s(want)
	if len(got) != min(k, len(pts)) {
		t.Fatalf("%s, k=%d: got %d results", name, k, len(got))
	}
	for i := range got {
		if math.Abs(got[i].Dist-want[i]) > 1e-9 {
			t.Fatalf("%s, k=%d result %d: dist %g, want %g", name, k, i, got[i].Dist, want[i])
		}
	}
}

func TestNearestKMatchesBruteForce(t *testing.T) {
	for _, set := range pointSets(13, uniform(3)) {
		tr := build(t, 3, set.pts)
		rng := rand.New(rand.NewSource(14))
		for trial := 0; trial < 10; trial++ {
			q := uniform(3)(rng)
			for _, k := range []int{1, 5, 17, 40} {
				checkNearest(t, set.name, tr, set.pts, q, k, nil)
			}
		}
	}
}

func TestNearestKTransformed(t *testing.T) {
	for _, set := range pointSets(15, uniform(2)) {
		tr := build(t, 2, set.pts)
		for _, tf := range []*Affine{
			{A: []float64{-1, 2}, B: []float64{5, -3}},
			{A: []float64{0, -0.5}, B: []float64{4, 2}}, // first dimension collapses to 4
		} {
			checkNearest(t, set.name, tr, set.pts, []float64{1, 1}, 7, tf)
		}
	}
}

func TestSearchEmptyTree(t *testing.T) {
	tr := build(t, 2, nil)
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
	if _, err := Build(0, nil); err == nil {
		t.Error("Build(0) succeeded")
	}
	if _, err := Build(2, []Entry{{ID: 0, Point: []float64{0, 0}}, {ID: 1, Point: []float64{1}}}); err == nil {
		t.Error("Build with a point of the wrong dim succeeded")
	}
	if _, err := Build(2, []Entry{{ID: 0, Point: []float64{0, math.NaN()}}}); err == nil {
		t.Error("Build with a NaN coordinate succeeded")
	}
	for _, tr := range []*Tree{build(t, 2, nil), build(t, 2, [][]float64{{0, 0}})} {
		q, _ := NewRect([]float64{0}, []float64{1})
		if _, _, err := tr.Search(q); err == nil {
			t.Error("Search with wrong dim succeeded")
		}
		if _, _, err := tr.NearestK([]float64{0}, 1, nil); err == nil {
			t.Error("NearestK with wrong dim succeeded")
		}
		q2, _ := NewRect([]float64{0, 0}, []float64{1, 1})
		bad := &Affine{A: []float64{1}, B: []float64{0}}
		if _, _, err := tr.SearchTransformed(q2, bad); err == nil {
			t.Error("bad affine accepted")
		}
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
	if r.Dim() != 2 {
		t.Errorf("Dim = %d", r.Dim())
	}
	o, _ := NewRect([]float64{1, 1}, []float64{3, 3})
	if !r.Overlaps(o) {
		t.Error("Overlaps = false")
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
	tr := build(t, 2, [][]float64{{0, 4}}) // 4 rad is outside [-π, π]
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

// TestSearchLoopsDoNotAllocate: a reused Searcher allocates nothing, for
// range and nearest-neighbour searches, transformed or not — in
// particular nothing per node visited or per entry tested.
func TestSearchLoopsDoNotAllocate(t *testing.T) {
	pts := randPoints(31, 3000, 3)
	tr := build(t, 3, pts)
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

// TestHeight: full nodes of 32 make the height ⌈log32 n⌉, with one leaf
// up to 32 points.
func TestHeight(t *testing.T) {
	for _, c := range []struct{ n, height int }{
		{0, 0}, {1, 1}, {32, 1}, {33, 2}, {1024, 2}, {1025, 3}, {32768, 3}, {32769, 4},
	} {
		if got := build(t, 2, randPoints(20, c.n, 2)).Height(); got != c.height {
			t.Errorf("%d points: height %d, want %d", c.n, got, c.height)
		}
	}
}

func TestDuplicatePoints(t *testing.T) {
	pts := make([][]float64, 50)
	for i := range pts {
		pts[i] = []float64{1, 1}
	}
	tr := build(t, 2, pts)
	q, _ := NewRect([]float64{1, 1}, []float64{1, 1})
	got, _, err := tr.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 50 {
		t.Errorf("duplicates: %d found, want 50", len(got))
	}
}

// TestConcurrentSearches: goroutines with their own Searchers search one
// built tree at once, and all answer as one search alone does. Run under
// -race.
func TestConcurrentSearches(t *testing.T) {
	pts := randPoints(32, 2000, 3)
	tr := build(t, 3, pts)
	q, _ := NewRect([]float64{-50, -50, -50}, []float64{50, 50, 50})
	want := bruteRange(pts, q, nil)
	wantNN, _, err := tr.NearestK([]float64{0, 0, 0}, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var s Searcher
			for i := 0; i < 20; i++ {
				got, _, err := s.Search(tr, q, nil)
				sort.Ints(got) // a Searcher answers in traversal order
				if err != nil || !sameInts(got, want) {
					t.Errorf("concurrent search: %d ids, want %d (%v)", len(got), len(want), err)
					return
				}
				nn, _, err := s.NearestK(tr, []float64{0, 0, 0}, 10, nil)
				if err != nil || !reflect.DeepEqual(nn, wantNN) {
					t.Errorf("concurrent nearest: %v, want %v (%v)", nn, wantNN, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
