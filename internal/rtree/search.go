package rtree

import (
	"fmt"
	"math"
	"slices"
)

// SearchStats reports traversal effort: the experiments compare node
// accesses of transformed and plain searches (the companion paper's
// claim is that they are identical for the identity transformation).
type SearchStats struct {
	NodeAccesses int
	EntryTests   int
}

// Neighbor is one nearest-neighbour result.
type Neighbor struct {
	ID   int
	Dist float64 // Euclidean distance in the (transformed) space
}

// Search returns the IDs of all points inside the query rectangle.
func (t *Tree) Search(q Rect) ([]int, SearchStats, error) {
	return t.SearchTransformed(q, nil)
}

// SearchTransformed searches the *image* of the index under tf: it
// returns the IDs, ascending, of all points p with tf(p) inside the
// query rectangle (Algorithm 1/2 of the companion paper); the index
// itself is untouched, so one index serves any number of safe
// transformations. tf == nil means identity.
func (t *Tree) SearchTransformed(q Rect, tf *Affine) ([]int, SearchStats, error) {
	var s Searcher
	ids, st, err := s.Search(t, q, tf)
	slices.Sort(ids)
	return ids, st, err
}

// NearestK returns the k nearest points to the query point, nearest
// first. With tf non-nil, distances are measured between tf(point) and
// the query — nearest-neighbour search in the transformed space, pruned
// by MINDIST. Circular dimensions are not supported: a sum of squared
// coordinate differences is not a distance on a circle.
func (t *Tree) NearestK(q []float64, k int, tf *Affine) ([]Neighbor, SearchStats, error) {
	var s Searcher
	return s.NearestK(t, q, k, tf)
}

// Searcher owns the buffers a search needs — the compiled probe, the
// traversal stack or queue, the results — so that a caller issuing many
// searches allocates them once. The zero value is ready; the slices a
// method returns are valid until the Searcher's next call. A Searcher
// serves one goroutine at a time; any number may search one Tree.
type Searcher struct {
	p     probe
	stack []int32
	ids   []int
	queue []nnItem
	nn    []Neighbor
}

// Search is Tree.SearchTransformed on the Searcher's buffers, returning
// the ids in traversal order: a caller that filters them further sorts
// what is left.
func (s *Searcher) Search(t *Tree, q Rect, tf *Affine) ([]int, SearchStats, error) {
	var st SearchStats
	if len(q.Min) != t.dim || len(q.Max) != t.dim {
		return nil, st, fmt.Errorf("rtree: query dim %d, want %d", len(q.Min), t.dim)
	}
	f := &t.flat
	if len(f.nodes) == 0 {
		return nil, st, checkAffine(tf, t.dim)
	}
	ok, err := s.p.compileRange(q, tf, t.rect)
	if err != nil || !ok {
		return nil, st, err
	}
	dim, iv := f.dim, s.p.iv[:f.dim]
	ids := s.ids[:0]
	stack := append(s.stack[:0], 0)
	for len(stack) > 0 {
		n := f.nodes[stack[len(stack)-1]]
		stack = stack[:len(stack)-1]
		st.NodeAccesses++
		if n.leaf {
			st.EntryTests += int(n.count)
			co := f.leafCoords(n)
		entries:
			for i := 0; len(co) >= dim; i, co = i+1, co[dim:] {
				for d, x := range co[:len(iv)] {
					if b := &iv[d]; (x < b.lo || x > b.hi) && (x < b.lo2 || x > b.hi2) {
						continue entries
					}
				}
				ids = append(ids, f.ids[n.first+i])
			}
			continue
		}
		bs := f.childBounds(n)
	children:
		for i := 0; len(bs) >= 2*dim; i, bs = i+1, bs[2*dim:] {
			for d := range iv {
				lo, hi := bs[2*d], bs[2*d+1]
				if b := &iv[d]; (hi < b.lo || lo > b.hi) && (hi < b.lo2 || lo > b.hi2) {
					continue children
				}
			}
			stack = append(stack, f.child[n.first+i])
		}
	}
	s.stack, s.ids = stack, ids
	return ids, st, nil
}

func checkAffine(tf *Affine, dim int) error {
	if tf == nil {
		return nil
	}
	return tf.Validate(dim)
}

// probe is a query compiled against one transformation: what the
// traversal compares against, expressed in the index's own coordinates.
//
// Algorithm 2 of the companion paper walks the tree applying T to every
// rectangle and point it meets and compares the images with the query.
// T is invertible dimension by dimension, so the same comparisons can be
// made on the other side: a·p + b ∈ [lo, hi] is p ∈ [(lo−b)/a, (hi−b)/a].
// The probe is that pulled-back query, computed once per search; the
// nodes visited and the points returned are those of Algorithm 2.
type probe struct {
	// Range searches: what each dimension accepts.
	iv []accept
	// Nearest-neighbour searches: the squared distance from tf(p) to the
	// query is base + Σ wt[d]·(p[d] − ctr[d])².
	ctr, wt []float64
	base    float64
}

// accept is two closed intervals; a coordinate passes if it lies in
// either. The second is empty except for an arc that runs across the ±π
// seam of a circular dimension.
type accept struct{ lo, hi, lo2, hi2 float64 }

// angleSlack widens an arc's half-width to cover the roundings in
// subtracting, wrapping and re-adding angles of magnitude up to 2π on
// the way to its two ends (each within an ulp of 2π, 8.9e-16).
const angleSlack = 1e-14

// compileRange pulls q back through tf. It reports false when no point
// can match, which a zero stretch makes possible: the image of that
// dimension is the constant b, inside the query interval or not.
// bounds is the root rectangle, for the precondition on circular
// dimensions.
func (p *probe) compileRange(q Rect, tf *Affine, bounds Rect) (bool, error) {
	if err := checkAffine(tf, len(q.Min)); err != nil {
		return false, err
	}
	p.iv = slices.Grow(p.iv[:0], len(q.Min))
	for d := range q.Min {
		lo, hi := q.Min[d], q.Max[d]
		if math.IsNaN(lo) || math.IsNaN(hi) {
			return false, fmt.Errorf("rtree: query bound in dim %d is NaN", d)
		}
		a, b, circ := 1.0, 0.0, false
		if tf != nil {
			a, b, circ = tf.A[d], tf.B[d], tf.circular(d)
		}
		// Accept everything, unless narrowed below.
		l, h, l2, h2 := math.Inf(-1), math.Inf(1), math.Inf(1), math.Inf(-1)
		switch {
		case circ:
			if bounds.Min[d] < -math.Pi || bounds.Max[d] > math.Pi {
				return false, fmt.Errorf("rtree: circular dim %d indexes coordinates outside [-π, π]", d)
			}
			half := (hi-lo)/2 + angleSlack
			if half >= math.Pi {
				break
			}
			centre := lo + (hi-lo)/2
			if a == 0 {
				if math.Abs(WrapAngle(b-centre)) > half {
					return false, nil
				}
				break
			}
			// a = ±1 is its own inverse, and angular distance is
			// unchanged by the reflection.
			c := WrapAngle(a * (centre - b))
			l, h = c-half, c+half
			if l < -math.Pi {
				l2, h2 = l+2*math.Pi, math.Inf(1)
			}
			if h > math.Pi {
				l2, h2 = math.Inf(-1), h-2*math.Pi
			}
		case a == 0:
			if b < lo || b > hi {
				return false, nil
			}
		default:
			l, h = (lo-b)/a, (hi-b)/a
			if a < 0 {
				l, h = h, l
			}
			if b != 0 || (a != 1 && a != -1) {
				l, h = outward(l, math.Inf(-1)), outward(h, math.Inf(1))
			}
		}
		p.iv = append(p.iv, accept{l, h, l2, h2})
	}
	return true, nil
}

// outward moves a pulled-back bound three floats away from the
// interval. The subtraction and the division each round once, which
// leaves the computed bound within two floats of the real one; the
// third pays for the products of those errors. A widened interval can
// only add candidates, never dismiss a point on the boundary.
func outward(x, dir float64) float64 {
	for i := 0; i < 3; i++ {
		x = math.Nextafter(x, dir)
	}
	return x
}

// compileNearest pulls the query point back through tf.
func (p *probe) compileNearest(q []float64, tf *Affine) error {
	if err := checkAffine(tf, len(q)); err != nil {
		return err
	}
	p.ctr, p.wt, p.base = slices.Grow(p.ctr[:0], len(q)), slices.Grow(p.wt[:0], len(q)), 0
	for d, x := range q {
		a, b := 1.0, 0.0
		if tf != nil {
			if tf.circular(d) {
				return fmt.Errorf("rtree: NearestK does not support circular dim %d", d)
			}
			a, b = tf.A[d], tf.B[d]
		}
		if a*a == 0 {
			// A zero stretch, or one whose square underflows: the image
			// of this dimension is the constant b.
			p.base += (b - x) * (b - x)
			p.ctr, p.wt = append(p.ctr, 0), append(p.wt, 0)
			continue
		}
		p.ctr, p.wt = append(p.ctr, (x-b)/a), append(p.wt, a*a)
	}
	return nil
}

// nnItem is a queue entry: a node still to open, or (entry) a leaf slot
// whose exact distance is known.
type nnItem struct {
	dist  float64 // squared
	at    int32   // node index, or entry slot
	entry bool
}

// NearestK is Tree.NearestK on the Searcher's buffers.
func (s *Searcher) NearestK(t *Tree, q []float64, k int, tf *Affine) ([]Neighbor, SearchStats, error) {
	var st SearchStats
	if len(q) != t.dim {
		return nil, st, fmt.Errorf("rtree: query dim %d, want %d", len(q), t.dim)
	}
	if err := s.p.compileNearest(q, tf); err != nil {
		return nil, st, err
	}
	f := &t.flat
	if len(f.nodes) == 0 || k <= 0 {
		return nil, st, nil
	}
	dim, ctr, wt := f.dim, s.p.ctr, s.p.wt
	out := s.nn[:0]
	s.queue = append(s.queue[:0], nnItem{dist: s.p.base})
	for len(s.queue) > 0 {
		it := s.pop()
		if it.entry {
			// Nothing left in the queue is nearer than this point.
			out = append(out, Neighbor{ID: f.ids[it.at], Dist: math.Sqrt(it.dist)})
			if len(out) == k {
				break
			}
			continue
		}
		n := f.nodes[it.at]
		st.NodeAccesses++
		if n.leaf {
			st.EntryTests += int(n.count)
			co := f.leafCoords(n)
			for i := 0; len(co) >= dim; i, co = i+1, co[dim:] {
				dist := s.p.base
				for d, x := range co[:dim] {
					dist += wt[d] * (x - ctr[d]) * (x - ctr[d])
				}
				s.push(nnItem{dist: dist, at: int32(n.first + i), entry: true})
			}
			continue
		}
		bs := f.childBounds(n)
		for i := 0; len(bs) >= 2*dim; i, bs = i+1, bs[2*dim:] {
			// MINDIST (Roussopoulos et al.) to the child rectangle.
			dist := s.p.base
			for d := 0; d < dim; d++ {
				if gap := math.Max(bs[2*d]-ctr[d], ctr[d]-bs[2*d+1]); gap > 0 {
					dist += wt[d] * gap * gap
				}
			}
			s.push(nnItem{dist: dist, at: f.child[n.first+i]})
		}
	}
	s.nn = out
	return out, st, nil
}

// push and pop keep s.queue a binary min-heap on dist. container/heap
// would box every item into an interface, one allocation per push.
func (s *Searcher) push(it nnItem) {
	h := append(s.queue, it)
	for i := len(h) - 1; i > 0; {
		up := (i - 1) / 2
		if h[up].dist <= h[i].dist {
			break
		}
		h[up], h[i] = h[i], h[up]
		i = up
	}
	s.queue = h
}

func (s *Searcher) pop() nnItem {
	h := s.queue
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		small := i
		for _, c := range [2]int{2*i + 1, 2*i + 2} {
			if c < last && h[c].dist < h[small].dist {
				small = c
			}
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	s.queue = h
	return top
}
