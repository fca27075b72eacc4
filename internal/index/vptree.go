package index

import (
	"math"
	"sync/atomic"

	"repro/internal/metric"
)

// VPTree is a vantage-point tree over an arbitrary triangular metric —
// the continuous-domain sibling of the BK-tree. Every node is a
// vantage point with a radius threshold mu splitting its subtree into
// an inner ball (d <= mu) and an outer shell (d > mu); the triangle
// inequality turns one distance computation per visited node into a
// bound on whole subtrees:
//
//	pruning invariant: a query at distance d from the vantage with
//	search radius tau can only find answers in the inner child when
//	d - tau <= mu, and in the outer child when d + tau >= mu.
//
// Both bounds are inclusive so ties at the boundary visit both sides —
// never losing an equal-distance answer, which keeps the (dist, id)
// result order exactly identical to a brute-force scan's.
//
// The tree is insertion-driven (no bulk median selection): a node's mu
// is fixed by its first child — mu = d(first child, vantage), placing
// that child in the inner ball — and later inserts descend by d <= mu.
// Random insertion order yields acceptably balanced trees without
// rebuild pauses, the same trade the BK-tree makes.
//
// Concurrency contract (identical to BKTree, relied on by the relation
// layer's online maintenance): at most one writer may Insert at a time
// while any number of readers traverse concurrently. Child pointers
// publish atomically and mu is written before its child pointer, so a
// reader that observes a child also observes the mu that routed it.
// Deletion is not an index operation — rows are tombstoned in the
// relation arena and filtered on read; compaction rebuilds the tree.
type VPTree struct {
	m    metric.Distance
	root atomic.Pointer[vpNode]
	size atomic.Int64
}

type vpNode struct {
	id  int
	vec metric.Vector
	mu  float64 // fixed when the first child is attached
	// inner is always attached first; outer may only be non-nil when
	// inner is.
	inner, outer atomic.Pointer[vpNode]
}

// NewVPTree returns an empty tree over the metric. The metric must
// satisfy the triangle inequality (l2 does, cosine does not): any other
// would make Range/NearestK silently lossy.
func NewVPTree(m metric.Distance) *VPTree { return &VPTree{m: m} }

// Metric returns the distance the tree is built over.
func (t *VPTree) Metric() metric.Distance { return t.m }

// Len returns the number of indexed entries.
func (t *VPTree) Len() int { return int(t.size.Load()) }

// Insert adds an entry. Duplicate vectors are fine (they land in inner
// balls along zero distances). Single-writer only; see the type
// comment.
func (t *VPTree) Insert(id int, v metric.Vector) {
	n := &vpNode{id: id, vec: v}
	if t.root.Load() == nil {
		t.root.Store(n)
		t.size.Add(1)
		return
	}
	cur := t.root.Load()
	depth := 0
	for {
		depth++
		d := t.m.Dist(v, cur.vec)
		inner := cur.inner.Load()
		if inner == nil {
			// First child fixes the threshold and fills the inner ball.
			// mu is a plain write, but the atomic child store below is a
			// release: any reader that loads the child observes mu.
			cur.mu = d
			cur.inner.Store(n)
			t.size.Add(1)
			vpInsertDepth.Observe(float64(depth))
			return
		}
		if d <= cur.mu {
			cur = inner
			continue
		}
		outer := cur.outer.Load()
		if outer == nil {
			cur.outer.Store(n)
			t.size.Add(1)
			vpInsertDepth.Observe(float64(depth))
			return
		}
		cur = outer
	}
}

// Range returns every entry within distance r of the query.
func (t *VPTree) Range(q metric.Vector, r float64) []Match {
	m, _ := t.RangeStats(q, r)
	return m
}

// RangeStats is Range with work counters: Verifications counts
// distance computations (one per visited node), Candidates the nodes
// visited.
func (t *VPTree) RangeStats(q metric.Vector, r float64) ([]Match, Stats) {
	var out []Match
	it := t.RangeIter(q, r)
	for m, ok := it.Next(); ok; m, ok = it.Next() {
		out = append(out, m)
	}
	return out, it.Stats()
}

// RangeIter returns an incremental range query: matches stream out in
// deterministic traversal order (inner child before outer child) and
// traversal stops as soon as the caller stops pulling.
func (t *VPTree) RangeIter(q metric.Vector, r float64) Iterator {
	it := &vpIter{t: t, q: q, r: r}
	if root := t.root.Load(); root != nil && r >= 0 {
		it.stack = []*vpNode{root}
	}
	return it
}

type vpIter struct {
	t     *VPTree
	q     metric.Vector
	r     float64
	stack []*vpNode
	st    Stats
}

func (it *vpIter) Stats() Stats { return it.st }

func (it *vpIter) Next() (Match, bool) {
	for len(it.stack) > 0 {
		n := it.stack[len(it.stack)-1]
		it.stack = it.stack[:len(it.stack)-1]
		it.st.Candidates++
		it.st.Verifications++
		it.st.Nodes++
		d := it.t.m.Dist(it.q, n.vec)
		// Load children before consulting mu: observing a child is what
		// guarantees mu is visible (release/acquire on the child pointer).
		inner := n.inner.Load()
		outer := n.outer.Load()
		// Push outer first so inner pops first (deterministic inner-
		// before-outer emission order). Inclusive bounds: boundary ties
		// visit both sides.
		if outer != nil {
			if d+it.r >= n.mu {
				it.stack = append(it.stack, outer)
			} else {
				it.st.Pruned++
			}
		}
		if inner != nil {
			if d-it.r <= n.mu {
				it.stack = append(it.stack, inner)
			} else {
				it.st.Pruned++
			}
		}
		if d <= it.r {
			return Match{ID: n.id, Dist: d}, true
		}
	}
	return Match{}, false
}

// NearestK returns the k entries closest to the query, nearest first
// (ties broken by ascending id, the engine's total result order).
func (t *VPTree) NearestK(q metric.Vector, k int) []Match {
	m, _ := t.NearestKFilterStatsInto(nil, q, k, nil)
	return m
}

// NearestKFilterStats is NearestK with work counters, restricted to
// entries the accept function admits (nil accepts everything) — the
// hook MVCC snapshots use to exclude tombstoned and post-snapshot rows
// without losing true answers.
func (t *VPTree) NearestKFilterStats(q metric.Vector, k int, accept func(id int) bool) ([]Match, Stats) {
	return t.NearestKFilterStatsInto(nil, q, k, accept)
}

// NearestKFilterStatsInto is NearestKFilterStats writing the best list
// into dst's backing array (dst may be nil), mirroring the BK-tree's
// buffer-reusing form. The walk is depth-first, near side first, with
// the pruning radius shrinking to the current kth-best distance; the
// rejected entries are never materialised.
func (t *VPTree) NearestKFilterStatsInto(dst []Match, q metric.Vector, k int, accept func(id int) bool) ([]Match, Stats) {
	var st Stats
	best := dst[:0]
	root := t.root.Load()
	if root == nil || k <= 0 {
		return best, st
	}
	var walk func(n *vpNode)
	walk = func(n *vpNode) {
		st.Candidates++
		st.Verifications++
		st.Nodes++
		d := t.m.Dist(q, n.vec)
		// The admission test first: accept is pure and costs a lookup
		// (a snapshot's visibility check), so only nodes that would enter
		// the best list consult it.
		if (len(best) < k || d <= best[len(best)-1].Dist) && (accept == nil || accept(n.id)) {
			best = PushBestK(best, Match{ID: n.id, Dist: d}, k)
		}
		inner := n.inner.Load()
		outer := n.outer.Load()
		if inner == nil {
			return
		}
		tau := func() float64 {
			if len(best) < k {
				return math.Inf(1)
			}
			return best[len(best)-1].Dist
		}
		// Near side first: descending into the child more likely to hold
		// the query's neighbours shrinks tau before the far side is
		// considered, so the far side is pruned more often. Inclusive
		// bounds keep boundary ties reachable (see the type comment).
		if d <= n.mu {
			if d-tau() <= n.mu {
				walk(inner)
			} else {
				st.Pruned++
			}
			if outer != nil {
				if d+tau() >= n.mu {
					walk(outer)
				} else {
					st.Pruned++
				}
			}
			return
		}
		if outer != nil {
			if d+tau() >= n.mu {
				walk(outer)
			} else {
				st.Pruned++
			}
		}
		if d-tau() <= n.mu {
			walk(inner)
		} else {
			st.Pruned++
		}
	}
	walk(root)
	return best, st
}
