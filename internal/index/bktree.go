package index

import (
	"sort"
	"sync/atomic"

	"repro/internal/editdp"
)

// BKTree is a Burkhard–Keller tree over the unit-cost edit distance.
// Soundness requires a metric (symmetry + triangle inequality), which
// Levenshtein distance satisfies; the query planner therefore only
// offers BK-trees for unit-cost rule sets.
//
// Concurrency contract (the storage engine's online maintenance relies
// on it): at most one writer may Insert at a time — callers serialize
// mutation, the relation layer under its commit lock — while any number
// of readers traverse concurrently. Every node's child list is an
// immutable slice behind an atomic pointer, replaced wholesale on
// insert, so a reader sees either the old list or the new one, never a
// half-built edge. A reader racing an insert may or may not see the new
// entry; the MVCC visibility filter above the index decides, so the
// index itself only ever needs to be a superset of any snapshot.
// Deletion is not an index operation: rows are tombstoned in the
// relation arena and filtered on read; compaction rebuilds a fresh
// tree.
type BKTree struct {
	root atomic.Pointer[bkNode]
	size atomic.Int64
}

type bkNode struct {
	entry Entry
	edges atomic.Pointer[[]bkEdge] // ascending by dist; copy-on-write
}

type bkEdge struct {
	dist int
	node *bkNode
}

// loadEdges returns the node's current child list (nil when leaf).
func (n *bkNode) loadEdges() []bkEdge {
	if p := n.edges.Load(); p != nil {
		return *p
	}
	return nil
}

// child returns the subtree along the edge labelled d, if any.
func (n *bkNode) child(d int) *bkNode {
	es := n.loadEdges()
	i := sort.Search(len(es), func(i int) bool { return es[i].dist >= d })
	if i < len(es) && es[i].dist == d {
		return es[i].node
	}
	return nil
}

// addEdge publishes a new child list containing the edge d -> c.
// Single-writer only.
func (n *bkNode) addEdge(d int, c *bkNode) {
	old := n.loadEdges()
	i := sort.Search(len(old), func(i int) bool { return old[i].dist >= d })
	es := make([]bkEdge, 0, len(old)+1)
	es = append(es, old[:i]...)
	es = append(es, bkEdge{dist: d, node: c})
	es = append(es, old[i:]...)
	n.edges.Store(&es)
}

// NewBKTree returns an empty tree.
func NewBKTree() *BKTree { return &BKTree{} }

// Len returns the number of indexed entries.
func (t *BKTree) Len() int { return int(t.size.Load()) }

// Insert adds an entry. Duplicate strings are fine; they stack along
// zero-distance edges. Single-writer only; see the type comment.
func (t *BKTree) Insert(id int, s string) {
	n := &bkNode{entry: Entry{ID: id, S: s}}
	if t.root.Load() == nil {
		t.root.Store(n)
		t.size.Add(1)
		return
	}
	// One PEQ build serves every node on the insertion path.
	dp := editdp.NewQueryDP(s)
	cur := t.root.Load()
	depth := 0
	for {
		depth++
		d := dp.Distance(cur.entry.S)
		child := cur.child(d)
		if child == nil {
			cur.addEdge(d, n)
			t.size.Add(1)
			bkInsertDepth.Observe(float64(depth))
			return
		}
		cur = child
	}
}

// Range returns every entry within unit edit distance k of the query.
func (t *BKTree) Range(query string, k int) []Match {
	m, _ := t.RangeStats(query, k)
	return m
}

// NearestK returns the k entries closest to the query in unit edit
// distance, nearest first (ties broken by ascending id).
func (t *BKTree) NearestK(query string, k int) []Match {
	m, _ := t.NearestKStats(query, k)
	return m
}

// NearestKStats is NearestK with work counters: Verifications counts
// distance computations, Candidates the nodes visited. The tree is
// walked depth-first, children by ascending edge label, shrinking the
// pruning radius to the current kth-best distance. Query execution does
// not call it (see the package comment).
func (t *BKTree) NearestKStats(query string, k int) ([]Match, Stats) {
	var st Stats
	root := t.root.Load()
	if root == nil || k <= 0 {
		return nil, st
	}
	// best holds up to k matches sorted ascending by (distance, id).
	var best []Match
	dp := editdp.NewQueryDP(query)
	var walk func(n *bkNode)
	walk = func(n *bkNode) {
		st.Candidates++
		st.Nodes++
		edges := n.loadEdges()
		var d int
		if len(best) == k {
			// Frontier full: distances beyond maxEdge+r can neither enter
			// the best list (needs d <= r) nor admit any child (needs
			// e.dist >= d-r), so the verification is budget-bounded — and
			// when length skew alone exceeds the budget, skipped outright.
			r := int(best[len(best)-1].Dist)
			budget := r
			if len(edges) > 0 {
				budget = edges[len(edges)-1].dist + r
			}
			if ld := len(query) - len(n.entry.S); ld > budget || -ld > budget {
				st.Pruned++
				return
			}
			st.Verifications++
			var ok bool
			if d, ok = dp.Within(n.entry.S, budget); !ok {
				st.Abandoned++
				st.Pruned++
				return
			}
		} else {
			// Frontier not yet full: every node enters the list and every
			// child is visited, so the exact distance is required.
			st.Verifications++
			d = dp.Distance(n.entry.S)
		}
		if len(best) < k || float64(d) <= best[len(best)-1].Dist {
			best = PushBestK(best, Match{ID: n.entry.ID, S: n.entry.S, Dist: float64(d)}, k)
		}
		for _, e := range edges {
			if len(best) < k {
				walk(e.node)
				continue
			}
			// Triangle inequality: the subtree can only contain entries
			// at distance >= |d - dist| from the query.
			r := int(best[len(best)-1].Dist)
			if e.dist >= d-r && e.dist <= d+r {
				walk(e.node)
			} else {
				st.Pruned++
			}
		}
	}
	walk(root)
	return best, st
}

// RangeStats is Range with work counters: Verifications counts distance
// computations (the tree's only cost), Candidates the nodes visited.
func (t *BKTree) RangeStats(query string, k int) ([]Match, Stats) {
	var out []Match
	it := t.RangeIter(query, k)
	for m, ok := it.Next(); ok; m, ok = it.Next() {
		out = append(out, m)
	}
	return out, it.Stats()
}

// RangeIter returns an incremental range query: matches stream out in
// deterministic tree order (children visited by ascending edge
// distance) and traversal stops as soon as the caller stops pulling.
func (t *BKTree) RangeIter(query string, k int) Iterator {
	it := &bkIter{query: query, k: k}
	if root := t.root.Load(); root != nil && k >= 0 {
		it.stack = []*bkNode{root}
		it.dp = editdp.NewQueryDP(query)
	}
	return it
}

type bkIter struct {
	query string
	k     int
	stack []*bkNode
	st    Stats
	dp    *editdp.QueryDP
}

func (it *bkIter) Stats() Stats { return it.st }

func (it *bkIter) Next() (Match, bool) {
	for len(it.stack) > 0 {
		n := it.stack[len(it.stack)-1]
		it.stack = it.stack[:len(it.stack)-1]
		it.st.Candidates++
		it.st.Nodes++
		edges := n.loadEdges()
		// Distances beyond maxEdge+k can neither match (needs d <= k) nor
		// admit any child (needs e.dist >= d-k), so the verification is
		// budget-bounded — and when length skew alone exceeds the budget,
		// skipped outright. On leaves the budget collapses to k itself.
		budget := it.k
		if len(edges) > 0 {
			budget = edges[len(edges)-1].dist + it.k
		}
		if ld := len(it.query) - len(n.entry.S); ld > budget || -ld > budget {
			it.st.Pruned++
			continue
		}
		it.st.Verifications++
		d, ok := it.dp.Within(n.entry.S, budget)
		if !ok {
			it.st.Abandoned++
			it.st.Pruned++
			continue
		}
		// Triangle inequality: answers in child c require |d - c| <= k.
		// Push descending so children pop in ascending distance order.
		for i := len(edges) - 1; i >= 0; i-- {
			if edges[i].dist >= d-it.k && edges[i].dist <= d+it.k {
				it.stack = append(it.stack, edges[i].node)
			} else {
				it.st.Pruned++
			}
		}
		if d <= it.k {
			return Match{ID: n.entry.ID, S: n.entry.S, Dist: float64(d)}, true
		}
	}
	return Match{}, false
}
