package rtree

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Entry is one indexed point with its caller-assigned identifier.
type Entry struct {
	ID    int
	Point []float64
}

// Tree is an in-memory R*-tree over points. Not safe for concurrent
// mutation; concurrent searches of an immutable tree are fine.
type Tree struct {
	dim  int
	max  int // max entries per node
	min  int // min entries per node (fill guarantee)
	root *node
	size int

	// flat is the layout searches read (see flat.go); nil after an
	// Insert until the next search or Pack rebuilds it under flatMu.
	flat   atomic.Pointer[flat]
	flatMu sync.Mutex
}

type node struct {
	leaf     bool
	rect     Rect
	children []*node // internal nodes
	entries  []Entry // leaf nodes
	level    int     // 0 = leaf
}

// New returns an empty tree for points of the given dimensionality.
// maxEntries <= 0 selects the default of 32 (min = 40% of max, per the
// R* paper's recommendation).
func New(dim, maxEntries int) (*Tree, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("rtree: dimension must be positive, got %d", dim)
	}
	if maxEntries <= 0 {
		maxEntries = 32
	}
	if maxEntries < 4 {
		return nil, fmt.Errorf("rtree: maxEntries must be >= 4, got %d", maxEntries)
	}
	mn := maxEntries * 2 / 5
	if mn < 2 {
		mn = 2
	}
	return &Tree{dim: dim, max: maxEntries, min: mn}, nil
}

// Dim returns the point dimensionality.
func (t *Tree) Dim() int { return t.dim }

// Len returns the number of indexed entries.
func (t *Tree) Len() int { return t.size }

// Height returns the tree height (0 for the empty tree, 1 for a single
// leaf).
func (t *Tree) Height() int {
	if t.root == nil {
		return 0
	}
	return t.root.level + 1
}

// Insert adds a point with an identifier.
func (t *Tree) Insert(id int, p []float64) error {
	if len(p) != t.dim {
		return fmt.Errorf("rtree: point dim %d, want %d", len(p), t.dim)
	}
	q := make([]float64, t.dim)
	copy(q, p)
	e := Entry{ID: id, Point: q}
	if t.root == nil {
		t.root = &node{leaf: true, rect: PointRect(q), level: 0}
	}
	t.insertEntry(e, map[int]bool{})
	t.size++
	t.flat.Store(nil)
	return nil
}

// insertEntry performs R* insertion with one forced reinsert per level.
func (t *Tree) insertEntry(e Entry, reinserted map[int]bool) {
	split := t.insertAt(t.root, e, 0, reinserted)
	if split != nil {
		old := t.root
		t.root = &node{
			leaf:     false,
			level:    old.level + 1,
			children: []*node{old, split},
			rect:     old.rect.Enlarged(split.rect),
		}
	}
}

// insertAt descends to the target level and handles overflow. Returns a
// split sibling to be installed by the caller, or nil.
func (t *Tree) insertAt(n *node, e Entry, level int, reinserted map[int]bool) *node {
	n.rect = n.rect.Enlarged(PointRect(e.Point))
	if n.level == level {
		if !n.leaf {
			panic("rtree: level-0 node is not a leaf")
		}
		n.entries = append(n.entries, e)
		if len(n.entries) > t.max {
			return t.overflowLeaf(n, reinserted)
		}
		return nil
	}
	child := chooseSubtree(n, PointRect(e.Point))
	split := t.insertAt(child, e, level, reinserted)
	if split != nil {
		n.children = append(n.children, split)
		if len(n.children) > t.max {
			return t.overflowInternal(n, reinserted)
		}
	}
	t.tighten(n)
	return nil
}

// chooseSubtree implements the R* descent criterion: least overlap
// enlargement at the level above the leaves, least area enlargement
// elsewhere, ties by smaller area.
func chooseSubtree(n *node, r Rect) *node {
	best := n.children[0]
	if n.level == 1 {
		bestOverlap, bestEnl, bestArea := math.Inf(1), math.Inf(1), math.Inf(1)
		for _, c := range n.children {
			enlarged := c.rect.Enlarged(r)
			var overlap float64
			for _, o := range n.children {
				if o != c {
					overlap += enlarged.OverlapArea(o.rect)
				}
			}
			enl := enlarged.Area() - c.rect.Area()
			area := c.rect.Area()
			if overlap < bestOverlap ||
				(overlap == bestOverlap && enl < bestEnl) ||
				(overlap == bestOverlap && enl == bestEnl && area < bestArea) {
				best, bestOverlap, bestEnl, bestArea = c, overlap, enl, area
			}
		}
		return best
	}
	bestEnl, bestArea := math.Inf(1), math.Inf(1)
	for _, c := range n.children {
		enl := c.rect.Enlargement(r)
		area := c.rect.Area()
		if enl < bestEnl || (enl == bestEnl && area < bestArea) {
			best, bestEnl, bestArea = c, enl, area
		}
	}
	return best
}

// overflowLeaf applies forced reinsertion on first overflow per level,
// splitting otherwise.
func (t *Tree) overflowLeaf(n *node, reinserted map[int]bool) *node {
	if n != t.root && !reinserted[n.level] {
		reinserted[n.level] = true
		t.reinsertLeaf(n, reinserted)
		return nil
	}
	return t.splitLeaf(n)
}

func (t *Tree) overflowInternal(n *node, reinserted map[int]bool) *node {
	// Forced reinsertion of subtrees is rarely worth the complexity in
	// memory; the original paper applies it on all levels, most
	// implementations only on leaves. We split internal nodes directly.
	return t.splitInternal(n)
}

// reinsertLeaf removes the p entries farthest from the node center and
// reinserts them from the top (R* forced reinsert, p = 30%).
func (t *Tree) reinsertLeaf(n *node, reinserted map[int]bool) {
	p := len(n.entries) * 3 / 10
	if p < 1 {
		p = 1
	}
	center := n.rect.Center()
	sort.Slice(n.entries, func(i, j int) bool {
		return sqDist(n.entries[i].Point, center) > sqDist(n.entries[j].Point, center)
	})
	victims := make([]Entry, p)
	copy(victims, n.entries[:p])
	n.entries = append(n.entries[:0], n.entries[p:]...)
	t.tighten(n)
	for _, e := range victims {
		t.insertEntry(e, reinserted)
	}
}

func sqDist(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// splitLeaf applies the R* split to a leaf and returns the new sibling.
func (t *Tree) splitLeaf(n *node) *node {
	rects := make([]Rect, len(n.entries))
	for i, e := range n.entries {
		rects[i] = PointRect(e.Point)
	}
	order, cut := t.chooseSplit(rects)
	right := &node{leaf: true, level: n.level}
	oldEntries := n.entries
	var leftEntries, rightEntries []Entry
	for i, idx := range order {
		if i < cut {
			leftEntries = append(leftEntries, oldEntries[idx])
		} else {
			rightEntries = append(rightEntries, oldEntries[idx])
		}
	}
	n.entries = leftEntries
	right.entries = rightEntries
	t.tighten(n)
	t.tighten(right)
	return right
}

// splitInternal applies the R* split to an internal node.
func (t *Tree) splitInternal(n *node) *node {
	rects := make([]Rect, len(n.children))
	for i, c := range n.children {
		rects[i] = c.rect
	}
	order, cut := t.chooseSplit(rects)
	right := &node{leaf: false, level: n.level}
	oldChildren := n.children
	var leftCh, rightCh []*node
	for i, idx := range order {
		if i < cut {
			leftCh = append(leftCh, oldChildren[idx])
		} else {
			rightCh = append(rightCh, oldChildren[idx])
		}
	}
	n.children = leftCh
	right.children = rightCh
	t.tighten(n)
	t.tighten(right)
	return right
}

// chooseSplit implements the R* ChooseSplitAxis / ChooseSplitIndex: for
// every axis, sort by min then max; sum the margins of all legal
// distributions; pick the axis with the least margin sum, then the
// distribution with least overlap (ties: least total area). It returns
// a permutation of indices and the cut position.
func (t *Tree) chooseSplit(rects []Rect) ([]int, int) {
	total := len(rects)
	bestAxis, bestMargin := -1, math.Inf(1)
	var bestOrder []int
	for axis := 0; axis < t.dim; axis++ {
		for _, byMax := range []bool{false, true} {
			order := make([]int, total)
			for i := range order {
				order[i] = i
			}
			sort.Slice(order, func(a, b int) bool {
				ra, rb := rects[order[a]], rects[order[b]]
				if byMax {
					return ra.Max[axis] < rb.Max[axis]
				}
				return ra.Min[axis] < rb.Min[axis]
			})
			margin := 0.0
			for cut := t.min; cut <= total-t.min; cut++ {
				l, r := groupRects(rects, order, cut)
				margin += l.Margin() + r.Margin()
			}
			if margin < bestMargin {
				bestMargin, bestAxis, bestOrder = margin, axis, order
			}
		}
	}
	_ = bestAxis
	// Choose the cut on the winning ordering.
	bestCut, bestOverlap, bestArea := t.min, math.Inf(1), math.Inf(1)
	for cut := t.min; cut <= total-t.min; cut++ {
		l, r := groupRects(rects, bestOrder, cut)
		ov := l.OverlapArea(r)
		area := l.Area() + r.Area()
		if ov < bestOverlap || (ov == bestOverlap && area < bestArea) {
			bestCut, bestOverlap, bestArea = cut, ov, area
		}
	}
	return bestOrder, bestCut
}

func groupRects(rects []Rect, order []int, cut int) (Rect, Rect) {
	l := rects[order[0]].Copy()
	for _, idx := range order[1:cut] {
		l = l.Enlarged(rects[idx])
	}
	r := rects[order[cut]].Copy()
	for _, idx := range order[cut+1:] {
		r = r.Enlarged(rects[idx])
	}
	return l, r
}

// tighten recomputes a node's bounding rectangle from its content.
func (t *Tree) tighten(n *node) {
	if n.leaf {
		if len(n.entries) == 0 {
			return
		}
		r := PointRect(n.entries[0].Point)
		for _, e := range n.entries[1:] {
			r = r.Enlarged(PointRect(e.Point))
		}
		n.rect = r
		return
	}
	if len(n.children) == 0 {
		return
	}
	r := n.children[0].rect.Copy()
	for _, c := range n.children[1:] {
		r = r.Enlarged(c.rect)
	}
	n.rect = r
}

// checkInvariants verifies structural invariants; used by tests.
func (t *Tree) checkInvariants() error {
	if t.root == nil {
		return nil
	}
	count := 0
	var walk func(n *node, isRoot bool) error
	walk = func(n *node, isRoot bool) error {
		if n.leaf {
			if n.level != 0 {
				return fmt.Errorf("leaf at level %d", n.level)
			}
			count += len(n.entries)
			if !isRoot && (len(n.entries) < t.min || len(n.entries) > t.max) {
				return fmt.Errorf("leaf fill %d outside [%d,%d]", len(n.entries), t.min, t.max)
			}
			for _, e := range n.entries {
				if !n.rect.Contains(e.Point) {
					return fmt.Errorf("leaf rect does not contain entry %d", e.ID)
				}
			}
			return nil
		}
		if !isRoot && (len(n.children) < t.min || len(n.children) > t.max) {
			return fmt.Errorf("node fill %d outside [%d,%d]", len(n.children), t.min, t.max)
		}
		if isRoot && len(n.children) < 2 {
			return fmt.Errorf("root with %d children", len(n.children))
		}
		for _, c := range n.children {
			if c.level != n.level-1 {
				return fmt.Errorf("child level %d under level %d", c.level, n.level)
			}
			if !n.rect.ContainsRect(c.rect) {
				return fmt.Errorf("node rect does not contain child rect")
			}
			if err := walk(c, false); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root, true); err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("entry count %d, size %d", count, t.size)
	}
	return nil
}
