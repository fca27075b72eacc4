package relation

import (
	"cmp"
	"context"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/index"
	"repro/internal/metric"
)

// VecView is the vector column regrouped for one metric: the access
// structure of every vector WITHIN, NEAREST and vector join probe. It is
// a vantage-point partition bulk-loaded over a contiguous copy of the
// vectors, under the triangular distance t the metric names
// (metric.Pruner): the metric itself for l2, the chord for cosine. Each
// internal node splits its rows by their t-distance to a vantage vector,
// the mean of those rows, into two children, and each child keeps the
// interval [dmin, dmax] of those distances. Under the triangle
// inequality a query at distance d from the vantage is at least
// max(dmin-d, d-dmax) from every row of the child, so a walk skips
// children whose bound exceeds its radius, mapped into t by the
// metric's Reach. The leaves are runs of vecLeaf consecutive rows of the
// copy. Each row keeps its own t-distance to its leaf's parent vantage,
// the same bound for a single row; a leaf's rows ascend by it, so the
// rows that pass form one run, verified by one DistBatch of the metric
// over contiguous memory. A metric that is no Pruner gets a flat view:
// one root leaf, no vantages, every row verified.
//
// A child is also at most d+dmax from the query. When that is inside
// the radius, the walk verifies the child's rows in place as one run,
// with no vantage distance below it, so a walk past the data's diameter
// is a sequential scan; a walk that visits everything otherwise pays one
// vantage distance per vecLeaf rows on top of it.
//
// It follows LengthView's contract: built lazily, extended online by
// the insert paths under the relation's commit lock (single writer),
// read lock-free, rebuilt by compaction. An insert routes its row down
// the partition as a walk would, widening each interval on its path to
// cover the row, and appends it to its leaf's overflow, so a walk
// prunes inserted rows like built ones. Once the rows inserted since
// the build outnumber the built ones, the insert installs a rebuilt
// view instead, a doubling that keeps the rebuild's cost per insert
// constant. The view holds a superset of any snapshot taken while it
// is installed, and its walks keep only the rows the snapshot's
// VisibleRow admits.
type VecView struct {
	m     metric.Distance           // the metric, which verifies rows
	gen   uint64                    // m's registration generation; 0 when unregistered
	p     metric.Pruner             // m as a Pruner; nil for a flat view
	t     metric.Distance           // p's pruning distance
	vecs  []metric.Vector           // built rows in leaf order, windows of one contiguous copy
	rows  []*Row                    // parallel to vecs
	pivot []float64                 // parallel to vecs: t-distance to the leaf's parent vantage
	nodes []vecNode                 // nodes[0] is the root
	over  []atomic.Pointer[vecOver] // per leaf: the rows inserted since the build
	added int                       // rows inserted since the build (writer only)
}

// vecNode is one node of the partition: the built rows vecs[lo:hi], at
// t-distances [dmin, dmax] from the parent's vantage (the root, which has
// none, is unbounded: [0, +Inf]). An internal node's children are
// nodes[left] and nodes[left+1]; a leaf has left == 0 and is leaf
// number lo/vecLeaf. Inserts widen dmin and dmax, stored as float64
// bits, while walks of older snapshots read them.
type vecNode struct {
	lo, hi     int32
	left       int32
	vantage    metric.Vector
	dmin, dmax uint64
}

func (n *vecNode) bounds() (dmin, dmax float64) {
	return math.Float64frombits(atomic.LoadUint64(&n.dmin)), math.Float64frombits(atomic.LoadUint64(&n.dmax))
}

func (n *vecNode) setBounds(dmin, dmax float64) {
	atomic.StoreUint64(&n.dmin, math.Float64bits(dmin))
	atomic.StoreUint64(&n.dmax, math.Float64bits(dmax))
}

// vecOver holds one leaf's inserted rows. Appends write beyond every
// published length and then publish a longer header, as the length
// view's buckets do.
type vecOver struct {
	vecs []metric.Vector
	rows []*Row
}

// vecLeaf is the number of built rows in every leaf but the last; the
// leaf-size sweep in EXPERIMENTS.md ("The vector view") chose it.
// vecMeanSample bounds the rows a node's vantage averages, which keeps
// the build no slower than the VP-tree's.
const (
	vecLeaf       = 32
	vecMeanSample = 64
)

// boundSlack relaxes every triangle-inequality bound by a relative few
// ulps of the distances it combines: each of the three distances is
// rounded, so without it a row at exactly the radius could be pruned.
// Relaxing a bound only costs a visit.
const boundSlack = 1e-12

// vecEnt is one built row during a build, with its distance to the
// vantage of the last split that moved it: for a leaf row, its parent's.
type vecEnt struct {
	row *Row
	d   float64
}

// vecBuild is one bulk load in progress.
type vecBuild struct {
	v      *VecView
	ents   []vecEnt  // the built rows, regrouped in place by the splits
	vdata  []float32 // the vantages' copy, maxDim floats per vantage slot
	maxDim int
}

// buildVecView bulk-loads a view over the arena rows that carry a
// vector, for metric m at registration generation gen. The partition's
// shape depends only on the row count, so it is laid out first; the
// splits then fill it on GOMAXPROCS goroutines, disjoint subtrees
// concurrently. The build is deterministic: the same rows in the same
// order give the same view, field for field, at any GOMAXPROCS, so
// walks repeat their work counts exactly.
func buildVecView(m metric.Distance, gen uint64, rows []*Row) *VecView {
	var ents []vecEnt
	maxDim := 0
	for _, row := range rows {
		if row.Vec != nil {
			ents = append(ents, vecEnt{row: row})
			maxDim = max(maxDim, len(row.Vec))
		}
	}
	v := &VecView{m: m, gen: gen}
	if p, ok := m.(metric.Pruner); ok {
		v.p, v.t = p, p.Pruning()
	}
	// An empty view is one empty root leaf, which inserts fill; so is a
	// flat one.
	leaves := max(1, (len(ents)+vecLeaf-1)/vecLeaf)
	if v.p == nil {
		leaves = 1
	}
	v.over = make([]atomic.Pointer[vecOver], leaves)
	v.nodes = vecShape(len(ents), leaves)
	// The vantages share one copy of their own, laid out depth first as
	// the walks read them: a partition of L leaves has L-1 vantages, and
	// the one of the internal node whose children are nodes[left] and
	// nodes[left+1] takes slot (left-1)/2, maxDim floats wide.
	b := &vecBuild{v: v, ents: ents, vdata: make([]float32, (leaves-1)*maxDim), maxDim: maxDim}
	workers := runtime.GOMAXPROCS(0)
	b.split(0, workers)
	b.copyRows(workers)
	return v
}

// vecShape lays out the partition of n built rows into the given
// number of leaves: every node's row range and children. An internal
// node's children split its leaves in two, the inner child taking the
// larger half, so the only short leaf is the last row range. Internal
// nodes get their children in the order a depth-first walk that visits
// the outer child first reaches them.
func vecShape(n, leaves int) []vecNode {
	nodes := make([]vecNode, 1, 2*leaves-1)
	nodes[0] = vecNode{hi: int32(n), dmax: math.Float64bits(math.Inf(1))}
	if leaves == 1 {
		return nodes
	}
	for stack := []int32{0}; len(stack) > 0; {
		node := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		lo, hi := nodes[node].lo, nodes[node].hi
		if hi-lo <= vecLeaf {
			continue
		}
		mid := lo + ((hi-lo+vecLeaf-1)/vecLeaf+1)/2*vecLeaf
		left := int32(len(nodes))
		nodes[node].left = left
		nodes = append(nodes, vecNode{lo: lo, hi: mid}, vecNode{lo: mid, hi: hi})
		stack = append(stack, left, left+1)
	}
	return nodes
}

// split fills the subtree under node on up to workers goroutines. An
// internal node measures its rows' distances to its vantage on all of
// them, moves the nearer rows to its inner child and sets both
// children's intervals; its children then split concurrently, sharing
// its workers. A leaf sorts its rows by distance to its parent's
// vantage, so the rows a walk's pivot bound admits form one run (a
// flat view's one leaf sorts each vecLeaf-row run of it).
func (b *vecBuild) split(node int32, workers int) {
	n := &b.v.nodes[node]
	lo, hi := int(n.lo), int(n.hi)
	if n.left == 0 {
		for ; lo < hi; lo += vecLeaf {
			slices.SortFunc(b.ents[lo:min(lo+vecLeaf, hi)], func(a, b vecEnt) int {
				return cmp.Or(cmp.Compare(a.d, b.d), cmp.Compare(a.row.ID, b.row.ID))
			})
		}
		return
	}
	part := b.ents[lo:hi]
	// The vantage is the mean of up to vecMeanSample evenly spaced rows
	// of the partition (shorter vectors zero-padded, as the metrics
	// compare them). The triangle inequality holds for any point of the
	// space, not only for rows, and on clustered data a central vantage
	// prunes best (EXPERIMENTS.md, "The vector view").
	dim := 0
	for _, e := range part {
		dim = max(dim, len(e.row.Vec))
	}
	sum := make([]float64, dim)
	step := max(1, len(part)/vecMeanSample)
	cnt := 0
	for i := 0; i < len(part); i += step {
		vec := part[i].row.Vec
		acc := sum[:len(vec)]
		for j, x := range vec[:len(acc)] {
			acc[j] += float64(x)
		}
		cnt++
	}
	off := int(n.left-1) / 2 * b.maxDim
	vantage := metric.Vector(b.vdata[off : off+dim : off+dim])
	for j, x := range sum {
		vantage[j] = float32(x / float64(cnt))
	}
	n.vantage = vantage
	t := b.v.t
	inParallel(len(part), workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			part[i].d = t.Dist(vantage, part[i].row.Vec)
		}
	})
	inner, outer := &b.v.nodes[n.left], &b.v.nodes[n.left+1]
	k := int(inner.hi) - lo
	splitAt(part, k, func(a, b vecEnt) bool { return a.d < b.d || a.d == b.d && a.row.ID < b.row.ID })
	for _, c := range []*vecNode{inner, outer} {
		dmin, dmax := math.Inf(1), math.Inf(-1)
		for _, e := range b.ents[c.lo:c.hi] {
			dmin, dmax = min(dmin, e.d), max(dmax, e.d)
		}
		c.setBounds(dmin, dmax)
	}
	if workers == 1 {
		b.split(n.left, 1)
		b.split(n.left+1, 1)
		return
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		b.split(n.left+1, workers/2)
	}()
	b.split(n.left, workers-workers/2)
	wg.Wait()
}

// copyRows lays the built rows out in leaf order: their vectors in one
// contiguous copy, each row's window of it, the rows and their pivots,
// on up to workers goroutines over contiguous ranges.
func (b *vecBuild) copyRows(workers int) {
	v, ents := b.v, b.ents
	v.vecs = make([]metric.Vector, len(ents))
	v.rows = make([]*Row, len(ents))
	v.pivot = make([]float64, len(ents))
	// Each range's first offset into the copy is the dimensions of the
	// ranges before it.
	offs := make([]int, workers+1)
	inParallel(len(ents), workers, func(c, lo, hi int) {
		for _, e := range ents[lo:hi] {
			offs[c+1] += len(e.row.Vec)
		}
	})
	for c := range workers {
		offs[c+1] += offs[c]
	}
	data := make([]float32, offs[workers])
	inParallel(len(ents), workers, func(c, lo, hi int) {
		off := offs[c]
		for i := lo; i < hi; i++ {
			e := ents[i]
			end := off + copy(data[off:], e.row.Vec)
			v.vecs[i], v.rows[i], v.pivot[i] = data[off:end:end], e.row, e.d
			off = end
		}
	})
}

// rebuilt is a view of the same metric and registration over rows.
func (v *VecView) rebuilt(rows []*Row) *VecView { return buildVecView(v.m, v.gen, rows) }

// splitAt reorders s so that its first k elements are its k smallest
// under less, a strict total order: a quickselect with a
// median-of-three pivot, deterministic for a given input.
func splitAt[T any](s []T, k int, less func(a, b T) bool) {
	lo, hi := 0, len(s)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if less(s[mid], s[lo]) {
			s[mid], s[lo] = s[lo], s[mid]
		}
		if less(s[hi], s[lo]) {
			s[hi], s[lo] = s[lo], s[hi]
		}
		if less(s[hi], s[mid]) {
			s[hi], s[mid] = s[mid], s[hi]
		}
		pivot := s[mid]
		i, j := lo, hi
		for i <= j {
			for less(s[i], pivot) {
				i++
			}
			for less(pivot, s[j]) {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i++
				j--
			}
		}
		// s[lo:j+1] <= pivot <= s[i:hi+1], and s[j+1:i] == pivot.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return
		}
	}
}

// insert routes a vector-bearing row to a leaf, widening the interval
// of every node on its path to cover it, appends it to that leaf's
// overflow and reports whether the inserted rows now outnumber the
// built ones. At each internal node the row takes the child whose
// interval holds its distance to the vantage, or needs the smaller
// widening. Single-writer only; see the type comment.
func (v *VecView) insert(row *Row) (rebuild bool) {
	node := int32(0)
	for v.nodes[node].left != 0 {
		n := &v.nodes[node]
		d := v.t.Dist(n.vantage, row.Vec)
		inner, outer := &v.nodes[n.left], &v.nodes[n.left+1]
		imin, imax := inner.bounds()
		omin, omax := outer.bounds()
		c, cmin, cmax := inner, imin, imax
		if d > imax && (d >= omin || d-imax > omin-d) {
			c, cmin, cmax = outer, omin, omax
		}
		if d < cmin || d > cmax {
			c.setBounds(min(cmin, d), max(cmax, d))
		}
		node = n.left
		if c == outer {
			node++
		}
	}
	slot := &v.over[v.nodes[node].lo/vecLeaf]
	o := slot.Load()
	if o == nil {
		o = &vecOver{}
	}
	slot.Store(&vecOver{vecs: append(o.vecs, row.Vec), rows: append(o.rows, row)})
	v.added++
	return v.added > max(vecLeaf, len(v.rows))
}

// gap is the triangle-inequality bound on the distance from a query at
// distance d from a vantage to any row whose distance to that vantage
// lies in [dmin, dmax], relaxed by boundSlack.
func gap(d, dmin, dmax float64) float64 {
	return max(dmin-d, d-dmax) - boundSlack*(d+dmax)
}

// vecStackCap bounds a walk's explicit stack: each level leaves at most
// one sibling on it, and the partition is balanced, so 128 levels cover
// any relation.
const vecStackCap = 128

type vecPending struct {
	node  int32
	bound float64 // lower bound on the t-distance from q to the node's rows
	pd    float64 // q's t-distance to the node's parent vantage (0 for the root)
}

// walk hands emit, a leaf or a vecLeaf-row run at a time, the rows
// visible at snap whose distance from q is at most *bound, with those
// distances. A range search passes its radius; a NEAREST k lowers *bound
// from emit to its current k-th best distance, and the walk prunes by
// the lowered bound from then on, mapped into t by Reach each time it
// moves. It visits near children first and verifies each leaf, and each
// run of a subtree inside the bound, with one DistBatch of the metric
// per vecLeaf rows. Stats count every distance the walk computes as a
// verification: vantages, the built rows in the run a leaf's pivot
// bound admits, and inserted rows.
//
// Built rows skip the visibility filter when snap's arena holds no
// tombstone: the view snap's head carries was built from rows of that
// head or an earlier one, so every built row was born at or before snap,
// and without tombstones it is alive there too, the argument
// Cursor.allLive makes. Inserted rows may postdate snap and are always
// checked. Snapshot.VecWalk is the only caller, which keeps the view
// and the snapshot paired. The walk reads ctx before each node it
// visits and stops with ctx's error once it is done.
func (v *VecView) walk(ctx context.Context, snap *Snapshot, q metric.Vector, bound *float64, emit func(rows []*Row, dists []float64)) (index.Stats, error) {
	var st index.Stats
	var dists [vecLeaf]float64
	var rows [vecLeaf]*Row
	// verify computes the distances of consecutive rows with one
	// DistBatch per vecLeaf of them and emits the rows within the bound,
	// filtered through VisibleRow when check. A batch whose rows all
	// pass is emitted as it lies in the view, uncopied: the common case
	// of a walk that visits everything.
	verify := func(vs []metric.Vector, rs []*Row, check bool) {
		st.Candidates += len(vs)
		st.Verifications += len(vs)
		for lo := 0; lo < len(vs); lo += vecLeaf {
			ds := dists[:min(vecLeaf, len(vs)-lo)]
			run := rs[lo : lo+len(ds)]
			metric.DistBatch(v.m, q, vs[lo:lo+len(ds)], ds)
			b, k := *bound, 0
			for _, d := range ds {
				if d <= b {
					k++
				}
			}
			if k == len(ds) && !check {
				emit(run, ds)
				continue
			}
			k = 0
			for i, d := range ds {
				// The bound test first: visibility costs an atomic load.
				if d <= b && (!check || snap.VisibleRow(run[i])) {
					rows[k], dists[k] = run[i], d
					k++
				}
			}
			if k > 0 {
				emit(rows[:k], dists[:k])
			}
		}
	}
	// overflow verifies the rows inserted into leaves [first, last].
	overflow := func(first, last int32) {
		for l := first; l <= last; l++ {
			if o := v.over[l].Load(); o != nil {
				verify(o.vecs, o.rows, true)
			}
		}
	}
	check := snap.h.dead > 0
	// reach is *bound mapped into t, refreshed when the bound moves; a
	// flat view prunes nothing.
	last, reach := math.NaN(), math.Inf(1)
	var stack [vecStackCap]vecPending
	stack[0] = vecPending{node: 0, bound: math.Inf(-1)}
	done := ctx.Done()
	for sp := 1; sp > 0; {
		if v.p != nil && *bound != last {
			last = *bound
			reach = v.p.Reach(last)
		}
		sp--
		p := stack[sp]
		if p.bound > reach {
			st.Pruned++
			continue
		}
		select {
		case <-done:
			return st, ctx.Err()
		default:
		}
		n := &v.nodes[p.node]
		st.Nodes++
		// Every row of a node is within p.pd + dmax of q. When that is
		// inside the bound, no row of the node can be pruned, so its
		// rows are verified in place as one run, with no vantage
		// distance below it. A bound of +Inf is NEAREST's before its
		// best list fills, about to shrink, so it never takes this path.
		if _, dmax := n.bounds(); !math.IsInf(reach, 1) && p.pd+dmax <= reach {
			verify(v.vecs[n.lo:n.hi], v.rows[n.lo:n.hi], check)
			overflow(n.lo/vecLeaf, (n.hi-1)/vecLeaf)
			continue
		}
		if n.left == 0 {
			// Each built row's pivot, its distance to the parent
			// vantage, bounds it as an interval bounds a node. The
			// bound is smallest at pivot p.pd and grows away from it,
			// so the rows it admits form one run of the leaf, which
			// the two scans find. A root leaf has no parent: its
			// pivots and p.pd are 0, which admits every row.
			lo, hi := n.lo, n.hi
			for lo < hi && gap(p.pd, v.pivot[lo], v.pivot[lo]) > reach {
				lo++
			}
			for hi > lo && gap(p.pd, v.pivot[hi-1], v.pivot[hi-1]) > reach {
				hi--
			}
			verify(v.vecs[lo:hi], v.rows[lo:hi], check)
			overflow(n.lo/vecLeaf, n.lo/vecLeaf)
			continue
		}
		d := v.t.Dist(q, n.vantage)
		st.Verifications++
		near, far := v.pending(n.left, d), v.pending(n.left+1, d)
		if far.bound < near.bound {
			near, far = far, near
		}
		stack[sp], stack[sp+1] = far, near // near pops first
		sp += 2
	}
	return st, nil
}

// pending is the child node i of a node whose vantage is at distance d
// from the query.
func (v *VecView) pending(i int32, d float64) vecPending {
	dmin, dmax := v.nodes[i].bounds()
	return vecPending{i, gap(d, dmin, dmax), d}
}
