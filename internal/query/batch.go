package query

// Batch-at-a-time execution: the engine's one operator protocol. Per-row
// costs — interface dispatch, cursor stepping, predicate-tree walking,
// rule-set registry lookups — rival the distance computations
// themselves on the scan/filter-heavy workloads the paper's similarity
// queries are dominated by, so every operator works on a block of
// tuples and pays them once per block:
//
//	BatchOperator: OpenBatch -> NextBatch* -> CloseBatch
//
// with NextBatch returning a column-oriented Batch (parallel tuple-id /
// sequence / attribute / distance slices). The block size is fixed when
// the engine is constructed (WithBatchSize, default 256); block size 1
// is the degenerate row-at-a-time case of the same operators, which is
// what the parity oracles compare the default against.
//
// Ownership and recycling rules (DESIGN.md has the full story):
//
//   - A batch returned by NextBatch is valid until the next NextBatch
//     or CloseBatch call on the same operator. Leaves allocate one
//     batch from the shared pool at OpenBatch, refill it per call, and
//     release it at CloseBatch.
//   - In-place decorators (Filter, Limit, Project) mutate and forward
//     the child's batch; they own nothing.
//   - Materializing operators (OrderByDist, GatherMerge) copy what they
//     keep into buffers of their own before the next pull.
//   - Joins emit multi-alias rows, which have no columnar form: their
//     batches carry bindings instead of columns and every operator
//     above a join accepts either layout.

import (
	"sync"

	"repro/internal/relation"
)

// Batch is one block of tuples flowing through the batch pipeline, in
// one of two layouts:
//
//   - columnar (binds == nil): the embedded relation.Block plus the
//     parallel dist/has columns. The layout every converted operator
//     works on directly.
//   - bindings (binds != nil): a block of multi-alias bindings, as
//     emitted by the join operator. The columnar slices are unused in
//     this layout.
//
// rows holds the projected output rows once a Project has run; row i of
// rows corresponds to row i of the active layout.
type Batch struct {
	relation.Block
	alias string // alias the columnar tuples are bound under
	dist  []float64
	has   []bool
	rows  [][]string
	binds []*binding
}

// Len returns the number of rows in the batch under either layout.
func (b *Batch) Len() int {
	if b.binds != nil {
		return len(b.binds)
	}
	return b.Block.Len()
}

// reset empties the batch (keeping capacity) and selects the columnar
// layout.
func (b *Batch) reset() {
	b.Block.Reset()
	b.alias = ""
	b.dist = b.dist[:0]
	b.has = b.has[:0]
	b.rows = b.rows[:0]
	b.binds = nil
}

// syncCols resizes the dist/has columns to match the block after a leaf
// filled it, clearing the distance state of every row.
func (b *Batch) syncCols() {
	n := b.Block.Len()
	// Check both capacities: dist and has grow through independent
	// appends elsewhere (appendMatch, the gather) and float64 vs bool hit
	// different allocator size classes, so a pooled batch can come back
	// with diverged capacities.
	if cap(b.dist) < n {
		b.dist = make([]float64, n)
	} else {
		b.dist = b.dist[:n]
	}
	if cap(b.has) < n {
		b.has = make([]bool, n)
	} else {
		b.has = b.has[:n]
	}
	for i := range b.dist {
		b.dist[i] = 0
	}
	for i := range b.has {
		b.has[i] = false
	}
}

// appendMatch adds one (tuple, distance) row in the columnar layout.
func (b *Batch) appendMatch(t relation.Tuple, dist float64, has bool) {
	b.Block.Append(t.ID, t.Seq, t.Vec, t.Attrs)
	b.dist = append(b.dist, dist)
	b.has = append(b.has, has)
}

// truncate keeps the first n rows of the active layout.
func (b *Batch) truncate(n int) {
	if b.binds != nil {
		b.binds = b.binds[:n]
	} else {
		b.IDs, b.Seqs, b.Vecs, b.Attrs = b.IDs[:n], b.Seqs[:n], b.Vecs[:n], b.Attrs[:n]
		b.dist, b.has = b.dist[:n], b.has[:n]
	}
	if len(b.rows) > n {
		b.rows = b.rows[:n]
	}
}

// scratch loads row i into a reusable binding without allocating —
// the in-place decorators' view of a columnar row.
func (b *Batch) scratch(i int, alias string, dst *binding) {
	*dst = binding{alias: alias, tuple: relation.Tuple{ID: b.IDs[i], Seq: b.Seqs[i], Vec: b.Vecs[i], Attrs: b.Attrs[i]},
		dist: b.dist[i], hasDist: b.has[i]}
}

// batchPool recycles Batch buffers across queries. Leaves take a batch
// at OpenBatch and return it at CloseBatch; materializing operators
// take batches for their output streams. The pool is the only
// cross-query allocation amortization — within one pipeline a leaf
// refills the same batch every NextBatch call.
var batchPool = sync.Pool{New: func() any { return new(Batch) }}

func getBatch() *Batch {
	b := batchPool.Get().(*Batch)
	b.reset()
	return b
}

func putBatch(b *Batch) {
	if b != nil {
		b.binds = nil
		batchPool.Put(b)
	}
}

// BatchOperator is the physical operator interface, the Volcano
// protocol lifted to blocks: OpenBatch -> NextBatch* -> CloseBatch, with
// NextBatch returning nil at end of stream. Every access path, filter,
// join and decorator implements it, so the planner composes them freely
// and EXPLAIN renders any plan as a tree. Work counters accumulate
// locally and flush into the shared execCtx on CloseBatch, so parallel
// sub-plans never race on the counters.
type BatchOperator interface {
	OpenBatch() error
	NextBatch() (*Batch, error)
	CloseBatch() error
	// Describe returns the one-line operator label for EXPLAIN.
	Describe() string
	// childNodes returns the operator's inputs for the EXPLAIN tree walk.
	childNodes() []BatchOperator
}
