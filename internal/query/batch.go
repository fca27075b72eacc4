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
// sequence / vector / attribute columns per slot, plus the distance
// columns). The block size is fixed when the engine is constructed
// (WithBatchSize, default 256); block size 1 is the degenerate
// row-at-a-time case of the same operators, which is what the parity
// oracles compare the default against.
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
//     keep into pooled batches of their own before the next pull.
//   - A join copies its outer row's slots into its own output batch and
//     fills the next slot with the inner match (see slotMap).

import (
	"fmt"
	"sync"

	"repro/internal/relation"
)

// Batch is one block of rows flowing through the pipeline. A row binds
// one tuple per slot of the statement (slotMap): the embedded
// relation.Block is slot 0 — the only slot of a single-relation plan —
// and inner holds the slots a join chain adds, one per step. dist and
// has are the rows' running distance state, and rows holds the
// projected output rows once a Project has run. Every slot column and
// dist/has have the batch's Len rows.
type Batch struct {
	relation.Block
	inner []relation.Block
	dist  []float64
	has   []bool
	rows  [][]string
}

// slot returns the column block of slot s.
func (b *Batch) slot(s int) *relation.Block {
	if s == 0 {
		return &b.Block
	}
	return &b.inner[s-1]
}

// width returns the number of slots each row binds.
func (b *Batch) width() int { return 1 + len(b.inner) }

// reset empties the batch (keeping capacity) and gives it width slots.
func (b *Batch) reset(width int) {
	b.Block.Reset()
	if cap(b.inner) < width-1 {
		b.inner = make([]relation.Block, width-1)
	}
	b.inner = b.inner[:width-1]
	for i := range b.inner {
		b.inner[i].Reset()
	}
	b.dist = b.dist[:0]
	b.has = b.has[:0]
	b.rows = b.rows[:0]
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

// appendMatch adds one (tuple, distance) row to a one-slot batch.
func (b *Batch) appendMatch(t relation.Tuple, dist float64, has bool) {
	b.Block.Append(t.ID, t.Seq, t.Vec, t.Attrs)
	b.dist = append(b.dist, dist)
	b.has = append(b.has, has)
}

// appendRow adds row i of src, every slot and its distance state. An
// empty batch takes src's width first.
func (b *Batch) appendRow(src *Batch, i int) {
	if b.Len() == 0 {
		b.reset(src.width())
	}
	for s := range src.width() {
		from := src.slot(s)
		b.slot(s).Append(from.IDs[i], from.Seqs[i], from.Vecs[i], from.Attrs[i])
	}
	b.dist = append(b.dist, src.dist[i])
	b.has = append(b.has, src.has[i])
}

// appendRows adds every row of src, as appendRow does one.
func (b *Batch) appendRows(src *Batch) {
	if b.Len() == 0 {
		b.reset(src.width())
	}
	for s := range src.width() {
		to, from := b.slot(s), src.slot(s)
		to.IDs = append(to.IDs, from.IDs...)
		to.Seqs = append(to.Seqs, from.Seqs...)
		to.Vecs = append(to.Vecs, from.Vecs...)
		to.Attrs = append(to.Attrs, from.Attrs...)
	}
	b.dist = append(b.dist, src.dist...)
	b.has = append(b.has, src.has...)
}

// moveRow overwrites row w with row i, the filter's in-place compaction.
func (b *Batch) moveRow(w, i int) {
	for s := range b.width() {
		c := b.slot(s)
		c.IDs[w], c.Seqs[w], c.Vecs[w], c.Attrs[w] = c.IDs[i], c.Seqs[i], c.Vecs[i], c.Attrs[i]
	}
	b.dist[w], b.has[w] = b.dist[i], b.has[i]
}

// truncate keeps the first n rows.
func (b *Batch) truncate(n int) {
	for s := range b.width() {
		c := b.slot(s)
		c.IDs, c.Seqs, c.Vecs, c.Attrs = c.IDs[:n], c.Seqs[:n], c.Vecs[:n], c.Attrs[:n]
	}
	b.dist, b.has = b.dist[:n], b.has[:n]
	if len(b.rows) > n {
		b.rows = b.rows[:n]
	}
}

// slotMap names the slots of a statement's rows: slot i binds the tuple
// of alias slotMap[i]. A single-relation plan has one slot; a join
// chain gives its start alias slot 0 and each step's inner alias the
// next slot, in join order, so a step's outer rows are exactly the
// slots before its own.
type slotMap []string

// resolve returns the slot a field reference reads: its alias's, or for
// an unqualified field the only slot. Otherwise it returns the error
// reading the field raises on every row.
func (m slotMap) resolve(f FieldRef) (int, error) {
	if f.Table != "" {
		for s, alias := range m {
			if alias == f.Table {
				return s, nil
			}
		}
		return 0, fmt.Errorf("query: unknown alias %q", f.Table)
	}
	if len(m) == 1 {
		return 0, nil
	}
	return 0, fmt.Errorf("query: ambiguous field %q; qualify with an alias", f.Name)
}

// batchPool recycles Batch buffers across queries. Leaves take a batch
// at OpenBatch and return it at CloseBatch; materializing operators
// take batches for their output streams. The pool is the only
// cross-query allocation amortization — within one pipeline a leaf
// refills the same batch every NextBatch call.
var batchPool = sync.Pool{New: func() any { return new(Batch) }}

func getBatch() *Batch {
	b := batchPool.Get().(*Batch)
	b.reset(1)
	return b
}

func putBatch(b *Batch) {
	if b != nil {
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
