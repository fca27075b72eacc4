package query

// The fan-out. A table is a list of snapshots: one for a Relation, one
// per shard of a consistent view for a ShardedRelation (snapshotsOf). A
// plan reads that list as streams — every snapshot whole, or, for a
// parallel scan or scan-rooted join chain over a plain table, its one
// snapshot as contiguous id-range slices — and fanOut builds one
// pipeline per stream. A plain table read whole is one pipeline; every
// other plan runs its pipelines under a GatherMerge, which drains them
// through a bounded worker pool and merges their outputs:
//
//   - merge=id (scans, WITHIN, join chains): streams merge in ascending
//     global tuple id, which reconstructs exactly the serial scan order
//     (ids are global, every arena is id-ascending and a slice is an id
//     range). Every such stream arrives id-ascending — scans read in id
//     order, WITHIN leaves sort their matches by id, join chains emit in
//     outer order — so the merge never sorts.
//   - merge=bestk (NEAREST): each shard produces its own k-best list
//     sorted by (dist, id); the gather is a rank-aware bounded merge
//     that repeatedly takes the smallest (dist, id) frontier entry and
//     terminates after k results — once the global k-th best is fixed,
//     no shard's remaining (worse) entries are ever examined. The
//     (dist, id) order makes equal-distance ties deterministic by row
//     key no matter which shard finished first.

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/metric"
	"repro/internal/obs"
	"repro/internal/relation"
)

// stream is what one pipeline of a plan reads: slice `slice` of
// `slices` contiguous id ranges of snap (0 of 1 is all of it), shown in
// EXPLAIN as shard `shard` of `shards` when the plan reads several.
// Only scans read part of a snapshot; every other leaf reads all of it.
type stream struct {
	snap          *relation.Snapshot
	slice, slices int
	shard, shards int
}

// shardNote is a leaf's EXPLAIN label for its stream: empty when the
// plan reads one.
func (s stream) shardNote() string {
	if s.shards > 1 {
		return fmt.Sprintf(", shard %d/%d", s.shard, s.shards)
	}
	return ""
}

// shardsOf returns a table's shard count, 0 for a plain Relation.
func shardsOf(tab relation.Table) int {
	if sh, ok := tab.(*relation.ShardedRelation); ok {
		return sh.NumShards()
	}
	return 0
}

// snapshotsOf ensures the shared structures a plan reads from tab — its
// length view when lengthView, a VP-tree per non-nil metric of vps —
// and then appends the table's snapshots to dst: one for a Relation,
// one per shard of a consistent view for a ShardedRelation. Ensuring
// first makes every snapshot carry the online-maintained structures
// instead of building private ones per query.
func snapshotsOf(dst []*relation.Snapshot, tab relation.Table, lengthView bool, vps ...metric.Distance) []*relation.Snapshot {
	switch t := tab.(type) {
	case *relation.ShardedRelation:
		if lengthView {
			t.EnsureLengthViews()
		}
		for _, m := range vps {
			if m != nil {
				t.EnsureVPTrees(m)
			}
		}
		view := t.View()
		for i := 0; i < view.NumShards(); i++ {
			dst = append(dst, view.Snap(i))
		}
	case *relation.Relation:
		if lengthView {
			t.LengthView()
		}
		for _, m := range vps {
			if m != nil {
				t.VPTree(m)
			}
		}
		dst = append(dst, t.Snapshot())
	}
	return dst
}

// streams returns how many pipelines a plan runs and whether they run
// under a gather: one per shard of a sharded table (even a single
// shard, so a sharded plan has one shape whatever its shard count), one
// per slice of a parallel plan, or one pipeline over a plain table.
func (d *planDecision) streams() (n int, gathered bool) {
	return max(d.shards, 1) * d.slices, d.shards > 0 || d.slices > 1
}

// fanOut builds a plan's pipelines over the snapshots of tab, one per
// stream, with build. A lone pipeline is the access path itself.
// Otherwise the pipelines merge under one GatherMerge over alias: by
// (dist, id) keeping the k best for NEAREST (k > 0), by id otherwise.
// LIMIT without ORDER BY keeps the smallest ids, so each id-merged
// stream stops at the limit itself instead of draining. est is the
// gather's planner estimate.
func (e *Engine) fanOut(ctx *execCtx, q *Query, d *planDecision, tab relation.Table, snaps []*relation.Snapshot,
	alias string, k int, est float64, build func(stream) BatchOperator) (BatchOperator, error) {
	if len(snaps) != max(d.shards, 1) {
		// The table was re-registered with another layout after this
		// decision was made; PreparedQuery.run re-plans on this error.
		return nil, fmt.Errorf("query: stale plan: relation %q has %d snapshots, plan wants %d",
			tab.Name(), len(snaps), max(d.shards, 1))
	}
	n, gathered := d.streams()
	if !gathered {
		return build(stream{snap: snaps[0], slices: 1, shards: 1}), nil
	}
	gather := &batchGatherMergeOp{ctx: ctx, children: make([]BatchOperator, n), workers: e.gatherWorkers(n),
		alias: alias, mode: gatherByID, size: e.batchLeafSize(q)}
	if k > 0 {
		gather.mode, gather.k = gatherBestK, k
	}
	for i := range gather.children {
		op := build(stream{snap: snaps[i/d.slices], slice: i % d.slices, slices: d.slices, shard: i, shards: n})
		if k == 0 && q.Limit > 0 && q.Order == OrderNone {
			op = trB(ctx, &batchLimitOp{child: op, n: q.Limit}, estLimitRows(q.Limit, estOfBatch(op)))
		}
		gather.children[i] = op
	}
	return trB(ctx, gather, est), nil
}

// --------------------------------------------------------- gather merge

// gatherMode selects the merge discipline of a batchGatherMergeOp.
type gatherMode int

const (
	gatherByID  gatherMode = iota // ascending global tuple id (scan order)
	gatherBestK                   // rank-aware (dist, id) bounded merge
)

// shardCols is one stream's drained output: columns for a columnar
// pipeline, bindings for a join chain. ids is filled in both layouts —
// for bindings it holds the merge key, the tuple id bound under the
// gather's alias.
type shardCols struct {
	ids   []int
	seqs  []string
	vecs  []metric.Vector
	attrs []map[string]string
	dist  []float64
	has   []bool
	binds []*binding
}

func (c *shardCols) appendBatch(b *Batch, alias string) {
	if b.binds != nil {
		for _, rb := range b.binds {
			t, _ := rb.tupleFor(alias)
			c.ids = append(c.ids, t.ID)
		}
		c.binds = append(c.binds, b.binds...)
		return
	}
	c.ids = append(c.ids, b.IDs...)
	c.seqs = append(c.seqs, b.Seqs...)
	c.vecs = append(c.vecs, b.Vecs...)
	c.attrs = append(c.attrs, b.Attrs...)
	c.dist = append(c.dist, b.dist...)
	c.has = append(c.has, b.has...)
}

// batchGatherMergeOp drains one pipeline per stream through a bounded
// worker pool into per-stream buffers and merges them. It trades block
// buffering for full parallelism — the per-tuple similarity work inside
// the pipelines dominates by orders of magnitude. Join chains emit
// bindings-layout batches; those merge by the id bound under alias, the
// chain's start alias.
type batchGatherMergeOp struct {
	ctx      *execCtx
	children []BatchOperator // one pipeline per stream
	workers  int
	alias    string // the alias whose tuple id keys a bindings-layout merge
	mode     gatherMode
	k        int // gatherBestK: result bound
	size     int

	cols    []shardCols
	pos     []int // per-stream frontier position
	done    int   // rows emitted (gatherBestK stops at k)
	out     *Batch
	binds   []*binding        // bindings-layout output buffer, reused across pulls
	timings []obs.ShardTiming // per-stream drain wall time (traced runs only)
}

// executedInstances reports every stream's pipeline for span extraction
// — unlike childNodes (which shows the stream-0 pipeline for EXPLAIN),
// all instances always execute, so ANALYZE merges the counters of each.
func (o *batchGatherMergeOp) executedInstances() []BatchOperator { return o.children }

// shardTimings reports the per-stream fan-out timing recorded by the
// last traced OpenBatch.
func (o *batchGatherMergeOp) shardTimings() []obs.ShardTiming { return o.timings }

func (o *batchGatherMergeOp) OpenBatch() error {
	o.cols = make([]shardCols, len(o.children))
	o.pos = make([]int, len(o.children))
	o.done = 0
	o.out = getBatch()
	errs := make([]error, len(o.children))
	if o.ctx.traced {
		o.timings = make([]obs.ShardTiming, len(o.children))
	}
	workers := o.workers
	if workers < 1 {
		workers = 1
	}
	if workers > len(o.children) {
		workers = len(o.children)
	}
	drain := func(i int) {
		var start time.Time
		if o.ctx.traced {
			start = time.Now()
		}
		op := o.children[i]
		if err := op.OpenBatch(); err != nil {
			errs[i] = err
			op.CloseBatch()
			return
		}
		for {
			b, err := op.NextBatch()
			if err != nil {
				errs[i] = err
				break
			}
			if b == nil {
				break
			}
			o.cols[i].appendBatch(b, o.alias)
		}
		if err := op.CloseBatch(); err != nil && errs[i] == nil {
			errs[i] = err
		}
		if o.ctx.traced {
			// Each worker owns a disjoint set of indices, so indexed writes
			// need no lock.
			o.timings[i] = obs.ShardTiming{
				Shard: i, WallNS: time.Since(start).Nanoseconds(), Rows: int64(len(o.cols[i].ids)),
			}
		}
	}
	if workers == 1 {
		// Single-worker gather (one core, or WithParallelism(1)): run the
		// pipelines inline — goroutine and channel overhead buys nothing
		// without parallelism.
		for i := range o.children {
			drain(i)
		}
	} else {
		idxc := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idxc {
					drain(i)
				}
			}()
		}
		for i := range o.children {
			idxc <- i
		}
		close(idxc)
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (o *batchGatherMergeOp) NextBatch() (*Batch, error) {
	b := o.out
	b.reset()
	binds := o.binds[:0]
	for n := 0; n < o.size && (o.mode != gatherBestK || o.done < o.k); n++ {
		best := -1
		for i := range o.cols {
			c := &o.cols[i]
			if o.pos[i] >= len(c.ids) {
				continue
			}
			if best < 0 {
				best = i
				continue
			}
			bi, bb, bj := &o.cols[best], o.pos[i], o.pos[best]
			if o.mode == gatherBestK {
				// Rank-aware frontier: smallest (dist, id) wins; ties on
				// distance resolve by ascending tuple id, a total order over
				// rows, which makes the output independent of stream
				// completion order.
				if c.dist[bb] < bi.dist[bj] || c.dist[bb] == bi.dist[bj] && c.ids[bb] < bi.ids[bj] {
					best = i
				}
			} else if c.ids[bb] < bi.ids[bj] {
				best = i
			}
		}
		if best < 0 {
			break
		}
		c := &o.cols[best]
		j := o.pos[best]
		o.pos[best]++
		if c.binds != nil {
			binds = append(binds, c.binds[j])
		} else {
			b.Block.Append(c.ids[j], c.seqs[j], c.vecs[j], c.attrs[j])
			b.dist = append(b.dist, c.dist[j])
			b.has = append(b.has, c.has[j])
		}
		o.done++
	}
	o.binds = binds
	if len(binds) > 0 {
		b.binds = binds
	}
	if b.Len() == 0 {
		return nil, nil
	}
	return b, nil
}

func (o *batchGatherMergeOp) CloseBatch() error {
	o.cols, o.pos = nil, nil
	putBatch(o.out)
	o.out = nil
	return nil
}

func (o *batchGatherMergeOp) Describe() string {
	if o.mode == gatherBestK {
		return fmt.Sprintf("GatherMerge(shards=%d, workers=%d, merge=bestk k=%d)",
			len(o.children), o.workers, o.k)
	}
	return fmt.Sprintf("GatherMerge(shards=%d, workers=%d, merge=id)", len(o.children), o.workers)
}

// childNodes returns the stream-0 pipeline as the representative
// subtree: every stream's pipeline has the same shape.
func (o *batchGatherMergeOp) childNodes() []BatchOperator {
	if len(o.children) == 0 {
		return nil
	}
	return o.children[:1]
}
