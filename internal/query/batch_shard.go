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
// length view when lengthView, a vector view per non-nil metric of
// views — and then appends the table's snapshots to dst: one for a
// Relation, one per shard of a consistent view for a ShardedRelation.
// Ensuring first makes every snapshot carry the online-maintained
// structures instead of building private ones per query.
func snapshotsOf(dst []*relation.Snapshot, tab relation.Table, lengthView bool, views ...metric.Distance) []*relation.Snapshot {
	switch t := tab.(type) {
	case *relation.ShardedRelation:
		if lengthView {
			t.EnsureLengthViews()
		}
		for _, m := range views {
			if m != nil {
				t.EnsureVecViews(m)
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
		for _, m := range views {
			if m != nil {
				t.VecView(m)
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

// fanOut builds a plan's pipelines over the snapshots of the table d
// was decided over, one per stream, with build. A lone pipeline is the
// access path itself. Otherwise the pipelines merge under one
// GatherMerge: by (dist, id) keeping the k best for NEAREST (k > 0), by
// slot 0's id otherwise. LIMIT without ORDER BY keeps the smallest ids,
// so each id-merged stream stops at the limit itself instead of
// draining. est is the gather's planner estimate.
func (e *Engine) fanOut(ctx *execCtx, q *Query, d *planDecision, snaps []*relation.Snapshot,
	k int, est float64, build func(stream) BatchOperator) BatchOperator {
	n, gathered := d.streams()
	if !gathered {
		return build(stream{snap: snaps[0], slices: 1, shards: 1})
	}
	gather := &batchGatherMergeOp{ctx: ctx, children: make([]BatchOperator, n), workers: e.gatherWorkers(n),
		mode: gatherByID, size: e.batchLeafSize(q)}
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
	return trB(ctx, gather, est)
}

// --------------------------------------------------------- gather merge

// gatherMode selects the merge discipline of a batchGatherMergeOp.
type gatherMode int

const (
	gatherByID  gatherMode = iota // ascending global tuple id (scan order)
	gatherBestK                   // rank-aware (dist, id) bounded merge
)

// batchGatherMergeOp drains one pipeline per stream through a bounded
// worker pool into a pooled batch per stream and merges them. It trades
// block buffering for full parallelism — the per-tuple similarity work
// inside the pipelines dominates by orders of magnitude. The id merge
// reads slot 0: the relation a scan or range reads, a join chain's
// start relation.
type batchGatherMergeOp struct {
	ctx      *execCtx
	children []BatchOperator // one pipeline per stream
	workers  int
	mode     gatherMode
	k        int // gatherBestK: result bound
	size     int

	cols    []*Batch // per stream: every row its pipeline emitted
	pos     []int    // per-stream frontier position
	done    int      // rows emitted (gatherBestK stops at k)
	out     *Batch
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
	o.cols = make([]*Batch, len(o.children))
	for i := range o.cols {
		o.cols[i] = getBatch()
	}
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
			o.cols[i].appendRows(b)
		}
		if err := op.CloseBatch(); err != nil && errs[i] == nil {
			errs[i] = err
		}
		if o.ctx.traced {
			// Each worker owns a disjoint set of indices, so indexed writes
			// need no lock.
			o.timings[i] = obs.ShardTiming{
				Shard: i, WallNS: time.Since(start).Nanoseconds(), Rows: int64(o.cols[i].Len()),
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
	b.reset(1)
	for n := 0; n < o.size && (o.mode != gatherBestK || o.done < o.k); n++ {
		best := -1
		for i, c := range o.cols {
			if o.pos[i] >= c.Len() {
				continue
			}
			if best < 0 {
				best = i
				continue
			}
			bi, bb, bj := o.cols[best], o.pos[i], o.pos[best]
			if o.mode == gatherBestK {
				// Rank-aware frontier: smallest (dist, id) wins; ties on
				// distance resolve by ascending tuple id, a total order over
				// rows, which makes the output independent of stream
				// completion order.
				if c.dist[bb] < bi.dist[bj] || c.dist[bb] == bi.dist[bj] && c.IDs[bb] < bi.IDs[bj] {
					best = i
				}
			} else if c.IDs[bb] < bi.IDs[bj] {
				best = i
			}
		}
		if best < 0 {
			break
		}
		b.appendRow(o.cols[best], o.pos[best])
		o.pos[best]++
		o.done++
	}
	if b.Len() == 0 {
		return nil, nil
	}
	return b, nil
}

func (o *batchGatherMergeOp) CloseBatch() error {
	for _, c := range o.cols {
		putBatch(c)
	}
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
