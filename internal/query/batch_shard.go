package query

// The fan-out. A plan reads its table's snapshot as streams: whole, or,
// for a parallel scan or scan-rooted join chain over a large table, as
// contiguous id-range slices — and fanOut builds one pipeline per
// stream. A snapshot read whole is one pipeline; the slices of a
// parallel plan run under a GatherMerge, which drains them through a
// bounded worker pool and merges their outputs in ascending tuple id
// (merge=id). That reconstructs exactly the serial scan order: every
// slice is an id range and arrives id-ascending — scans read in id
// order, join chains emit in outer order — so the merge never sorts.

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/relation"
)

// stream is what one pipeline of a plan reads: slice `slice` of
// `slices` contiguous id ranges of snap (0 of 1 is all of it), shown in
// EXPLAIN as shard `slice` of `slices` when the plan reads several.
// Only scans read part of a snapshot; every other leaf reads all of it.
type stream struct {
	snap          *relation.Snapshot
	slice, slices int
}

// shardNote is a leaf's EXPLAIN label for its stream: empty when the
// plan reads one.
func (s stream) shardNote() string {
	if s.slices > 1 {
		return fmt.Sprintf(", shard %d/%d", s.slice, s.slices)
	}
	return ""
}

// fanOut builds a plan's pipelines over snap, one per slice d decided,
// with build. A lone pipeline is the access path itself; the slices of
// a parallel plan merge by slot 0's id under one GatherMerge.
func (e *Engine) fanOut(ctx *execCtx, q *Query, d *planDecision, snap *relation.Snapshot,
	build func(stream) BatchOperator) BatchOperator {
	if d.slices == 1 {
		return build(stream{snap: snap, slices: 1})
	}
	gather := &batchGatherMergeOp{ctx: ctx, children: make([]BatchOperator, d.slices),
		workers: e.gatherWorkers(d.slices), size: e.batchLeafSize(q)}
	for i := range gather.children {
		gather.children[i] = build(stream{snap: snap, slice: i, slices: d.slices})
	}
	return trB(ctx, gather, -1)
}

// --------------------------------------------------------- gather merge

// batchGatherMergeOp drains one pipeline per stream through a bounded
// worker pool into a pooled batch per stream and merges them by
// ascending id. It trades block buffering for full parallelism — the
// per-tuple similarity work inside the pipelines dominates by orders of
// magnitude. The merge reads slot 0: the relation a scan reads, a join
// chain's start relation.
type batchGatherMergeOp struct {
	ctx      *execCtx
	children []BatchOperator // one pipeline per stream
	workers  int
	size     int

	cols    []*Batch // per stream: every row its pipeline emitted
	pos     []int    // per-stream frontier position
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
	for n := 0; n < o.size; n++ {
		best := -1
		for i, c := range o.cols {
			if o.pos[i] >= c.Len() {
				continue
			}
			if best < 0 || c.IDs[o.pos[i]] < o.cols[best].IDs[o.pos[best]] {
				best = i
			}
		}
		if best < 0 {
			break
		}
		b.appendRow(o.cols[best], o.pos[best])
		o.pos[best]++
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
