package query

// Scatter-gather execution over sharded relations. The planner turns a
// single-relation query over a ShardedRelation into one subplan per
// shard — each reading one shard snapshot of a consistent ShardView —
// plus a GatherMerge root that runs the subplans through a bounded
// worker pool and merges their outputs:
//
//   - merge=id (WITHIN / scans / join chains): shard streams are merged
//     in ascending global tuple id, which reconstructs exactly the serial
//     scan order of the unsharded relation (ids are global and each
//     arena is id-ascending). Every such stream arrives id-ascending —
//     scans read in id order, WITHIN leaves sort their matches by id,
//     join chains emit in outer order — so the merge never sorts.
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

// buildShardedPlan constructs the scatter-gather operator tree for a
// decided single-relation query over a sharded relation; per-shard
// filters and pushed limits mirror the unsharded build in plan.go.
func (e *Engine) buildShardedPlan(q *Query, d *planDecision, tab relation.Table) (*compiledPlan, error) {
	sh, ok := tab.(*relation.ShardedRelation)
	if !ok {
		return nil, fmt.Errorf("query: stale plan: relation %q is no longer sharded", q.From[0].Name)
	}
	if sh.NumShards() != d.shards {
		return nil, fmt.Errorf("query: stale plan: relation %q has %d shards, plan wants %d",
			q.From[0].Name, sh.NumShards(), d.shards)
	}
	// Ensure the shared per-shard access structures ahead of the view
	// capture, so every shard snapshot carries its online-maintained
	// structure instead of building a private one per query.
	switch {
	case d.via == "vptree":
		if m := accessMetric(q); m != nil {
			sh.EnsureVPTrees(m)
		}
	case d.kind == accessRange || d.kind == accessNearest:
		sh.EnsureLengthViews()
	}
	view := sh.View()
	n := view.NumShards()
	alias := q.From[0].Alias
	ctx := &execCtx{eng: e, traced: q.Analyze || e.tracing.Load()}
	// Planner estimates below are per shard: the leaf cardinalities of an
	// even hash partition, so EXPLAIN ANALYZE compares each shard subplan
	// against what the optimizer assumed for one shard, not the union.
	st := shardStats(sh.Stats(), n)
	size := e.batchLeafSize(q)
	tag := kernelTag{d.kernel}

	// finish stacks the residual filter and the pushed limit on a shard
	// leaf. Scan, band-walk and VP-tree range streams are id-ascending
	// and LIMIT without ORDER BY keeps the smallest ids, so each shard
	// needs at most LIMIT rows: the pushed limit stops a per-shard scan
	// early instead of draining the whole shard.
	finish := func(op BatchOperator, pred Expr) BatchOperator {
		if !isTrivial(pred) {
			op = trB(ctx, &batchFilterOp{kernelTag: kernelTag{e.filterKernel(pred)}, ctx: ctx, child: op, pred: pred, alias: alias},
				estFilterRows(st, pred, estOfBatch(op)))
		}
		if q.Limit > 0 && q.Order == OrderNone {
			op = trB(ctx, &batchLimitOp{child: op, n: q.Limit}, estLimitRows(q.Limit, estOfBatch(op)))
		}
		return op
	}

	children := make([]BatchOperator, n)
	gather := &batchGatherMergeOp{ctx: ctx, children: children, workers: d.workers, alias: alias, mode: gatherByID, size: size}
	gatherEst := -1.0
	switch d.kind {
	case accessNearest:
		ne := q.Where.(NearestExpr)
		gather.mode, gather.k = gatherBestK, ne.K
		if isVecNearest(&ne) {
			gatherEst = estNearestRows(n*st.VecCount, ne.K)
			for i := range children {
				children[i] = trB(ctx, &batchShardVecNearestKOp{
					batchVecNearestKOp: batchVecNearestKOp{
						kernelTag: tag, ctx: ctx, matchList: matchList{snap: view.Snap(i), alias: alias, size: size},
						via: d.via, target: ne.Target.Vec, k: ne.K, metricName: ne.RuleSet,
					},
					idx: i, of: n,
				}, estNearestRows(st.VecCount, ne.K))
			}
		} else {
			gatherEst = estNearestRows(n*st.Count, ne.K)
			for i := range children {
				children[i] = trB(ctx, &batchShardNearestKOp{
					batchNearestKOp: batchNearestKOp{
						kernelTag: tag, ctx: ctx, matchList: matchList{snap: view.Snap(i), alias: alias, size: size},
						target: ne.Target.Lit, k: ne.K, ruleSet: ne.RuleSet,
					},
					idx: i, of: n,
				}, estNearestRows(st.Count, ne.K))
			}
		}
	case accessRange:
		ok := e.rangeIndexable
		if d.via == "vptree" {
			ok = isVecRangeSim
		}
		sim, pred, leafDist := rangeConjunct(q.Where, ok)
		if sim == nil {
			return nil, fmt.Errorf("query: stale plan: no range conjunct")
		}
		for i := range children {
			leaf := matchList{snap: view.Snap(i), alias: alias, size: size, noDist: !leafDist}
			if d.via == "vptree" {
				children[i] = finish(trB(ctx, &batchVecRangeOp{
					kernelTag: tag, ctx: ctx, matchList: leaf,
					target: sim.Target.Vec, radius: sim.Radius, metricName: sim.RuleSet,
				}, estVecRangeRows(st, sim.Radius)), pred)
				continue
			}
			children[i] = finish(trB(ctx, &batchIndexRangeOp{
				kernelTag: tag, ctx: ctx, matchList: leaf,
				target: sim.Target.Lit, radius: sim.Radius, ruleSet: sim.RuleSet,
			}, estRangeRows(st, sim.Radius)), pred)
		}
	case accessScan:
		pred := simplifyExpr(q.Where)
		for i := range children {
			sc := newBatchScanOp(ctx, view.Snap(i), alias, size)
			children[i] = finish(trB(ctx, &batchShardScanOp{batchScanOp: *sc, idx: i, of: n}, float64(st.Count)), pred)
		}
	default:
		return nil, fmt.Errorf("query: access kind %d has no sharded build", d.kind)
	}

	return &compiledPlan{
		root: e.wrapBatchTop(q, trB(ctx, gather, gatherEst), alias, size, ctx, false),
		ctx:  ctx, columns: projectColumns(q), kernel: d.kernel,
	}, nil
}

// ----------------------------------------------------------- shard scan

// batchShardScanOp is a batchScanOp over one shard's snapshot (the
// per-shard leaf of a scatter-gather scan, streaming ascending global
// ids); it exists so EXPLAIN shows which shard each stream comes from.
type batchShardScanOp struct {
	batchScanOp
	idx, of int
}

func (o *batchShardScanOp) Describe() string {
	return fmt.Sprintf("ShardScan(%s, shard %d/%d)", o.alias, o.idx, o.of)
}

// ------------------------------------------------------ shard nearest-k

// batchShardNearestKOp is a batchNearestKOp over one shard snapshot; it
// exists so EXPLAIN shows which shard each k-best list comes from.
type batchShardNearestKOp struct {
	batchNearestKOp
	idx, of int
}

func (o *batchShardNearestKOp) Describe() string {
	return fmt.Sprintf("ShardNearestK(%s, shard %d/%d, k=%d, ruleset=%s)",
		o.alias, o.idx, o.of, o.k, o.ruleSet)
}

// --------------------------------------------------------- gather merge

// gatherMode selects the merge discipline of a batchGatherMergeOp.
type gatherMode int

const (
	gatherByID  gatherMode = iota // ascending global tuple id (scan order)
	gatherBestK                   // rank-aware (dist, id) bounded merge
)

// shardCols is one shard's drained output: columns for a columnar
// subplan, bindings for a join chain. ids is filled in both layouts —
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

// batchGatherMergeOp drains one subplan per shard through a bounded
// worker pool into per-shard buffers and merges them. It trades block
// buffering for full parallelism — the per-tuple similarity work inside
// the subplans dominates by orders of magnitude. Join chains (one per
// outer shard, see join_batch.go) emit bindings-layout batches; those
// merge by the id bound under alias, the chain's start alias.
type batchGatherMergeOp struct {
	ctx      *execCtx
	children []BatchOperator // one subplan per shard
	workers  int
	alias    string // the alias whose tuple id keys a bindings-layout merge
	mode     gatherMode
	k        int // gatherBestK: result bound
	size     int

	cols    []shardCols
	pos     []int // per-shard frontier position
	done    int   // rows emitted (gatherBestK stops at k)
	out     *Batch
	binds   []*binding        // bindings-layout output buffer, reused across pulls
	timings []obs.ShardTiming // per-shard drain wall time (traced runs only)
}

// executedInstances reports every shard subplan for span extraction —
// unlike childNodes (which shows the shard-0 template for EXPLAIN), all
// instances always execute, so ANALYZE merges the counters of each.
func (o *batchGatherMergeOp) executedInstances() []BatchOperator { return o.children }

// shardTimings reports the per-shard fan-out timing recorded by the last
// traced OpenBatch.
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
		// shard subplans inline — goroutine and channel overhead buys
		// nothing without parallelism.
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
				// rows, which makes the output independent of shard
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

// childNodes returns the shard-0 subplan as the representative subtree
// (all shards share the same shape, like Parallel's template).
func (o *batchGatherMergeOp) childNodes() []BatchOperator {
	if len(o.children) == 0 {
		return nil
	}
	return o.children[:1]
}
