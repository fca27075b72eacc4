package query

// The single-relation physical operators: access paths (Scan,
// IndexRange, NearestK), Filter, Project, Limit, OrderByDist and
// Parallel. Each pulls blocks from its children, does one job, and
// counts its own work; the planner in plan.go composes them into trees.
// (The vector access paths live in vec_operators.go, the join in
// join_batch.go, the scatter-gather operators in batch_shard.go.)

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"repro/internal/editdp"
	"repro/internal/index"
	"repro/internal/metric"
	"repro/internal/relation"
)

// infCut bounds finite distances: +Inf means unreachable.
const infCut = 1e300

// ---------------------------------------------------------------- scan

// batchScanOp streams the visible tuples of one snapshot shard a block
// at a time through relation.Cursor.NextBlock, which amortizes the
// visibility filtering across whole arena runs. Shard (i, n) covers a
// contiguous arena range, so concatenating shards 0..n-1 reproduces the
// serial scan order — the invariant parallel plans rely on. Reading
// through the snapshot gives every query a consistent view while
// concurrent commits land.
type batchScanOp struct {
	ctx           *execCtx
	snap          *relation.Snapshot
	alias         string
	shard, shards int
	size          int

	cur   *relation.Cursor
	buf   *Batch
	local ExecStats
	last  ExecStats // retained across Close for span attribution
}

func newBatchScanOp(ctx *execCtx, snap *relation.Snapshot, alias string, size int) *batchScanOp {
	return &batchScanOp{ctx: ctx, snap: snap, alias: alias, shards: 1, size: size}
}

func (o *batchScanOp) OpenBatch() error {
	o.cur = o.snap.Shard(o.shard, o.shards)
	o.buf = getBatch()
	return nil
}

func (o *batchScanOp) NextBatch() (*Batch, error) {
	b := o.buf
	b.alias = o.alias
	b.rows = b.rows[:0]
	b.binds = nil
	n := o.cur.NextBlock(&b.Block, o.size)
	if n == 0 {
		return nil, nil
	}
	b.syncCols()
	o.local.Candidates += n
	return b, nil
}

func (o *batchScanOp) CloseBatch() error {
	o.last.add(o.local)
	o.ctx.addStats(o.local)
	o.local = ExecStats{}
	putBatch(o.buf)
	o.buf = nil
	return nil
}

func (o *batchScanOp) opStats() ExecStats { return o.last }

func (o *batchScanOp) Describe() string {
	if o.shards > 1 {
		return fmt.Sprintf("Scan(%s, shard %d/%d)", o.alias, o.shard, o.shards)
	}
	return fmt.Sprintf("Scan(%s)", o.alias)
}

func (o *batchScanOp) childNodes() []BatchOperator { return nil }

// --------------------------------------------------------- index range

// batchIndexRangeOp streams matches of "seq SIMILAR TO lit WITHIN k"
// from a metric index (BK-tree or trie, chosen by the cost model) in
// blocks through the index's BatchIterator. The iterator is lazy, so a
// LIMIT above this operator stops the index traversal early instead of
// post-filtering a full result. The online-maintained index is a
// superset of the snapshot, so every match passes through the
// snapshot's visibility filter: tombstoned rows and post-snapshot
// inserts are skipped. Emission order is the iterator's deterministic
// traversal order.
type batchIndexRangeOp struct {
	kernelTag
	ctx     *execCtx
	snap    *relation.Snapshot
	alias   string
	via     string // "bktree" or "trie"
	target  string
	radius  int
	ruleSet string
	size    int

	iter index.BatchIterator
	mbuf []index.Match
	buf  *Batch
	last ExecStats // retained across Close for span attribution
}

func (o *batchIndexRangeOp) OpenBatch() error {
	var idx index.Index
	switch o.via {
	case "trie":
		idx = o.snap.Trie()
	default:
		idx = o.snap.BKTree()
	}
	it := idx.RangeIter(o.target, o.radius)
	bi, ok := it.(index.BatchIterator)
	if !ok {
		bi = &iterBatcher{Iterator: it}
	}
	o.iter = bi
	if cap(o.mbuf) < o.size {
		o.mbuf = make([]index.Match, o.size)
	}
	o.buf = getBatch()
	return nil
}

func (o *batchIndexRangeOp) NextBatch() (*Batch, error) {
	b := o.buf
	for {
		n := o.iter.NextBatch(o.mbuf[:o.size])
		if n == 0 {
			return nil, nil
		}
		b.reset()
		b.alias = o.alias
		for _, m := range o.mbuf[:n] {
			t, ok := o.snap.Tuple(m.ID)
			if !ok {
				continue // invisible at this snapshot (tombstone or later insert)
			}
			b.appendMatch(t, m.Dist, true)
		}
		if b.Len() > 0 {
			return b, nil
		}
	}
}

func (o *batchIndexRangeOp) CloseBatch() error {
	if o.iter != nil {
		es := fromIndexStats(o.iter.Stats())
		o.last.add(es)
		o.ctx.addStats(es)
		o.iter = nil
	}
	putBatch(o.buf)
	o.buf = nil
	return nil
}

func (o *batchIndexRangeOp) opStats() ExecStats { return o.last }

func (o *batchIndexRangeOp) Describe() string {
	return fmt.Sprintf("IndexRange(%s via %s, target=%s, radius=%d, ruleset=%s)",
		o.alias, o.via, o.target, o.radius, o.ruleSet)
}

func (o *batchIndexRangeOp) childNodes() []BatchOperator { return nil }

// iterBatcher adapts a plain Iterator to the batch protocol (defensive:
// both metric indexes implement BatchIterator natively).
type iterBatcher struct{ index.Iterator }

func (it *iterBatcher) NextBatch(dst []index.Match) int {
	n := 0
	for n < len(dst) {
		m, ok := it.Next()
		if !ok {
			break
		}
		dst[n] = m
		n++
	}
	return n
}

// ----------------------------------------------------------- nearest-k

// batchNearestKOp answers "seq NEAREST k TO lit" with one bounded scan
// of the snapshot's length-ordered view (relation.LengthView): buckets
// are visited in ascending |len(s) - len(target)|, every row is verified
// with the distance kernel cut off at the current kth-best distance —
// so most rows abandon early — and admitted rows fold into a (dist, id)
// best list. Under a unit-cost rule set two lower bounds on the edit
// distance filter ahead of the kernel: the length difference, so the
// scan stops at the first bucket strictly farther than the kth best,
// and the row's byte-frequency signature (index.ByteSig), so a row whose
// bag of bytes is strictly farther is skipped. Strictly, both times: an
// equally distant row with a smaller id still displaces the kth.
// Weighted rule sets have neither bound and verify every row. The view
// is a superset of the snapshot; visibility is checked only for the few
// rows that pass the distance test, before they can enter the list or
// shrink the bound.
type batchNearestKOp struct {
	kernelTag
	ctx     *execCtx
	snap    *relation.Snapshot
	alias   string
	target  string
	k       int
	ruleSet string
	size    int

	matches []index.Match
	pos     int
	buf     *Batch
	last    ExecStats // retained across Close for span attribution
}

func (o *batchNearestKOp) OpenBatch() error {
	o.pos = 0
	o.buf = getBatch()
	calc := o.ctx.eng.calc(o.ruleSet)
	rs, err := o.ctx.eng.ruleset(o.ruleSet)
	if err != nil || calc == nil {
		return fmt.Errorf("query: NEAREST requires an edit-like rule set (%q is not)", o.ruleSet)
	}
	// The target is fixed for the whole scan: unit-cost sets run the
	// query-scoped bit-parallel kernel (plain Levenshtein over every
	// byte), weighted ones the dense-table DP of editdp.TargetDP.
	unit := unitCost(rs)
	var qdp *editdp.QueryDP
	var tdp *editdp.TargetDP
	if unit {
		qdp = editdp.NewQueryDP(o.target)
	} else {
		tdp = calc.NewTargetDP(o.target)
	}
	qsig := index.NewByteSig(o.target)
	var local ExecStats
	// best holds up to k matches sorted ascending by (dist, id); once it
	// is full, bound is the kth-best distance (ibound the same, as the
	// integer the unit-cost bounds compare with).
	best := o.matches[:0]
	full := false
	bound, ibound := math.Inf(1), 0
	bands := o.snap.LengthView().Bands(len(o.target))
	for diff, ents, ok := bands.Next(); ok; diff, ents, ok = bands.Next() {
		if unit && full && diff > ibound {
			break
		}
		local.Candidates += len(ents)
		for _, e := range ents {
			if unit && full && qsig.LowerBound(e.Sig) > ibound {
				continue
			}
			local.Verifications++
			var d float64
			var within bool
			switch {
			case unit && full:
				var di int
				di, within = qdp.Within(e.Seq, ibound)
				d = float64(di)
			case unit:
				d, within = float64(qdp.Distance(e.Seq)), true
			case full:
				d, within = tdp.Within(e.Seq, bound)
			default:
				d = tdp.Distance(e.Seq)
				within = d < infCut
			}
			if !within {
				local.Abandoned++
				continue
			}
			if !o.snap.VisibleRow(e.Row) {
				continue // tombstoned, or installed after this snapshot
			}
			best = index.PushBestK(best, index.Match{ID: e.Row.ID, S: e.Seq, Dist: d}, o.k)
			if len(best) == o.k {
				full, bound = true, best[o.k-1].Dist
				if unit {
					ibound = int(bound)
				}
			}
		}
	}
	o.matches = best
	observeVisited(mNearestVisitedSeq, local.Verifications, o.snap.Len())
	o.last.add(local)
	o.ctx.addStats(local)
	return nil
}

func (o *batchNearestKOp) NextBatch() (*Batch, error) {
	if o.pos >= len(o.matches) {
		return nil, nil
	}
	b := o.buf
	b.reset()
	b.alias = o.alias
	for b.Len() < o.size && o.pos < len(o.matches) {
		m := o.matches[o.pos]
		o.pos++
		t, _ := o.snap.Tuple(m.ID)
		b.appendMatch(t, m.Dist, true)
	}
	return b, nil
}

func (o *batchNearestKOp) CloseBatch() error {
	o.matches = o.matches[:0]
	putBatch(o.buf)
	o.buf = nil
	return nil
}

func (o *batchNearestKOp) opStats() ExecStats { return o.last }

func (o *batchNearestKOp) Describe() string {
	return fmt.Sprintf("NearestK(%s, k=%d, ruleset=%s)", o.alias, o.k, o.ruleSet)
}

func (o *batchNearestKOp) childNodes() []BatchOperator { return nil }

// -------------------------------------------------------------- filter

// batchFilterOp keeps the rows satisfying a residual predicate,
// compacting each block in place. Single-alias predicates run through
// the compiled evaluator (batch_pred.go); binding-layout blocks and
// uncompilable shapes fall back to evalExpr on a scratch binding — same
// semantics, fewer hoisted costs.
type batchFilterOp struct {
	kernelTag
	ctx   *execCtx
	child BatchOperator
	pred  Expr
	alias string

	fn      predFn
	scratch binding
	local   ExecStats
	last    ExecStats // retained across Close for span attribution
}

func (o *batchFilterOp) OpenBatch() error {
	o.fn = o.ctx.eng.compilePred(o.pred, o.alias)
	return o.child.OpenBatch()
}

func (o *batchFilterOp) NextBatch() (*Batch, error) {
	for {
		b, err := o.child.NextBatch()
		if err != nil || b == nil {
			return nil, err
		}
		if b.binds != nil {
			keep := b.binds[:0]
			for _, rb := range b.binds {
				o.local.Verifications++
				ok, err := o.ctx.eng.evalExpr(o.pred, rb)
				if err != nil {
					return nil, err
				}
				if ok {
					keep = append(keep, rb)
				}
			}
			b.binds = keep
			if len(keep) > 0 {
				return b, nil
			}
			continue
		}
		n := b.Block.Len()
		w := 0
		for i := 0; i < n; i++ {
			o.local.Verifications++
			var ok bool
			if o.fn != nil {
				t := relation.Tuple{ID: b.IDs[i], Seq: b.Seqs[i], Vec: b.Vecs[i], Attrs: b.Attrs[i]}
				ok, err = o.fn(&t, &b.dist[i], &b.has[i])
			} else {
				b.scratch(i, o.alias, &o.scratch)
				ok, err = o.ctx.eng.evalExpr(o.pred, &o.scratch)
				b.dist[i], b.has[i] = o.scratch.dist, o.scratch.hasDist
			}
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
			if w != i {
				b.IDs[w], b.Seqs[w], b.Vecs[w], b.Attrs[w] = b.IDs[i], b.Seqs[i], b.Vecs[i], b.Attrs[i]
				b.dist[w], b.has[w] = b.dist[i], b.has[i]
			}
			w++
		}
		b.truncate(w)
		if w > 0 {
			return b, nil
		}
	}
}

func (o *batchFilterOp) CloseBatch() error {
	o.last.add(o.local)
	o.ctx.addStats(o.local)
	o.local = ExecStats{}
	return o.child.CloseBatch()
}

func (o *batchFilterOp) opStats() ExecStats { return o.last }

func (o *batchFilterOp) Describe() string            { return fmt.Sprintf("Filter(%s)", o.pred) }
func (o *batchFilterOp) childNodes() []BatchOperator { return []BatchOperator{o.child} }

// ------------------------------------------------------------- project

// batchProjectOp materialises the output rows of each block.
type batchProjectOp struct {
	ctx   *execCtx
	q     *Query
	child BatchOperator
	alias string

	scratch binding
}

func (o *batchProjectOp) OpenBatch() error { return o.child.OpenBatch() }

func (o *batchProjectOp) NextBatch() (*Batch, error) {
	b, err := o.child.NextBatch()
	if err != nil || b == nil {
		return nil, err
	}
	rows := b.rows[:0]
	n := b.Len()
	for i := 0; i < n; i++ {
		rb := b.binds
		var src *binding
		if rb != nil {
			src = rb[i]
		} else {
			b.scratch(i, o.alias, &o.scratch)
			src = &o.scratch
		}
		row, err := projectRow(o.ctx.eng, o.q, src)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	b.rows = rows
	return b, nil
}

func (o *batchProjectOp) CloseBatch() error { return o.child.CloseBatch() }

func (o *batchProjectOp) Describe() string {
	if len(o.q.Select) == 0 {
		return "Project(*)"
	}
	parts := make([]string, len(o.q.Select))
	for i, c := range o.q.Select {
		parts[i] = c.String()
	}
	return fmt.Sprintf("Project(%s)", strings.Join(parts, ", "))
}

func (o *batchProjectOp) childNodes() []BatchOperator { return []BatchOperator{o.child} }

// --------------------------------------------------------------- limit

// batchLimitOp truncates the stream after n rows. Because the pipeline
// is pull-based, everything below it — index iterators included — stops
// working the moment the limit is reached.
type batchLimitOp struct {
	child BatchOperator
	n     int
	seen  int
}

func (o *batchLimitOp) OpenBatch() error { o.seen = 0; return o.child.OpenBatch() }

func (o *batchLimitOp) NextBatch() (*Batch, error) {
	if o.seen >= o.n {
		return nil, nil
	}
	b, err := o.child.NextBatch()
	if err != nil || b == nil {
		return nil, err
	}
	if rest := o.n - o.seen; b.Len() > rest {
		b.truncate(rest)
	}
	o.seen += b.Len()
	return b, nil
}

func (o *batchLimitOp) CloseBatch() error           { return o.child.CloseBatch() }
func (o *batchLimitOp) Describe() string            { return fmt.Sprintf("Limit(%d)", o.n) }
func (o *batchLimitOp) childNodes() []BatchOperator { return []BatchOperator{o.child} }

// ------------------------------------------------------- order by dist

// batchOrderByDistOp is the blocking sort on the row distance: it
// drains the child into column buffers of its own, stably sorts a row
// permutation (rows without a distance sort last; ties keep the child's
// deterministic order) and re-emits blocks in sorted order.
type batchOrderByDistOp struct {
	child BatchOperator
	desc  bool
	size  int

	ids   []int
	seqs  []string
	vecs  []metric.Vector
	attrs []map[string]string
	dist  []float64
	has   []bool
	binds []*binding

	perm []int
	pos  int
	out  *Batch
}

func (o *batchOrderByDistOp) OpenBatch() error {
	o.ids, o.seqs, o.vecs, o.attrs = o.ids[:0], o.seqs[:0], o.vecs[:0], o.attrs[:0]
	o.dist, o.has, o.binds = o.dist[:0], o.has[:0], nil
	o.perm, o.pos = o.perm[:0], 0
	o.out = getBatch()
	if err := o.child.OpenBatch(); err != nil {
		return err
	}
	for {
		b, err := o.child.NextBatch()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		if b.binds != nil {
			o.binds = append(o.binds, b.binds...)
			continue
		}
		o.ids = append(o.ids, b.IDs...)
		o.seqs = append(o.seqs, b.Seqs...)
		o.vecs = append(o.vecs, b.Vecs...)
		o.attrs = append(o.attrs, b.Attrs...)
		o.dist = append(o.dist, b.dist...)
		o.has = append(o.has, b.has...)
	}
	n := len(o.ids)
	if o.binds != nil {
		n = len(o.binds)
	}
	key := func(i int) float64 {
		var d float64
		var h bool
		if o.binds != nil {
			d, h = o.binds[i].dist, o.binds[i].hasDist
		} else {
			d, h = o.dist[i], o.has[i]
		}
		if !h {
			// Dist-less rows sort last in either direction.
			if o.desc {
				return math.Inf(-1)
			}
			return math.Inf(1)
		}
		return d
	}
	o.perm = o.perm[:0]
	for i := 0; i < n; i++ {
		o.perm = append(o.perm, i)
	}
	sort.SliceStable(o.perm, func(i, j int) bool {
		if o.desc {
			return key(o.perm[i]) > key(o.perm[j])
		}
		return key(o.perm[i]) < key(o.perm[j])
	})
	return nil
}

func (o *batchOrderByDistOp) NextBatch() (*Batch, error) {
	if o.pos >= len(o.perm) {
		return nil, nil
	}
	b := o.out
	b.reset()
	if o.binds != nil {
		binds := b.binds[:0]
		for b2 := 0; b2 < o.size && o.pos < len(o.perm); b2++ {
			binds = append(binds, o.binds[o.perm[o.pos]])
			o.pos++
		}
		b.binds = binds
		return b, nil
	}
	for b.Len() < o.size && o.pos < len(o.perm) {
		i := o.perm[o.pos]
		o.pos++
		b.Block.Append(o.ids[i], o.seqs[i], o.vecs[i], o.attrs[i])
		b.dist = append(b.dist, o.dist[i])
		b.has = append(b.has, o.has[i])
	}
	return b, nil
}

func (o *batchOrderByDistOp) CloseBatch() error {
	o.ids, o.seqs, o.vecs, o.attrs = nil, nil, nil, nil
	o.dist, o.has, o.binds, o.perm = nil, nil, nil, nil
	putBatch(o.out)
	o.out = nil
	return o.child.CloseBatch()
}

func (o *batchOrderByDistOp) Describe() string {
	if o.desc {
		return "OrderByDist(desc)"
	}
	return "OrderByDist(asc)"
}

func (o *batchOrderByDistOp) childNodes() []BatchOperator { return []BatchOperator{o.child} }

// ------------------------------------------------------------ parallel

// batchParallelOp shards a pipeline across workers. build(i, n) must
// return the serial pipeline restricted to shard i of n; because shards
// are contiguous tuple ranges and each shard pipeline is deterministic,
// the shard-order merge is byte-identical to the serial plan's output.
//
// The operator materialises shard outputs in OpenBatch (copied — a leaf
// refills its batch every pull): similarity work (the DP verifications)
// dominates block buffering by orders of magnitude, so this trades
// negligible memory for full parallelism.
type batchParallelOp struct {
	ctx      *execCtx
	workers  int
	build    func(shard, shards int) BatchOperator
	template BatchOperator // shard-0 pipeline, used only for EXPLAIN

	// prebuilt holds the per-shard pipelines when tracing: building them
	// eagerly lets the span extractor visit the instances that actually
	// executed instead of the throwaway template.
	prebuilt []BatchOperator

	bufs  [][]*Batch
	shard int
	pos   int
}

// executedInstances exposes the per-shard pipelines for span
// extraction; nil when the plan is not traced.
func (o *batchParallelOp) executedInstances() []BatchOperator { return o.prebuilt }

func (o *batchParallelOp) shardPipeline(i int) BatchOperator {
	if o.prebuilt != nil {
		return o.prebuilt[i]
	}
	return o.build(i, o.workers)
}

func (o *batchParallelOp) OpenBatch() error {
	o.bufs = make([][]*Batch, o.workers)
	o.shard, o.pos = 0, 0
	errs := make([]error, o.workers)
	var wg sync.WaitGroup
	for i := 0; i < o.workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			op := o.shardPipeline(i)
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
				own := getBatch()
				own.copyFrom(b)
				o.bufs[i] = append(o.bufs[i], own)
			}
			if err := op.CloseBatch(); err != nil && errs[i] == nil {
				errs[i] = err
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (o *batchParallelOp) NextBatch() (*Batch, error) {
	for o.shard < len(o.bufs) {
		if o.pos < len(o.bufs[o.shard]) {
			b := o.bufs[o.shard][o.pos]
			o.pos++
			return b, nil
		}
		o.shard++
		o.pos = 0
	}
	return nil, nil
}

func (o *batchParallelOp) CloseBatch() error {
	for _, shard := range o.bufs {
		for _, b := range shard {
			putBatch(b)
		}
	}
	o.bufs = nil
	return nil
}

func (o *batchParallelOp) Describe() string {
	return fmt.Sprintf("Parallel(workers=%d)", o.workers)
}

func (o *batchParallelOp) childNodes() []BatchOperator { return []BatchOperator{o.template} }
