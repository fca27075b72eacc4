package query

// The distance join. One operator, batchJoinOp, blocks the OUTER side
// through the pipeline and probes the INNER side once per outer row;
// the decided algorithm selects the probe strategy:
//
//   - "partition" pre-partitions the inner side once at open.
//     Edit-distance edges partition inner rows by sequence length: under
//     a unit-cost rule set every edit operation costs at least 1, so
//     d(x, y) >= | |x| - |y| | and an outer probe of length L only needs
//     the buckets [L-floor(k), L+floor(k)] — the classic length-filter
//     band. Vector edges under a triangular metric partition by distance
//     to a fixed vantage (the zero vector): |d(q,0) - d(c,0)| <= d(q,c),
//     so a probe with norm n only needs buckets covering [n-r, n+r];
//     non-triangular metrics (cosine) degrade to a single partition —
//     the blocked kernels still apply, the pruning does not. Inside a
//     band the probe runs the same kernels the scan+filter path uses
//     (bit-parallel Myers or the dense TargetDP for strings, the metric's
//     DistBatch for vectors).
//   - "index" probes every inner snapshot once per outer row: unit-cost
//     edit edges over the inner seq field run the band walk of its
//     length view at the bound floor(r) (bandwalk.go), vector edges
//     under a triangular metric the VP-tree. The walk measures d(inner,
//     probe) where the predicate may name d(probe, inner); the unit-cost
//     rule sets it serves are symmetric and their distances integers, so
//     the two agree exactly.
//   - "nl" verifies every pair through evalSim. It works for any rule
//     set or metric because the distance direction follows the
//     predicate (field -> target), not the join order.
//
// Every strategy preserves evalSim's operand order on every fallback,
// so results stay byte-identical across strategies — the join oracle
// pins that against a brute-force nested loop.
//
// The inner side is a list of snapshots: one for a plain relation, one
// per shard when a sharded inner is broadcast (see buildJoin). Per-probe
// matches sort by global tuple id before emission, so the output order
// is outer order, inner ascending, whatever the strategy and layout.

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/editdp"
	"repro/internal/metric"
	"repro/internal/relation"
)

// partInnerRow is one partitioned inner tuple; val holds the join
// attribute, resolved once at partition time.
type partInnerRow struct {
	t   relation.Tuple
	val string
}

// partVecRow is the vector analogue; the vector lives in the tuple.
type partVecRow struct {
	t relation.Tuple
}

// joinMatch is one verified inner match of the current probe.
type joinMatch struct {
	t relation.Tuple
	d float64
}

// batchJoinOp executes one decided join step.
type batchJoinOp struct {
	kernelTag
	ctx        *execCtx
	child      BatchOperator // outer side, batched
	algo       string        // probe strategy: "partition" | "index" | "nl"
	snaps      []*relation.Snapshot
	alias      string   // inner alias
	probeField FieldRef // outer-side join field
	sim        *SimExpr
	size       int
	vec        bool
	m          metric.Distance // vec edges: the resolved metric

	// Inner-side state, built at OpenBatch: buckets for "partition", the
	// flat tuple list for "nl", the per-snapshot alphabet coverage of a
	// string "index" probe (the structures it reads live in the
	// snapshots).
	innerField    string // inner-side join attribute
	outerIsTarget bool   // probe value is the predicate's target operand
	inner         []relation.Tuple
	strBuckets    map[int][]partInnerRow // key: len(val)
	vecBuckets    map[int][]partVecRow   // key: floor(norm/w)
	vecCols       map[int][]metric.Vector
	bandW         float64 // vec bucket width (radius, min 1)
	banded        bool    // vec: triangular metric => norm pruning applies
	calc          *editdp.Calculator
	covered       []bool // string index probe: covers, per snapshot

	// Probe state, built once and retargeted per outer row; operators are
	// built per execution, so no two executions share it: the string
	// index probe's band walk and match sink, and the string partition
	// probe's Myers kernel.
	walk     *bandWalk
	emitWalk func(row *relation.Row, d float64)
	qdp      editdp.QueryDP

	// Iteration state.
	cur     *Batch // current outer batch (owned by child)
	pos     int    // next outer row to probe
	curBind *binding
	scratch binding
	matches []joinMatch
	mpos    int
	dists   []float64 // DistBatch scratch

	out   *Batch
	binds []*binding
	local ExecStats
	last  ExecStats // retained across Close for span attribution
}

func (o *batchJoinOp) OpenBatch() error {
	switch o.algo {
	case "partition":
		if err := o.buildPartitions(); err != nil {
			return err
		}
	case "nl":
		// Reading the inner side counts as candidate work, like a scan's.
		for _, snap := range o.snaps {
			o.inner = append(o.inner, snap.Tuples()...)
		}
		o.local.Candidates += len(o.inner)
	case "index":
		if !o.vec {
			w, err := o.ctx.eng.bandWalk(o.sim.RuleSet, "")
			if err != nil {
				return err
			}
			o.walk, o.calc = w, w.calc
			o.walk.setBound(o.sim.Radius)
			o.emitWalk = func(row *relation.Row, d float64) {
				o.matches = append(o.matches, joinMatch{t: row.Tuple, d: d})
			}
			o.covered = o.covered[:0]
			for _, snap := range o.snaps {
				o.covered = append(o.covered, covers(o.calc, snap))
			}
		}
	}
	o.out = getBatch()
	o.cur, o.pos, o.curBind = nil, 0, nil
	o.matches, o.mpos = o.matches[:0], 0
	return o.child.OpenBatch()
}

// buildPartitions reads every inner snapshot once and buckets the rows.
// Reading the inner side counts as candidate work, like a scan's.
func (o *batchJoinOp) buildPartitions() error {
	o.outerIsTarget = o.probeField == o.sim.Target.Field
	o.innerField = o.sim.Field.Name
	if !o.outerIsTarget {
		o.innerField = o.sim.Target.Field.Name
	}
	if o.vec {
		if o.m == nil {
			return fmt.Errorf("query: stale plan: partition join lost its metric")
		}
		o.banded = metric.IsTriangular(o.m)
		o.bandW = o.sim.Radius
		if o.bandW <= 0 {
			o.bandW = 1
		}
		o.vecBuckets = make(map[int][]partVecRow)
		o.vecCols = make(map[int][]metric.Vector)
		for _, snap := range o.snaps {
			for _, t := range snap.Tuples() {
				if t.Vec == nil {
					continue // rows without a vector never match
				}
				key := 0
				if o.banded {
					key = int(math.Floor(o.m.Dist(t.Vec, metric.Vector{}) / o.bandW))
				}
				o.vecBuckets[key] = append(o.vecBuckets[key], partVecRow{t: t})
				o.vecCols[key] = append(o.vecCols[key], t.Vec)
				o.local.Candidates++
			}
		}
		return nil
	}
	o.calc = o.ctx.eng.calc(o.sim.RuleSet)
	if o.calc == nil {
		// Partition is only decided for rule sets with a DP calculator;
		// the rule set changed under the plan — Execute re-plans on this.
		return fmt.Errorf("query: stale plan: rule set %q has no calculator", o.sim.RuleSet)
	}
	o.strBuckets = make(map[int][]partInnerRow)
	for _, snap := range o.snaps {
		for _, t := range snap.Tuples() {
			val := t.Attr(o.innerField)
			o.strBuckets[len(val)] = append(o.strBuckets[len(val)], partInnerRow{t: t, val: val})
			o.local.Candidates++
		}
	}
	return nil
}

// probe finds the inner matches of one outer row with the decided
// strategy and leaves them id-sorted in o.matches.
func (o *batchJoinOp) probe(b *binding) error {
	o.matches, o.mpos = o.matches[:0], 0
	var err error
	switch {
	case o.algo == "index":
		err = o.probeIndex(b)
	case o.algo == "nl":
		err = o.probeAll(b)
	case o.vec:
		err = o.probeVec(b)
	default:
		err = o.probeStr(b)
	}
	slices.SortFunc(o.matches, func(a, b joinMatch) int { return cmp.Compare(a.t.ID, b.t.ID) })
	return err
}

// probeIndex runs the outer row's join value through every inner
// snapshot: the band walk of its length view for a string edge, its
// VP-tree for a vector edge.
func (o *batchJoinOp) probeIndex(b *binding) error {
	if !o.vec {
		pv, err := fieldValue(o.probeField, b)
		if err != nil {
			return err
		}
		o.walk.reset(pv)
		for i, snap := range o.snaps {
			o.local.add(o.walk.walk(snap, o.covered[i], o.emitWalk))
		}
		return nil
	}
	t, err := fieldTuple(o.probeField, b)
	if err != nil {
		return err
	}
	if t.Vec == nil {
		return nil // rows without a vector never match
	}
	for _, snap := range o.snaps {
		ms, st := snap.VPTree(o.m).RangeStats(t.Vec, o.sim.Radius)
		o.local.add(fromIndexStats(st))
		for _, m := range ms {
			// The shared tree is a superset of the snapshot: skip rows
			// invisible here (tombstone or later insert).
			if t, ok := snap.Tuple(m.ID); ok {
				o.matches = append(o.matches, joinMatch{t: t, d: m.Dist})
			}
		}
	}
	return nil
}

// probeAll verifies the outer row against every inner tuple. The pair
// binding is built once per outer row and only its inner slot changes
// per candidate.
func (o *batchJoinOp) probeAll(b *binding) error {
	pair := mergeBindings(b, newBinding(o.alias, relation.Tuple{}))
	slot := pair.slot(o.alias)
	for _, t := range o.inner {
		*slot = t
		o.local.Candidates++
		o.local.Verifications++
		d, ok, err := o.ctx.eng.evalSim(o.sim, pair)
		if err != nil {
			return err
		}
		if ok {
			o.matches = append(o.matches, joinMatch{t: t, d: d})
		}
	}
	return nil
}

func (o *batchJoinOp) probeStr(b *binding) error {
	pv, err := fieldValue(o.probeField, b)
	if err != nil {
		return err
	}
	radius := o.sim.Radius
	k := int(radius) // exact for integer distances: d <= radius iff d <= floor(radius)
	if radius >= math.MaxInt32 {
		k = math.MaxInt32 // clamp: degrades to the walk-all-buckets path below
	}
	// Fallback kernel preserving evalSim's operand order, built
	// lazily — most probes under a unit-cost rule set never need it.
	var fall *editdp.TargetDP
	fallback := func(x string) (float64, bool) {
		if o.outerIsTarget {
			if fall == nil {
				fall = o.calc.NewTargetDP(pv)
			}
			return fall.Within(x, radius)
		}
		return o.calc.Within(pv, x, radius)
	}
	// The unit distance is symmetric, so the Myers kernel can anchor on
	// the probe regardless of which operand it is: integer distances are
	// equal in both directions and bit-identical either way.
	var qdp *editdp.QueryDP
	if myersEligible(o.calc, pv, radius) {
		o.qdp.Reset(pv)
		qdp = &o.qdp
	}
	verify := func(rows []partInnerRow) {
		for _, row := range rows {
			o.local.Candidates++
			o.local.Verifications++
			var d float64
			var ok bool
			if qdp != nil && o.calc.Covers(row.val) {
				di, okd := qdp.Within(row.val, k)
				d, ok = float64(di), okd
			} else {
				d, ok = fallback(row.val)
			}
			if ok {
				o.matches = append(o.matches, joinMatch{t: row.t, d: d})
			}
		}
	}
	if 2*k+1 <= len(o.strBuckets) {
		for key := len(pv) - k; key <= len(pv)+k; key++ {
			verify(o.strBuckets[key])
		}
	} else {
		// The band covers more keys than buckets exist (a huge radius):
		// walk the map instead of the key range. Matches are id-sorted
		// afterwards either way, so bucket visit order is irrelevant.
		for key, rows := range o.strBuckets {
			if math.Abs(float64(key-len(pv))) <= float64(k) {
				verify(rows)
			}
		}
	}
	return nil
}

func (o *batchJoinOp) probeVec(b *binding) error {
	t, err := fieldTuple(o.probeField, b)
	if err != nil {
		return err
	}
	pv := t.Vec
	if pv == nil {
		return nil // rows without a vector never match
	}
	r := o.sim.Radius
	lo, hi := 0, 0
	if o.banded {
		nq := o.m.Dist(pv, metric.Vector{})
		lo = int(math.Floor((nq - r) / o.bandW))
		hi = int(math.Floor((nq + r) / o.bandW))
		if lo < 0 {
			lo = 0
		}
	}
	for key := lo; key <= hi; key++ {
		rows := o.vecBuckets[key]
		if len(rows) == 0 {
			continue
		}
		if o.outerIsTarget {
			// evalSim computes Dist(target, field); the blocked kernel
			// with the probe as query matches that order exactly.
			if cap(o.dists) < len(rows) {
				o.dists = make([]float64, len(rows))
			}
			out := o.dists[:len(rows)]
			metric.DistBatch(o.m, pv, o.vecCols[key], out)
			for i, row := range rows {
				o.local.Candidates++
				o.local.Verifications++
				if d := out[i]; d <= r {
					o.matches = append(o.matches, joinMatch{t: row.t, d: d})
				}
			}
		} else {
			// Probe is the field operand: keep the candidate (target)
			// first, the order evalSim verifies with.
			for _, row := range rows {
				o.local.Candidates++
				o.local.Verifications++
				if d, ok := metric.Within(o.m, row.t.Vec, pv, r); ok {
					o.matches = append(o.matches, joinMatch{t: row.t, d: d})
				}
			}
		}
	}
	return nil
}

func (o *batchJoinOp) NextBatch() (*Batch, error) {
	b := o.out
	b.reset()
	binds := o.binds[:0]
	for len(binds) < o.size {
		if o.mpos < len(o.matches) {
			m := o.matches[o.mpos]
			o.mpos++
			nb := mergeBindings(o.curBind, newBinding(o.alias, m.t))
			if !nb.hasDist {
				nb.dist, nb.hasDist = m.d, true
			}
			binds = append(binds, nb)
			continue
		}
		if o.cur != nil && o.pos < o.cur.Len() {
			if o.cur.binds != nil {
				o.curBind = o.cur.binds[o.pos]
			} else {
				// Safe to reuse the scratch view: mergeBindings copies the
				// tuple into the emitted binding before the next probe.
				o.cur.scratch(o.pos, o.cur.alias, &o.scratch)
				o.curBind = &o.scratch
			}
			o.pos++
			if err := o.probe(o.curBind); err != nil {
				return nil, err
			}
			continue
		}
		nb, err := o.child.NextBatch()
		if err != nil {
			return nil, err
		}
		if nb == nil {
			break
		}
		o.cur, o.pos = nb, 0
	}
	o.binds = binds
	if len(binds) == 0 {
		return nil, nil
	}
	b.binds = binds
	return b, nil
}

func (o *batchJoinOp) CloseBatch() error {
	o.last.add(o.local)
	o.ctx.addStats(o.local)
	o.local = ExecStats{}
	o.strBuckets, o.vecBuckets, o.vecCols, o.inner = nil, nil, nil, nil
	o.cur, o.curBind = nil, nil
	putBatch(o.out)
	o.out = nil
	return o.child.CloseBatch()
}

func (o *batchJoinOp) opStats() ExecStats { return o.last }

func (o *batchJoinOp) Describe() string {
	shards := ""
	if len(o.snaps) > 1 {
		shards = fmt.Sprintf(" x%d shards", len(o.snaps))
	}
	switch o.algo {
	case "nl":
		return fmt.Sprintf("NestedLoopJoin(%s%s, on %s)", o.alias, shards, o.sim)
	case "index":
		idx := "lengthview"
		if o.vec {
			idx = "vptree"
		}
		return fmt.Sprintf("IndexJoin(probe %s into %s(%s)%s, on %s)", o.probeField, idx, o.alias, shards, o.sim)
	}
	band := "length-banded"
	if o.vec {
		band = "norm-banded"
		if !metric.IsTriangular(o.m) {
			band = "single partition"
		}
	}
	return fmt.Sprintf("PartitionJoin(probe %s into %s[%s]%s, on %s)", o.probeField, o.alias, band, shards, o.sim)
}

func (o *batchJoinOp) childNodes() []BatchOperator { return []BatchOperator{o.child} }

// mergeBindings combines the aliases of two bindings into one slice
// sized for both; the right binding's tuple wins on a repeated alias,
// and the left binding's distance (if any) wins, preserving
// first-predicate-sets-dist semantics across join chains.
func mergeBindings(l, r *binding) *binding {
	b := &binding{aliases: make([]aliasTuple, 0, l.width()+r.width()), dist: l.dist, hasDist: l.hasDist}
	b.bindAll(l)
	b.bindAll(r)
	if !b.hasDist && r.hasDist {
		b.dist, b.hasDist = r.dist, true
	}
	return b
}

// buildJoin constructs the operator tree of a decided join. Edges are
// recovered by position from extractJoinSims' deterministic output;
// edges not used by any step (cycles) become residual predicates — they
// must still hold on each output row.
//
// The chain fans out over the streams of its start relation (fanOut):
// one chain per shard of a sharded start, or per id-range slice of a
// plain one in a parallel plan, under an id-ordered GatherMerge. Every
// chain joins its stream against the FULL inner side: every snapshot of
// each inner relation ("broadcast"). Because tuple ids are global and
// each chain's output is ascending in outer id with inner matches
// ascending in global inner id, the gather reproduces exactly the
// unsharded serial plan's emission order. Broadcast is the right first
// strategy because the hash partitioner (relation.RouteOf) is not
// distance-preserving: rows within edit distance k of each other land
// on unrelated shards, so a co-partitioned join does not exist without
// a second, band-aware partitioning scheme. The partition strategy
// recovers exactly that banding — per chain, over the broadcast inner —
// without moving rows.
func (e *Engine) buildJoin(q *Query, d *planDecision, tabs []relation.Table) (*compiledPlan, error) {
	relOf := map[string]relation.Table{}
	for i, ref := range q.From {
		relOf[ref.Alias] = tabs[i]
	}
	edges, residual := extractJoinSims(q.Where, relOf)
	used := make([]bool, len(edges))
	for _, step := range d.steps {
		if step.edge < 0 || step.edge >= len(edges) {
			return nil, fmt.Errorf("query: stale plan: join edge %d out of range", step.edge)
		}
		used[step.edge] = true
	}
	for i, edge := range edges {
		if !used[i] {
			residual = AndExpr{L: residual, R: *edge}
		}
	}
	pred := simplifyExpr(residual)
	steps := d.steps

	// Resolve metrics and note the shared structure each index step reads
	// from its inner table: a table's structures are all ensured before
	// its snapshots are taken, so they carry the online-maintained ones
	// instead of building private ones per chain.
	stepMetrics := make([]metric.Distance, len(steps))
	type reads struct {
		lengthView bool
		vps        []metric.Distance
	}
	need := map[relation.Table]reads{}
	for i, step := range steps {
		if step.vec {
			m, ok := metric.Lookup(edges[step.edge].RuleSet)
			if !ok {
				return nil, fmt.Errorf("query: unknown metric %q", edges[step.edge].RuleSet)
			}
			stepMetrics[i] = m
		}
		if step.algo != "index" {
			continue
		}
		inner := relOf[step.alias]
		r := need[inner]
		if step.vec {
			r.vps = append(r.vps, stepMetrics[i])
		} else {
			r.lengthView = true
		}
		need[inner] = r
	}
	// One snapshot list per table IDENTITY: a self-join must read the
	// same consistent cut on both sides, and a sharded table's view is
	// captured exactly once. Resolved eagerly: the chains below run
	// concurrently in the gather's workers.
	snapsOf := map[relation.Table][]*relation.Snapshot{}
	for _, tab := range tabs {
		if _, ok := snapsOf[tab]; !ok {
			snapsOf[tab] = snapshotsOf(nil, tab, need[tab].lengthView, need[tab].vps...)
		}
	}
	start := relOf[d.start]
	startStats := start.Stats()
	stepSnaps := make([][]*relation.Snapshot, len(steps))
	stepStats := make([]relation.Stats, len(steps))
	for i, step := range steps {
		stepSnaps[i] = snapsOf[relOf[step.alias]]
		stepStats[i] = relOf[step.alias].Stats()
	}

	ctx := &execCtx{eng: e, traced: q.Analyze || e.tracing.Load()}
	size := e.batchLeafSize(q)
	// chain builds the join chain over one stream of the start relation.
	// The estimate follows the decided join order with the same
	// joinOutRowsFor formula decideJoin costed with, scaled to the stream.
	chain := func(s stream) BatchOperator {
		cur := float64(startStats.Count) / float64(s.shards)
		var op BatchOperator = trB(ctx, &batchScanOp{stream: s, ctx: ctx, alias: d.start, size: size}, cur)
		for i, step := range steps {
			cur = joinOutRowsFor(edges[step.edge], cur, stepStats[i])
			op = trB(ctx, &batchJoinOp{
				kernelTag: kernelTag{d.kernel}, ctx: ctx, child: op, algo: step.algo,
				snaps: stepSnaps[i], alias: step.alias, probeField: step.probeField,
				sim: edges[step.edge], size: size, vec: step.vec, m: stepMetrics[i],
			}, cur)
		}
		if !isTrivial(pred) {
			op = trB(ctx, &batchFilterOp{kernelTag: kernelTag{e.filterKernel(pred)}, ctx: ctx, child: op, pred: pred, alias: d.start},
				estFilterRows(startStats, pred, cur))
		}
		return op
	}
	access, err := e.fanOut(ctx, q, d, start, snapsOf[start], d.start, 0, -1, chain)
	if err != nil {
		return nil, err
	}
	return &compiledPlan{
		root: e.wrapBatchTop(q, access, d.start, size, ctx, false),
		ctx:  ctx, columns: projectColumns(q), kernel: d.kernel,
	}, nil
}
