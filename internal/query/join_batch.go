package query

// The distance join. One operator, batchJoinOp, blocks the OUTER side
// through the pipeline and probes the INNER side once per outer row.
// Each edge has one probe, decided by what the inner side offers
// (chooseJoinAlgo):
//
//   - "index" walks a structure of every inner snapshot: the length
//     view's band walk at floor(r) (bandwalk.go) or the VP-tree. The walk
//     measures d(inner, probe) where the predicate may name d(probe,
//     inner); the unit-cost rule sets it serves are symmetric and their
//     distances integers, so the two agree exactly.
//   - "scan" reads the inner snapshots once at open and verifies the
//     candidates with their domain's kernel: Myers (TargetDP for rows
//     outside the rule alphabet), the DP calculator, the general engine,
//     or the metric's DistBatch. Under a unit-cost rule set d(x, y) >=
//     | |x| - |y| |, so the rows are kept in length order and a probe of
//     length L verifies only the band [L-floor(r), L+floor(r)].
//
// Every kernel keeps evalSim's operand order (field -> target, whichever
// side probes), so a join returns what verifying each pair through
// evalSim would; the join oracle pins that against a brute force.
//
// The inner side is a list of snapshots: one for a plain relation, one
// per shard when a sharded inner is broadcast (see buildJoin). Per-probe
// matches sort by global tuple id before emission, so the output order
// is outer order, inner ascending, whatever the probe and layout.

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/editdp"
	"repro/internal/metric"
	"repro/internal/relation"
)

// innerRow is one inner tuple of a scan probe; val holds a string
// edge's join attribute, resolved once at open.
type innerRow struct {
	t   relation.Tuple
	val string
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
	algo       string        // probe: "index" | "scan"
	banded     bool          // scan of a unit-cost edit edge: the length band applies
	snaps      []*relation.Snapshot
	alias      string   // inner alias
	probeField FieldRef // outer-side join field
	sim        *SimExpr
	size       int
	vec        bool
	m          metric.Distance // vec edges: the resolved metric

	// Inner-side state, built at OpenBatch: the scan probe's rows (and
	// the vector column of a vector edge), the per-snapshot alphabet
	// coverage of a string index probe (the structures it reads live in
	// the snapshots).
	outerIsTarget bool // probe value is the predicate's target operand
	inner         []innerRow
	vecs          []metric.Vector
	calc          *editdp.Calculator
	within        func(x, y string, radius float64) (float64, bool, error)
	covered       []bool

	// Probe state, built once and retargeted per outer row; operators are
	// built per execution, so no two executions share it: the string
	// index probe's band walk and match sink, and the string scan
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
	dists   []float64 // DistBatch output, one per inner vector

	out   *Batch
	binds []*binding
	local ExecStats
	last  ExecStats // retained across Close for span attribution
}

func (o *batchJoinOp) OpenBatch() error {
	var err error
	switch {
	case o.algo == "scan":
		err = o.openScan()
	case !o.vec:
		err = o.openLengthView()
	}
	if err != nil {
		return err
	}
	o.out = getBatch()
	o.cur, o.pos, o.curBind = nil, 0, nil
	o.matches, o.mpos = o.matches[:0], 0
	return o.child.OpenBatch()
}

// openLengthView readies the string index probe's band walk.
func (o *batchJoinOp) openLengthView() error {
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
	return nil
}

// openScan reads every inner snapshot once, keeping the rows that can
// match, in length order when the band applies. Reading the inner side
// counts as candidate work, like a scan's.
func (o *batchJoinOp) openScan() error {
	o.outerIsTarget = o.probeField == o.sim.Target.Field
	innerField := o.sim.Field.Name
	if !o.outerIsTarget {
		innerField = o.sim.Target.Field.Name
	}
	if !o.vec {
		o.calc = o.ctx.eng.calc(o.sim.RuleSet)
		if o.banded && o.calc == nil {
			// The band is only decided for rule sets with a DP calculator;
			// the rule set changed under the plan — Execute re-plans on this.
			return fmt.Errorf("query: stale plan: rule set %q has no calculator", o.sim.RuleSet)
		}
		o.within = o.ctx.eng.compileWithin(o.sim.RuleSet)
	}
	n := 0
	for _, snap := range o.snaps {
		n += snap.Len()
	}
	o.inner = make([]innerRow, 0, n)
	for _, snap := range o.snaps {
		for _, t := range snap.Tuples() {
			switch {
			case !o.vec:
				o.inner = append(o.inner, innerRow{t: t, val: t.Attr(innerField)})
			case t.Vec != nil: // rows without a vector never match
				o.inner = append(o.inner, innerRow{t: t})
				o.vecs = append(o.vecs, t.Vec)
			}
		}
	}
	o.local.Candidates += len(o.inner)
	o.dists = make([]float64, len(o.vecs))
	if o.banded {
		// Matches are id-sorted per probe, so rows of equal length may
		// land in any order.
		slices.SortFunc(o.inner, func(a, b innerRow) int { return cmp.Compare(len(a.val), len(b.val)) })
	}
	return nil
}

// probe finds the inner matches of one outer row with the decided
// probe and leaves them id-sorted in o.matches.
func (o *batchJoinOp) probe(b *binding) error {
	o.matches, o.mpos = o.matches[:0], 0
	var err error
	switch {
	case o.algo == "index":
		err = o.probeIndex(b)
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

// probeStr verifies the outer row's string join value against the
// inner rows: the length band of a unit-cost edge, every row otherwise.
func (o *batchJoinOp) probeStr(b *binding) error {
	pv, err := fieldValue(o.probeField, b)
	if err != nil {
		return err
	}
	radius := o.sim.Radius
	rows := o.inner
	k := 0
	// The unit distance is symmetric, so the Myers kernel can anchor on
	// the probe regardless of which operand it is: integer distances are
	// equal in both directions and bit-identical either way.
	var qdp *editdp.QueryDP
	if o.banded {
		// Exact for integer distances: d <= radius iff d <= floor(radius).
		k = int(min(radius, math.MaxInt32))
		byLen := func(r innerRow, l int) int { return cmp.Compare(len(r.val), l) }
		lo, _ := slices.BinarySearchFunc(rows, len(pv)-k, byLen)
		hi, _ := slices.BinarySearchFunc(rows, len(pv)+k+1, byLen)
		rows = rows[lo:max(lo, hi)]
		if myersEligible(o.calc, pv, radius) {
			o.qdp.Reset(pv)
			qdp = &o.qdp
		}
	}
	// The probe's own DP tables, built lazily — most probes under a
	// unit-cost rule set never need them.
	var fall *editdp.TargetDP
	for _, row := range rows {
		o.local.Candidates++
		o.local.Verifications++
		var d float64
		var ok bool
		switch {
		case qdp != nil && o.calc.Covers(row.val):
			di, okd := qdp.Within(row.val, k)
			d, ok = float64(di), okd
		case o.outerIsTarget && o.calc != nil:
			if fall == nil {
				fall = o.calc.NewTargetDP(pv)
			}
			d, ok = fall.Within(row.val, radius)
		case o.outerIsTarget:
			d, ok, err = o.within(row.val, pv, radius)
		default:
			d, ok, err = o.within(pv, row.val, radius)
		}
		if err != nil {
			return err
		}
		if ok {
			o.matches = append(o.matches, joinMatch{t: row.t, d: d})
		}
	}
	return nil
}

// probeVec verifies the outer row's vector against every inner vector.
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
	o.local.Candidates += len(o.inner)
	o.local.Verifications += len(o.inner)
	if o.outerIsTarget {
		// evalSim computes Dist(target, field); the blocked kernel with
		// the probe as query matches that order exactly.
		metric.DistBatch(o.m, pv, o.vecs, o.dists)
		for i, d := range o.dists {
			if d <= r {
				o.matches = append(o.matches, joinMatch{t: o.inner[i].t, d: d})
			}
		}
		return nil
	}
	// The probe is the field operand: keep the candidate (target) first,
	// the order evalSim verifies with.
	for _, row := range o.inner {
		if d, ok := metric.Within(o.m, row.t.Vec, pv, r); ok {
			o.matches = append(o.matches, joinMatch{t: row.t, d: d})
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
	o.inner, o.vecs, o.dists = nil, nil, nil
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
	if o.algo == "index" {
		idx := "lengthview"
		if o.vec {
			idx = "vptree"
		}
		return fmt.Sprintf("IndexJoin(probe %s into %s(%s)%s, on %s)", o.probeField, idx, o.alias, shards, o.sim)
	}
	band := ""
	if o.banded {
		band = "[length-banded]"
	}
	return fmt.Sprintf("NestedLoopJoin(%s%s%s, on %s)", o.alias, band, shards, o.sim)
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
// a second, band-aware partitioning scheme. The scan probe's length
// band recovers exactly that banding — per chain, over the broadcast
// inner — without moving rows.
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
				kernelTag: kernelTag{d.kernel}, ctx: ctx, child: op, algo: step.algo, banded: step.banded,
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
