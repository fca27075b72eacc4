package query

// The distance join. One operator, batchJoinOp, blocks the OUTER side
// through the pipeline and probes the INNER side once per outer row.
// Each edge has one probe, decided by what the inner side offers
// (chooseJoinAlgo):
//
//   - "index" walks a structure of the inner snapshot: the length
//     view's band walk at floor(r) (bandwalk.go) or the vector view. The
//     band walk measures d(inner, probe) where the predicate may name
//     d(probe, inner); the unit-cost rule sets it serves are symmetric
//     and their distances integers, so the two agree exactly. The vector
//     view measures d(probe, inner), which the L2 core computes
//     bit-identically in either operand order.
//   - "scan" reads the inner snapshot once at open and verifies the
//     candidates with their domain's kernel: Myers (TargetDP for rows
//     outside the rule alphabet), the DP calculator, the general engine,
//     or the metric's DistBatch. Under a unit-cost rule set d(x, y) >=
//     | |x| - |y| |, so the rows are kept in length order and a probe of
//     length L verifies only the band [L-floor(r), L+floor(r)].
//
// Every kernel keeps the predicate's operand order (field -> target,
// whichever side probes), so a join returns what verifying each pair
// with the compiled predicate (batch_pred.go) would; the join oracle
// pins that against a brute force.
//
// Per-probe matches sort by tuple id before emission, so the output
// order is outer order, inner ascending, whatever the probe.
//
// Rows are slot columns (slotMap): an outer row holds the slots before
// the step's own, and each match emits a copy of them with the inner
// tuple in the step's slot — appended to the operator's one output
// batch, so a pair costs no allocation of its own.

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
	snap       *relation.Snapshot
	alias      string   // inner alias
	slot       int      // the inner alias's slot; the outer rows hold the slots before it
	probeField FieldRef // outer-side join field
	probeVal   valFn    // a string edge's probe value, compiled over the outer slots
	probeSlot  int      // a vector edge's probe slot
	sim        *SimExpr
	size       int
	vec        bool
	m          metric.Distance // vec edges: the resolved metric

	// Inner-side state, built at OpenBatch: the scan probe's rows (and
	// the vector column of a vector edge) and the snapshot's alphabet
	// coverage of a string index probe (the structures the index probes
	// read live in the snapshot).
	outerIsTarget bool // probe value is the predicate's target operand
	inner         []innerRow
	vecs          []metric.Vector
	calc          *editdp.Calculator
	within        func(x, y string, radius float64) (float64, bool, error)
	covered       bool

	// Probe state, built once and retargeted per outer row; operators are
	// built per execution, so no two executions share it: the string
	// index probe's band walk and match sink, the vector index probe's
	// match sink, and the string scan probe's Myers kernel.
	walk     *bandWalk
	emitWalk func(row *relation.Row, d float64)
	emitVec  func(rows []*relation.Row, ds []float64)
	qdp      editdp.QueryDP

	// Iteration state.
	cur     *Batch // current outer batch (owned by child)
	pos     int    // next outer row to probe; the matches are row pos-1's
	matches []joinMatch
	mpos    int
	dists   []float64 // DistBatch output, one per inner vector

	out   *Batch
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
	default:
		o.emitVec = func(rows []*relation.Row, ds []float64) {
			for i, row := range rows {
				o.matches = append(o.matches, joinMatch{t: row.Tuple, d: ds[i]})
			}
		}
	}
	if err != nil {
		return err
	}
	o.out = getBatch()
	o.cur, o.pos = nil, 0
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
	o.covered = covers(o.calc, o.snap)
	return nil
}

// openScan reads the inner snapshot once, keeping the rows that can
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
			// the rule set was re-registered between planning and opening.
			return fmt.Errorf("query: stale plan: rule set %q has no calculator", o.sim.RuleSet)
		}
		o.within = o.ctx.eng.compileWithin(o.sim.RuleSet)
	}
	o.inner = make([]innerRow, 0, o.snap.Len())
	for _, t := range o.snap.Tuples() {
		switch {
		case !o.vec:
			o.inner = append(o.inner, innerRow{t: t, val: t.Attr(innerField)})
		case t.Vec != nil: // rows without a vector never match
			o.inner = append(o.inner, innerRow{t: t})
			o.vecs = append(o.vecs, t.Vec)
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

// probe finds the inner matches of outer row i of b with the decided
// probe and leaves them id-sorted in o.matches.
func (o *batchJoinOp) probe(b *Batch, i int) error {
	o.matches, o.mpos = o.matches[:0], 0
	if o.vec {
		// Rows without a vector never match.
		switch pv := b.slot(o.probeSlot).Vecs[i]; {
		case pv == nil:
		case o.algo == "index":
			o.probeVecView(pv)
		default:
			o.probeVec(pv)
		}
	} else {
		pv, err := o.probeVal(b, i)
		if err != nil {
			return err
		}
		if o.algo == "index" {
			o.probeLengthView(pv)
		} else if err := o.probeStr(pv); err != nil {
			return err
		}
	}
	slices.SortFunc(o.matches, func(a, b joinMatch) int { return cmp.Compare(a.t.ID, b.t.ID) })
	return nil
}

// probeLengthView runs a string join value through the band walk of
// the inner snapshot's length view.
func (o *batchJoinOp) probeLengthView(pv string) {
	o.walk.reset(pv)
	o.local.add(o.walk.walk(o.snap, o.covered, o.emitWalk))
}

// probeVecView runs a vector join value through the inner snapshot's
// vector view.
func (o *batchJoinOp) probeVecView(pv metric.Vector) {
	r := o.sim.Radius
	o.local.add(fromIndexStats(o.snap.VecWalk(o.m, pv, &r, o.emitVec)))
}

// probeStr verifies a string join value against the inner rows: the
// length band of a unit-cost edge, every row otherwise.
func (o *batchJoinOp) probeStr(pv string) error {
	var err error
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

// probeVec verifies a vector join value against every inner vector.
func (o *batchJoinOp) probeVec(pv metric.Vector) {
	r := o.sim.Radius
	o.local.Candidates += len(o.inner)
	o.local.Verifications += len(o.inner)
	if o.outerIsTarget {
		// The predicate computes Dist(target, field); the blocked kernel
		// with the probe as query matches that order exactly.
		metric.DistBatch(o.m, pv, o.vecs, o.dists)
		for i, d := range o.dists {
			if d <= r {
				o.matches = append(o.matches, joinMatch{t: o.inner[i].t, d: d})
			}
		}
		return
	}
	// The probe is the field operand: keep the candidate (target) first,
	// the order the predicate verifies with.
	for _, row := range o.inner {
		if d, ok := metric.Within(o.m, row.t.Vec, pv, r); ok {
			o.matches = append(o.matches, joinMatch{t: row.t, d: d})
		}
	}
}

func (o *batchJoinOp) NextBatch() (*Batch, error) {
	b := o.out
	b.reset(o.slot + 1)
	for b.Len() < o.size {
		if o.mpos < len(o.matches) {
			m := o.matches[o.mpos]
			o.mpos++
			b.appendJoined(o.cur, o.pos-1, m.t, m.d)
			continue
		}
		if o.cur != nil && o.pos < o.cur.Len() {
			o.pos++
			if err := o.probe(o.cur, o.pos-1); err != nil {
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
	if b.Len() == 0 {
		return nil, nil
	}
	return b, nil
}

// appendJoined adds outer row i of src joined with the inner tuple t at
// distance d: src's slots, then t in the next slot. The row keeps the
// outer row's distance when it has one — the first edge in join order
// sets it, as the first matching similarity conjunct does in a filter.
func (b *Batch) appendJoined(src *Batch, i int, t relation.Tuple, d float64) {
	w := src.width()
	for s := range w {
		from := src.slot(s)
		b.slot(s).Append(from.IDs[i], from.Seqs[i], from.Vecs[i], from.Attrs[i])
	}
	b.slot(w).Append(t.ID, t.Seq, t.Vec, t.Attrs)
	if src.has[i] {
		d = src.dist[i]
	}
	b.dist = append(b.dist, d)
	b.has = append(b.has, true)
}

func (o *batchJoinOp) CloseBatch() error {
	o.last.add(o.local)
	o.ctx.addStats(o.local)
	o.local = ExecStats{}
	o.inner, o.vecs, o.dists = nil, nil, nil
	o.cur = nil
	putBatch(o.out)
	o.out = nil
	return o.child.CloseBatch()
}

func (o *batchJoinOp) opStats() ExecStats { return o.last }

func (o *batchJoinOp) Describe() string {
	if o.algo == "index" {
		idx := "lengthview"
		if o.vec {
			idx = "vecview"
		}
		return fmt.Sprintf("IndexJoin(probe %s into %s(%s), on %s)", o.probeField, idx, o.alias, o.sim)
	}
	band := ""
	if o.banded {
		band = "[length-banded]"
	}
	return fmt.Sprintf("NestedLoopJoin(%s%s, on %s)", o.alias, band, o.sim)
}

func (o *batchJoinOp) childNodes() []BatchOperator { return []BatchOperator{o.child} }

// buildJoin constructs the operator tree of a decided join; the
// decision's residual predicate filters each output row.
//
// The chain fans out over the streams of its start relation (fanOut):
// one chain, or one per id-range slice in a parallel plan, under an
// id-ordered GatherMerge. Every chain joins its stream against the
// whole snapshot of each inner relation. Because each chain's output is
// ascending in outer id with inner matches ascending in inner id, the
// gather reproduces exactly the serial plan's emission order.
func (e *Engine) buildJoin(q *Query, d *planDecision, tabs []*relation.Relation) (*compiledPlan, error) {
	relOf := map[string]*relation.Relation{}
	for i, ref := range q.From {
		relOf[ref.Alias] = tabs[i]
	}
	pred, steps := d.pred, d.steps

	// Resolve metrics and note the shared structure each index step reads
	// from its inner relation: a relation's structures are all ensured
	// before its snapshot is taken, so it carries the online-maintained
	// ones instead of building private ones per chain.
	stepMetrics := make([]metric.Distance, len(steps))
	type reads struct {
		lengthView bool
		views      []metric.Distance
	}
	need := map[*relation.Relation]reads{}
	for i, step := range steps {
		if step.vec {
			m, ok := metric.Lookup(step.sim.RuleSet)
			if !ok {
				return nil, fmt.Errorf("query: unknown metric %q", step.sim.RuleSet)
			}
			stepMetrics[i] = m
		}
		if step.algo != "index" {
			continue
		}
		inner := relOf[step.alias]
		r := need[inner]
		if step.vec {
			r.views = append(r.views, stepMetrics[i])
		} else {
			r.lengthView = true
		}
		need[inner] = r
	}
	// One snapshot per relation IDENTITY: a self-join must read the same
	// consistent cut on both sides. Taken eagerly: the chains below run
	// concurrently in the gather's workers.
	snapOf := map[*relation.Relation]*relation.Snapshot{}
	for _, tab := range tabs {
		if _, ok := snapOf[tab]; !ok {
			snapOf[tab] = snapshotOf(tab, need[tab].lengthView, need[tab].views...)
		}
	}
	start := relOf[d.start]
	startStats := start.Stats()
	// The rows' slots in join order: the start alias, then each step's.
	slots := slotMap{d.start}
	stepSnaps := make([]*relation.Snapshot, len(steps))
	stepStats := make([]relation.Stats, len(steps))
	probeVals := make([]valFn, len(steps))
	probeSlots := make([]int, len(steps))
	for i, step := range steps {
		stepSnaps[i] = snapOf[relOf[step.alias]]
		stepStats[i] = relOf[step.alias].Stats()
		if step.vec {
			s, err := slots.resolve(step.probeField)
			if err != nil {
				return nil, err
			}
			probeSlots[i] = s
		} else {
			probeVals[i] = compileField(step.probeField, slots)
		}
		slots = append(slots, step.alias)
	}

	ctx := &execCtx{eng: e, traced: q.Analyze || e.tracing.Load()}
	size := e.batchLeafSize(q)
	// chain builds the join chain over one stream of the start relation.
	// The estimate follows the decided join order with the same
	// joinOutRowsFor formula decideJoin costed with, scaled to the stream.
	chain := func(s stream) BatchOperator {
		cur := float64(startStats.Count) / float64(s.slices)
		var op BatchOperator = trB(ctx, &batchScanOp{stream: s, ctx: ctx, alias: d.start, size: size}, cur)
		for i, step := range steps {
			cur = joinOutRowsFor(step.sim, cur, stepStats[i])
			op = trB(ctx, &batchJoinOp{
				kernelTag: kernelTag{d.kernel}, ctx: ctx, child: op, algo: step.algo, banded: step.banded,
				snap: stepSnaps[i], alias: step.alias, slot: i + 1, probeField: step.probeField,
				probeVal: probeVals[i], probeSlot: probeSlots[i],
				sim: step.sim, size: size, vec: step.vec, m: stepMetrics[i],
			}, cur)
		}
		if !isTrivial(pred) {
			op = trB(ctx, &batchFilterOp{kernelTag: kernelTag{e.filterKernel(pred)}, ctx: ctx, child: op, pred: pred, slots: slots},
				estFilterRows(startStats, pred, cur))
		}
		return op
	}
	return &compiledPlan{
		root: e.wrapBatchTop(q, e.fanOut(ctx, q, d, snapOf[start], chain), slots, size, ctx, false),
		ctx:  ctx, columns: projectColumns(q), kernel: d.kernel,
	}, nil
}
