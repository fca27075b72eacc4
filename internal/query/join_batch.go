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
// A self-join that drops the pairs of a row with itself verifies each
// unordered pair once (symmetricSelfJoin decides when): its first step
// walks the length view from outer row x only through the inner rows
// with a larger id, emits each match (x, y) and keeps its mirror
// (y, x, d) in a min-heap ordered by (y, x). The unit-cost distance is
// symmetric, so d is the mirror's distance too. The outer scan and
// every band ascend in id, so y's turn as the outer row comes later:
// its mirrors come out first (ids below y), then its own matches (above
// y) — the order of the walk over every pair, minus the self pairs the
// residual filter drops. Each band keeps a cursor at its first row above
// the last probe, which only moves forward, and x's signature is read
// from its own band entry. A parallel slice walks the same range for
// its own rows and emits, after its outer stream ends, the mirrors
// whose larger row a later slice owns, in (y, x) order: the id-ordered
// gather takes equal slot-0 ids from the lower stream first, so it
// rebuilds the serial order, and serial and parallel plans do the same
// work. The heap holds at most the pairs whose larger row has not been
// probed yet: for a join at radius +Inf, up to half the output.
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
	"sort"

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
	symmetric  bool            // a self-join step that verifies each unordered pair once

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
	pairs    *pairWalk // the symmetric walk's state

	// Iteration state.
	cur     *Batch // current outer batch (owned by child)
	pos     int    // next outer row to probe; the matches are row pos-1's
	eof     bool   // the outer side is exhausted
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
	o.cur, o.pos, o.eof = nil, 0, false
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
	o.covered = covers(o.calc, o.snap)
	if o.symmetric {
		bands := o.snap.LengthView().AllBands()
		o.pairs = &pairWalk{bands: bands, next: make([]int, len(bands))}
		o.emitWalk = func(row *relation.Row, d float64) {
			o.matches = append(o.matches, joinMatch{t: row.Tuple, d: d})
			x := o.pairs.x
			o.pairs.mirrors.push(mirror{oid: row.ID, iid: x.ID, outer: row, inner: x, d: d})
		}
		return nil
	}
	o.emitWalk = func(row *relation.Row, d float64) {
		o.matches = append(o.matches, joinMatch{t: row.Tuple, d: d})
	}
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
		switch {
		case o.pairs != nil:
			if err := o.probePairs(b.slot(0).IDs[i], pv); err != nil {
				return err
			}
		case o.algo == "index":
			o.probeLengthView(pv)
		default:
			if err := o.probeStr(pv); err != nil {
				return err
			}
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

// pairWalk is the probe state of a symmetric self-join step.
type pairWalk struct {
	bands   []relation.Band // the inner view's bands at open, ascending length
	next    []int           // per band: its first entry whose id is not below the last probe's
	x       *relation.Row   // the outer row being probed
	mirrors mirrorHeap
}

// mirror is a match (outer, inner) found by inner's probe, waiting for
// outer's turn; oid and iid are their ids, the heap's keys.
type mirror struct {
	oid, iid     int
	outer, inner *relation.Row
	d            float64
}

// mirrorHeap is a binary min-heap of mirrors by (oid, iid).
type mirrorHeap []mirror

func (h mirrorHeap) less(i, j int) bool {
	return h[i].oid < h[j].oid || h[i].oid == h[j].oid && h[i].iid < h[j].iid
}

func (h *mirrorHeap) push(m mirror) {
	*h = append(*h, m)
	s := *h
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if !s.less(i, p) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

func (h *mirrorHeap) pop() mirror {
	s := *h
	top, n := s[0], len(s)-1
	s[0] = s[n]
	s = s[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && s.less(c+1, c) {
			c++
		}
		if !s.less(c, i) {
			break
		}
		s[i], s[c] = s[c], s[i]
		i = c
	}
	*h = s
	return top
}

// skip moves band j's cursor past the entries whose id is below id and
// returns it.
func (p *pairWalk) skip(j, id int) int {
	ents, i := p.bands[j].Ents, p.next[j]
	for i < len(ents) && ents[i].Row.ID < id {
		i++
	}
	p.next[j] = i
	return i
}

// probePairs probes the outer row (id, seq) of a symmetric self-join:
// the mirrors earlier probes left for it, then the walk over the inner
// rows of its length window whose id is above id.
func (o *batchJoinOp) probePairs(id int, seq string) error {
	p := o.pairs
	for len(p.mirrors) > 0 && p.mirrors[0].oid == id {
		m := p.mirrors.pop()
		o.matches = append(o.matches, joinMatch{t: m.inner.Tuple, d: m.d})
	}
	bands, n := p.bands, len(seq)
	own := sort.Search(len(bands), func(j int) bool { return bands[j].Len >= n })
	at := -1
	if own < len(bands) && bands[own].Len == n {
		at = p.skip(own, id)
	}
	if at < 0 || at == len(bands[own].Ents) || bands[own].Ents[at].Row.ID != id {
		return fmt.Errorf("query: self-join row %d is missing from its length view", id)
	}
	p.x = bands[own].Ents[at].Row
	o.walk.resetSig(seq, bands[own].Sigs[at])
	k := o.walk.ibound
	for j := sort.Search(len(bands), func(j int) bool { return bands[j].Len >= n-k }); j < len(bands) && bands[j].Len <= n+k; j++ {
		from := p.skip(j, id)
		if j == own {
			from++ // x itself
		}
		o.walk.band(bands[j], from, o.snap, o.covered, o.emitWalk, &o.local)
	}
	return nil
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
		if !o.eof {
			nb, err := o.child.NextBatch()
			if err != nil {
				return nil, err
			}
			if nb != nil {
				o.cur, o.pos = nb, 0
				continue
			}
			o.eof = true
		}
		// The outer side is done. The mirrors a symmetric walk still
		// holds belong to rows a later parallel slice owns.
		if o.pairs == nil || len(o.pairs.mirrors) == 0 {
			break
		}
		m := o.pairs.mirrors.pop()
		b.appendPair(m.outer.Tuple, m.inner.Tuple, m.d)
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

// appendPair adds a row of a first join step from its two tuples: the
// outer in slot 0, the inner in slot 1, at distance d.
func (b *Batch) appendPair(outer, inner relation.Tuple, d float64) {
	b.slot(0).Append(outer.ID, outer.Seq, outer.Vec, outer.Attrs)
	b.slot(1).Append(inner.ID, inner.Seq, inner.Vec, inner.Attrs)
	b.dist = append(b.dist, d)
	b.has = append(b.has, true)
}

func (o *batchJoinOp) CloseBatch() error {
	o.last.add(o.local)
	o.ctx.addStats(o.local)
	o.local = ExecStats{}
	o.inner, o.vecs, o.dists = nil, nil, nil
	o.cur, o.pairs = nil, nil
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
		sym := ""
		if o.symmetric {
			sym = ", symmetric"
		}
		return fmt.Sprintf("IndexJoin(probe %s into %s(%s), on %s%s)", o.probeField, idx, o.alias, o.sim, sym)
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
	symmetric := e.symmetricSelfJoin(d, relOf, slots)

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
				sim: step.sim, size: size, vec: step.vec, m: stepMetrics[i], symmetric: i == 0 && symmetric,
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

// symmetricSelfJoin reports whether the first step of a decided join
// may verify each unordered pair once (see the file comment): a length
// view probe of the start relation's seq into the same relation's seq
// under a unit-cost rule set — symmetric, integer distances — whose
// residual rejects every pair of a row with itself. The self pairs it
// leaves out must be unobservable: the residual rejects them before it
// evaluates a conjunct that could fail (selfPairsDropped), and no later
// step's probe can fail on them.
func (e *Engine) symmetricSelfJoin(d *planDecision, relOf map[string]*relation.Relation, slots slotMap) bool {
	step := d.steps[0]
	if step.algo != "index" || step.vec || relOf[step.alias] != relOf[d.start] || step.probeField.Name != "seq" {
		return false
	}
	if ent, _ := e.rule(step.sim.RuleSet); ent == nil || !ent.unit {
		return false
	}
	for _, s := range d.steps[1:] {
		// Only the general engine's verifier (a scan under a rule set
		// with no DP calculator) fails on a row.
		if s.algo == "scan" && !s.vec && e.calc(s.sim.RuleSet) == nil {
			return false
		}
	}
	dropped, _ := selfPairsDropped(d.pred, d.start, step.alias, slots)
	return dropped
}

// selfPairsDropped walks pred's top-level AND chain in evaluation order
// for a conjunct a.id != b.id (either operand order). found says it was
// reached; safe says that every conjunct evaluated before it cannot
// fail: it compares literals and fields that resolve over slots.
func selfPairsDropped(pred Expr, a, b string, slots slotMap) (found, safe bool) {
	switch ex := pred.(type) {
	case AndExpr:
		if found, safe := selfPairsDropped(ex.L, a, b, slots); found || !safe {
			return found, safe
		}
		return selfPairsDropped(ex.R, a, b, slots)
	case CmpExpr:
		if ex.Neq && isIDField(ex.L) && isIDField(ex.R) {
			l, r := ex.L.Field.Table, ex.R.Field.Table
			if l == a && r == b || l == b && r == a {
				return true, true
			}
		}
		resolves := func(o Operand) bool {
			if o.IsLit || o.Field.Name == "dist" { // every joined row has a distance
				return true
			}
			_, err := slots.resolve(o.Field)
			return err == nil
		}
		return false, resolves(ex.L) && resolves(ex.R)
	}
	return false, false
}
