package query

// The distance join. One operator, batchJoinOp, blocks the OUTER side
// through the pipeline and probes the INNER side once per outer row
// with the probe its edge resolved to (probe.go): the band walk of the
// inner length view (and, for a self-join that drops the pairs of a row
// with itself, its walk over each unordered pair once, bandwalk.go), the
// walk of the inner vector view, or a scan of the inner rows with the
// edge's own kernel. Every probe measures the predicate's distance, so a
// join returns what verifying each pair with the compiled predicate
// (batch_pred.go) would; the join oracle pins that against a brute
// force.
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
	"slices"

	"repro/internal/relation"
)

// joinMatch is one verified inner match of the current probe.
type joinMatch struct {
	t relation.Tuple
	d float64
}

// batchJoinOp executes one decided join step.
type batchJoinOp struct {
	kernelTag
	ctx    *execCtx
	child  BatchOperator // outer side, batched
	p      probe         // the edge's probe, walking the inner snapshot
	snap   *relation.Snapshot
	slot   int // the inner alias's slot; the outer rows hold the slots before it
	size   int
	noDist bool // the row's distance is not the join's: emit none (see decideJoin)

	// Iteration state.
	cur     *Batch // current outer batch (owned by child)
	pos     int    // next outer row to probe; the matches are row pos-1's
	eof     bool   // the outer side is exhausted
	matches []joinMatch
	mpos    int

	out   *Batch
	local ExecStats
	last  ExecStats // retained across Close for span attribution
}

func (o *batchJoinOp) OpenBatch() error {
	st, err := o.p.open(o.ctx, o.snap)
	o.local.add(st)
	if err != nil {
		return err
	}
	o.out = getBatch()
	o.cur, o.pos, o.eof = nil, 0, false
	o.matches, o.mpos = o.matches[:0], 0
	return o.child.OpenBatch()
}

// probe finds the inner matches of outer row i of b and leaves them
// id-sorted in o.matches, unless the execution's context is done.
func (o *batchJoinOp) probe(b *Batch, i int) error {
	o.matches, o.mpos = o.matches[:0], 0
	if err := o.ctx.err(); err != nil {
		return err
	}
	ok, err := o.p.aim(b, i)
	if ok {
		var st ExecStats
		st, err = o.p.walk(o.ctx, o)
		o.local.add(st)
	}
	if err != nil {
		return err
	}
	slices.SortFunc(o.matches, func(a, b joinMatch) int { return cmp.Compare(a.t.ID, b.t.ID) })
	return nil
}

func (o *batchJoinOp) take(t *relation.Tuple, d float64) {
	o.matches = append(o.matches, joinMatch{t: *t, d: d})
}

func (o *batchJoinOp) NextBatch() (*Batch, error) {
	b := o.out
	b.reset(o.slot + 1)
	for b.Len() < o.size {
		if o.mpos < len(o.matches) {
			m := o.matches[o.mpos]
			o.mpos++
			b.appendJoined(o.cur, o.pos-1, m.t, m.d, !o.noDist)
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
		// The outer side is done. The matches the probe still holds
		// belong to rows a later parallel slice owns.
		outer, inner, d, ok := o.p.rest()
		if !ok {
			break
		}
		b.appendPair(outer, inner, d, !o.noDist)
	}
	if b.Len() == 0 {
		return nil, nil
	}
	return b, nil
}

// appendJoined adds outer row i of src joined with the inner tuple t at
// distance d (has false: none): src's slots, then t in the next slot.
// The row keeps the outer row's distance when it has one — the first
// step serves the distance edge (decideJoin).
func (b *Batch) appendJoined(src *Batch, i int, t relation.Tuple, d float64, has bool) {
	w := src.width()
	for s := range w {
		from := src.slot(s)
		b.slot(s).Append(from.IDs[i], from.Seqs[i], from.Vecs[i], from.Attrs[i])
	}
	b.slot(w).Append(t.ID, t.Seq, t.Vec, t.Attrs)
	if src.has[i] {
		d, has = src.dist[i], true
	}
	b.dist = append(b.dist, d)
	b.has = append(b.has, has)
}

// appendPair adds a row of a first join step from its two tuples: the
// outer in slot 0, the inner in slot 1, at distance d (has false: none).
func (b *Batch) appendPair(outer, inner *relation.Tuple, d float64, has bool) {
	b.slot(0).Append(outer.ID, outer.Seq, outer.Vec, outer.Attrs)
	b.slot(1).Append(inner.ID, inner.Seq, inner.Vec, inner.Attrs)
	b.dist = append(b.dist, d)
	b.has = append(b.has, has)
}

func (o *batchJoinOp) CloseBatch() error {
	o.p.release()
	o.last.add(o.local)
	o.ctx.addStats(o.local)
	o.local = ExecStats{}
	o.cur = nil
	putBatch(o.out)
	o.out = nil
	return o.child.CloseBatch()
}

func (o *batchJoinOp) opStats() ExecStats { return o.last }

func (o *batchJoinOp) Describe() string { return o.p.explain("", "") }

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
	// Every structure a step walks is ensured on its inner relation
	// before the relation's snapshot is taken, so the snapshot carries
	// the online-maintained structure instead of each chain building a
	// private one. One snapshot per relation IDENTITY: a self-join must
	// read the same consistent cut on both sides. Taken eagerly: the
	// chains below run concurrently in the gather's workers.
	for _, p := range steps {
		p.ensure(relOf[p.spec().alias])
	}
	snapOf := map[*relation.Relation]*relation.Snapshot{}
	for _, tab := range tabs {
		if _, ok := snapOf[tab]; !ok {
			snapOf[tab] = tab.Snapshot()
		}
	}
	start := relOf[d.start]
	startStats := start.Stats()
	// The rows' slots in join order: the start alias, then each step's.
	slots := slotMap{d.start}
	for _, p := range steps {
		if err := p.bind(slots); err != nil {
			return nil, err
		}
		slots = append(slots, p.spec().alias)
	}
	pairs := e.symmetricSelfJoin(d, relOf, slots)

	ctx := e.newExecCtx(q)
	size := e.batchLeafSize(q)
	// chain builds the join chain over one stream of the start relation.
	// The estimate follows the decided join order with the same formula
	// decideJoin costed with, scaled to the stream.
	chain := func(s stream) BatchOperator {
		cur := float64(startStats.Count) / float64(s.slices)
		var op BatchOperator = trB(ctx, &batchScanOp{stream: s, ctx: ctx, alias: d.start, size: size, pairs: pairs}, cur)
		for i, p := range steps {
			if s.slices > 1 {
				p = p.clone() // a probe's state belongs to one pipeline
			}
			inner := relOf[p.spec().alias]
			cur, _ = p.estimate(cur, inner.Stats())
			op = trB(ctx, &batchJoinOp{
				kernelTag: kernelTag{p.kernel()}, ctx: ctx, child: op, p: p,
				snap: snapOf[inner], slot: i + 1, size: size, noDist: d.noDist,
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

// symmetricSelfJoin decides whether the first step of a decided join
// verifies each unordered pair once (see lengthViewProbe) and marks its
// probe so: a length view probe of the start relation's seq into the
// same relation's seq — resolved only under a unit-cost rule set, whose
// distances are symmetric integers — whose residual rejects every pair
// of a row with itself. The self pairs it leaves out must be
// unobservable: the residual rejects them before it evaluates a
// conjunct that could fail (selfPairsDropped), and no later step's
// probe can fail on them.
func (e *Engine) symmetricSelfJoin(d *planDecision, relOf map[string]*relation.Relation, slots slotMap) bool {
	lv, ok := d.steps[0].(*lengthViewProbe)
	if !ok || relOf[lv.alias] != relOf[d.start] || lv.field.Name != "seq" {
		return false
	}
	for _, p := range d.steps[1:] {
		if p.fallible() {
			return false
		}
	}
	lv.symmetric, _ = selfPairsDropped(d.pred, d.start, lv.alias, slots)
	return lv.symmetric
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
