package query

// The probe contract: every similarity access path — NEAREST k, WITHIN
// r and the probe of a distance join — is one probe over one snapshot.
// This is the paper's shape, written once for every domain: a target,
// an inclusive bound the caller may lower, and a walk that hands every
// visible row within the bound to the caller, pruning by a lower bound
// where the structure has one. Three probes exist:
//
//   - lengthViewProbe: the band walk of the length view (bandwalk.go),
//     for seq under a unit-cost rule set and for NEAREST under any
//     edit-like one; a self-join step may walk each unordered pair once;
//   - vecViewProbe: the walk of the vector view (relation.VecView), for
//     every vector predicate under any metric;
//   - scanProbe: a string join edge's inner-row scan, which reads the
//     inner snapshot once and verifies the candidates of each probe with
//     the edge's own kernel.
//
// The planner resolves a predicate to its probe in one place (probeFor
// and rangeProbe below), the only planner code that reads the column or
// the USING name. The NearestK and Range leaves (batch_operators.go) and
// the join operator run any probe. A probe is configured at planning,
// copied per pipeline, opened once per execution and, in a join, aimed
// at each outer row; its walk calls the sink once per emitted row, never
// per candidate. Every probe measures the predicate's own distance, so
// replies do not depend on the path.

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/editdp"
	"repro/internal/metric"
	"repro/internal/relation"
)

// probe is one similarity access path (see the file comment).
type probe interface {
	// spec returns the planning-time configuration.
	spec() *probeBase
	// clone returns an unopened copy for another pipeline.
	clone() probe
	// ensure builds the shared structure the probe walks on rel, before
	// the plan snapshots it.
	ensure(rel *relation.Relation)
	// bind compiles a join probe's outer field over the outer slots.
	bind(slots slotMap) error
	// open readies the probe over snap and returns the work it took.
	open(ctx *execCtx, snap *relation.Snapshot) (ExecStats, error)
	// aim retargets a join probe at outer row i of b; false: the row has
	// no probe value and nothing matches it.
	aim(b *Batch, i int) (bool, error)
	// setBound lowers the inclusive bound of the rest of the walk.
	setBound(bound float64)
	// walk hands every visible row within the bound to sink, which may
	// lower the bound, and returns the walk's work counters; it stops
	// with ctx's error at a band or view node after ctx is done.
	walk(ctx *execCtx, sink rowSink) (ExecStats, error)
	// release returns what open took from a pool, once walking is over.
	release()
	// rest pops a match the probe still holds after the outer side ended
	// (the symmetric walk's mirrors that a later slice owns).
	rest() (outer, inner *relation.Tuple, d float64, ok bool)
	// kernel names the distance kernel the probe runs, for EXPLAIN and
	// the dispatch counter.
	kernel() string
	// explain renders the probe's operator line; shard and order are a
	// leaf's slice and ORDER BY notes.
	explain(shard, order string) string
	// estimate returns the rows outer probes emit against inner and, for
	// a join edge, the cost that orders the join chain.
	estimate(outer float64, inner relation.Stats) (rows, cost float64)
	// fallible reports whether verifying a row may fail with an error.
	fallible() bool
}

// rowSink receives the rows a walk emits. The leaves and the join
// operator implement it, so a walk allocates no closure.
type rowSink interface {
	take(t *relation.Tuple, d float64)
}

// probeBase is what the planner configures a probe with, and the
// defaults of the methods most probes do not need.
type probeBase struct {
	sim   *SimExpr // the served predicate; a NEAREST's has radius +Inf
	k     int      // NEAREST's k; 0 for WITHIN and joins
	alias string   // the alias whose snapshot the probe walks
	field FieldRef // a join's outer probe field; zero for a leaf
}

func (b *probeBase) spec() *probeBase            { return b }
func (*probeBase) ensure(*relation.Relation)     {}
func (*probeBase) bind(slotMap) error            { return nil }
func (*probeBase) aim(*Batch, int) (bool, error) { return true, nil }
func (*probeBase) setBound(float64)              {}
func (*probeBase) release()                      {}
func (*probeBase) fallible() bool                { return false }
func (b *probeBase) join() bool                  { return b.field.Name != "" }

func (*probeBase) rest() (outer, inner *relation.Tuple, d float64, ok bool) {
	return nil, nil, 0, false
}

// joinLabel is the operator line of a view probe in a join.
func (b *probeBase) joinLabel(view, note string) string {
	return fmt.Sprintf("IndexJoin(probe %s into %s(%s), on %s%s)", b.field, view, b.alias, b.sim, note)
}

// sim returns a NEAREST predicate as the similarity predicate its probe
// serves, with no bound.
func (ne *NearestExpr) sim() SimExpr {
	return SimExpr{Field: ne.Field, Target: ne.Target, RuleSet: ne.RuleSet, Radius: math.Inf(1)}
}

// probeFor resolves the probe serving b.sim as a NEAREST (b.k > 0) or
// as a join edge whose inner side is innerField, by what the column and
// the USING name offer — no cost enters the choice:
//
//   - over vec, every metric walks the vector view (validateVecSim pins
//     both sides of a vector edge to the vec column);
//   - a NEAREST over a string walks the length view under any edit-like
//     rule set (a weighted one verifies every row);
//   - a join edge under a unit-cost rule set walks the inner length view
//     onto seq and scans only the length band |len(x)-len(y)| <=
//     floor(r) onto any other attribute; every other edge scans every
//     inner row.
func (e *Engine) probeFor(b probeBase, innerField string) (probe, error) {
	sim := b.sim
	if isVecSim(sim) {
		m, ok := metric.Lookup(sim.RuleSet)
		if !ok {
			return nil, fmt.Errorf("query: unknown metric %q", sim.RuleSet)
		}
		return &vecViewProbe{probeBase: b, m: m}, nil
	}
	if b.k > 0 {
		if !sim.Target.IsLit {
			return nil, fmt.Errorf("query: NEAREST requires a literal target")
		}
		if _, err := e.ruleset(sim.RuleSet); err != nil {
			return nil, err
		}
		c := e.calc(sim.RuleSet)
		if c == nil {
			return nil, fmt.Errorf("query: NEAREST requires an edit-like rule set (%q is not)", sim.RuleSet)
		}
		return &lengthViewProbe{probeBase: b, calc: c}, nil
	}
	ent, err := e.rule(sim.RuleSet)
	switch {
	case err != nil:
		return nil, err
	case !ent.unit || ent.calc == nil:
		return &scanProbe{probeBase: b, calc: ent.calc}, nil
	case innerField == "seq":
		return &lengthViewProbe{probeBase: b, calc: ent.calc}, nil
	}
	return &scanProbe{probeBase: b, calc: ent.calc, banded: true}, nil
}

// rangeProbe picks the conjunct of a single-relation WHERE that a view
// serves and its probe (nil: none, the plan scans), with the predicate
// the filter above the leaf evaluates and whether the leaf supplies the
// row's distance (rangeConjunct). The first conjunct the length view
// serves wins — a literal, non-pattern target over seq under a unit-cost
// rule set, whose integer distances any radius r bounds as floor(r)
// does — and then the first vector conjunct against a vector literal
// under a registered metric, which the vector view serves.
func (e *Engine) rangeProbe(where Expr, alias string) (p probe, pred Expr, leafDist bool) {
	sim, pred, leafDist := rangeConjunct(where, func(s *SimExpr) bool {
		ent, _ := e.rule(s.RuleSet)
		return s.Field.Name == "seq" && s.Target.IsLit && !s.Pattern && ent != nil && ent.unit
	})
	if sim != nil {
		return &lengthViewProbe{probeBase: probeBase{sim: sim, alias: alias}, calc: e.calc(sim.RuleSet)}, pred, leafDist
	}
	sim, pred, leafDist = rangeConjunct(where, func(s *SimExpr) bool {
		return s.Field.Name == "vec" && s.Target.IsVec && !s.Pattern
	})
	if sim != nil {
		if m, ok := metric.Lookup(sim.RuleSet); ok {
			return &vecViewProbe{probeBase: probeBase{sim: sim, alias: alias}, m: m}, pred, leafDist
		}
	}
	return nil, nil, false
}

// ------------------------------------------------------------ vector view

// vecViewProbe walks the vector view of its metric. The walk measures
// d(probe, row), which every metric computes bit-identically in either
// operand order (the metric package's contract), so a join edge gets
// the predicate's distance whichever side probes.
type vecViewProbe struct {
	probeBase
	m    metric.Distance
	slot int // a join's outer slot holding the probe vector

	snap   *relation.Snapshot
	target metric.Vector
	bound  float64
}

func (p *vecViewProbe) clone() probe                  { c := *p; return &c }
func (p *vecViewProbe) ensure(rel *relation.Relation) { rel.VecView(p.m) }
func (p *vecViewProbe) setBound(bound float64)        { p.bound = bound }
func (p *vecViewProbe) kernel() string                { return "vec-" + p.sim.RuleSet }

func (p *vecViewProbe) bind(slots slotMap) (err error) {
	p.slot, err = slots.resolve(p.field)
	return err
}

func (p *vecViewProbe) open(_ *execCtx, snap *relation.Snapshot) (ExecStats, error) {
	p.snap, p.target, p.bound = snap, p.sim.Target.Vec, p.sim.Radius
	return ExecStats{}, nil
}

// aim reads the outer row's vector; rows without one never match.
func (p *vecViewProbe) aim(b *Batch, i int) (bool, error) {
	p.target = b.slot(p.slot).Vecs[i]
	return p.target != nil, nil
}

func (p *vecViewProbe) walk(ctx *execCtx, sink rowSink) (ExecStats, error) {
	ist, err := p.snap.VecWalk(ctx.ctx, p.m, p.target, &p.bound, func(rows []*relation.Row, ds []float64) {
		for i, row := range rows {
			sink.take(&row.Tuple, ds[i])
		}
	})
	st := fromIndexStats(ist)
	if p.k > 0 && err == nil {
		// Only vector-bearing rows are ever verified.
		observeVisited(mNearestVisitedVec, st.Verifications, p.snap.Stats().VecCount)
	}
	return st, err
}

func (p *vecViewProbe) explain(shard, order string) string {
	switch {
	case p.join():
		return p.joinLabel("vecview", "")
	case p.k > 0:
		return fmt.Sprintf("VecNearestK(%s via vecview%s, k=%d, metric=%s%s)", p.alias, shard, p.k, p.sim.RuleSet, order)
	}
	return fmt.Sprintf("VecRange(%s via vecview%s, radius=%g, metric=%s%s)", p.alias, shard, p.sim.Radius, p.sim.RuleSet, order)
}

func (p *vecViewProbe) estimate(outer float64, inner relation.Stats) (rows, cost float64) {
	if p.k > 0 {
		return estNearestRows(inner.VecCount, p.k), 0
	}
	// A view probe verifies about the rows it returns.
	rows = vecJoinOutRows(outer, inner, p.sim.Radius)
	return rows, rows * vecVerifyCost(inner)
}

// ------------------------------------------------------------- join scan

// innerRow is one inner tuple of a scan probe; val holds its join
// attribute, resolved once at open.
type innerRow struct {
	t   relation.Tuple
	val string
}

// scanProbe is a string join edge's inner-row scan: open reads the
// inner snapshot once (counted as candidate work, like a scan), keeping
// the rows in length order when the length band applies, and each probe
// verifies its candidates with the edge's kernel in the predicate's
// operand order (field -> target, whichever side probes):
//
//   - a unit-cost rule-set edge verifies only the length band
//     [L-floor(r), L+floor(r)] of a probe of length L, with Myers
//     (TargetDP for rows outside the rule alphabet);
//   - any other rule set verifies every inner row with its DP
//     calculator or, without one, its general engine, which may fail.
type scanProbe struct {
	probeBase
	calc   *editdp.Calculator // the rule set's calculator (nil: the general engine)
	banded bool               // a unit-cost rule set: the length band applies
	val    valFn              // the probe value over the outer slots

	outerIsTarget bool // the probe value is the predicate's target operand
	inner         []innerRow
	within        func(x, y string, radius float64) (float64, bool, error)
	qdp           editdp.QueryDP
	pv            string
}

func (p *scanProbe) clone() probe   { c := *p; return &c }
func (p *scanProbe) fallible() bool { return p.calc == nil }
func (p *scanProbe) kernel() string { return bandKernel(p.calc, "") }

func (p *scanProbe) bind(slots slotMap) error {
	p.val = compileField(p.field, slots)
	return nil
}

func (p *scanProbe) open(ctx *execCtx, snap *relation.Snapshot) (ExecStats, error) {
	p.outerIsTarget = p.field == p.sim.Target.Field
	innerField := p.sim.Field.Name
	if !p.outerIsTarget {
		innerField = p.sim.Target.Field.Name
	}
	p.calc = ctx.eng.calc(p.sim.RuleSet)
	if p.banded && p.calc == nil {
		// The band is only decided for rule sets with a DP calculator;
		// the rule set was re-registered between planning and opening.
		return ExecStats{}, fmt.Errorf("query: stale plan: rule set %q has no calculator", p.sim.RuleSet)
	}
	p.within = ctx.eng.compileWithin(p.sim.RuleSet)
	p.inner = make([]innerRow, 0, snap.Len())
	for _, t := range snap.Tuples() {
		p.inner = append(p.inner, innerRow{t: t, val: t.Attr(innerField)})
	}
	if p.banded {
		// Matches are id-sorted per probe, so rows of equal length may
		// land in any order.
		slices.SortFunc(p.inner, func(a, b innerRow) int { return cmp.Compare(len(a.val), len(b.val)) })
	}
	return ExecStats{Candidates: len(p.inner)}, nil
}

func (p *scanProbe) aim(b *Batch, i int) (ok bool, err error) {
	p.pv, err = p.val(b, i)
	return err == nil, err
}

// walk verifies the probe value against the inner rows: the length
// band of a unit-cost edge, every row otherwise.
func (p *scanProbe) walk(_ *execCtx, sink rowSink) (ExecStats, error) {
	var st ExecStats
	pv, radius := p.pv, p.sim.Radius
	rows := p.inner
	k := 0
	// The unit distance is symmetric, so the Myers kernel can anchor on
	// the probe regardless of which operand it is: integer distances are
	// equal in both directions and bit-identical either way.
	var qdp *editdp.QueryDP
	if p.banded {
		// Exact for integer distances: d <= radius iff d <= floor(radius).
		k = int(min(radius, math.MaxInt32))
		byLen := func(r innerRow, l int) int { return cmp.Compare(len(r.val), l) }
		lo, _ := slices.BinarySearchFunc(rows, len(pv)-k, byLen)
		hi, _ := slices.BinarySearchFunc(rows, len(pv)+k+1, byLen)
		rows = rows[lo:max(lo, hi)]
		if myersEligible(p.calc, pv, radius) {
			p.qdp.Reset(pv)
			qdp = &p.qdp
		}
	}
	// The probe's own DP tables, built lazily — most probes under a
	// unit-cost rule set never need them.
	var fall *editdp.TargetDP
	for i := range rows {
		row := &rows[i]
		st.Candidates++
		st.Verifications++
		var d float64
		var ok bool
		var err error
		switch {
		case qdp != nil && p.calc.Covers(row.val):
			di, okd := qdp.Within(row.val, k)
			d, ok = float64(di), okd
		case p.outerIsTarget && p.calc != nil:
			if fall == nil {
				fall = p.calc.NewTargetDP(pv)
			}
			d, ok = fall.Within(row.val, radius)
		case p.outerIsTarget:
			d, ok, err = p.within(row.val, pv, radius)
		default:
			d, ok, err = p.within(pv, row.val, radius)
		}
		if err != nil {
			return st, err
		}
		if ok {
			sink.take(&row.t, d)
		}
	}
	return st, nil
}

func (p *scanProbe) explain(string, string) string {
	band := ""
	if p.banded {
		band = "[length-banded]"
	}
	return fmt.Sprintf("NestedLoopJoin(%s%s, on %s)", p.alias, band, p.sim)
}

func (p *scanProbe) estimate(outer float64, inner relation.Stats) (rows, cost float64) {
	r := p.sim.Radius
	if p.banded {
		return joinOutRows(outer, inner, r), lengthBandJoinCost(outer, inner, math.Floor(r))
	}
	return joinOutRows(outer, inner, r), nestedLoopJoinCost(outer, inner, r)
}
