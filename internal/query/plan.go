package query

// The cost-based planner: translates a parsed Query into a tree of
// physical operators (batch_operators.go and its siblings) using the
// estimates in cost.go.
//
// Plan shape, bottom to top:
//
//	access path (Scan | IndexRange | NearestK | join chain)
//	-> Filter(residual)     when a residual predicate remains
//	-> OrderByDist          when the query has ORDER BY dist and the
//	                        access path does not sort for it itself
//	-> Project
//	-> Limit                when the query has LIMIT
//
// The access path reads its table's snapshot whole or, for scans and
// scan-rooted join chains over a large table, as id-range slices in
// parallel, merged by a GatherMerge (batch_shard.go).

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/editdp"
	"repro/internal/metric"
	"repro/internal/relation"
)

// Every execution plans its bound query afresh (planQuery), in two
// steps over one resolved table list:
//
//   - decide: validate the query and make every choice (access path and
//     the conjunct it serves, join order, parallelism). The result is a
//     planDecision — plain data, no operators. Each choice follows from
//     what the tables offer and O(1) statistics, so deciding costs a few
//     map lookups.
//   - build: construct the operator tree from the query, the decision
//     and the same tables.

// accessKind is the decided access-path family.
type accessKind int

const (
	accessScan accessKind = iota
	accessRange
	accessNearest
	accessJoin
)

// planDecision captures the planner's choices for one bound query. It
// holds no operators, only choices and the conjuncts they serve.
type planDecision struct {
	kind accessKind
	via  string          // vector paths only: vecview|scan
	m    metric.Distance // via vecview: the metric whose view the leaf walks
	// accessRange: the conjunct the leaf serves and whether the leaf
	// supplies the row's distance (rangeConjunct).
	sim      *SimExpr
	leafDist bool
	// pred is the predicate the filter above the access path evaluates
	// (accessRange, accessScan and accessJoin; nil or TRUE for none).
	pred  Expr
	start string       // accessJoin: starting alias
	steps []stepChoice // accessJoin: greedy join order
	// slices > 1 reads the snapshot of the table the plan fans out over
	// (the join's start) as that many parallel id ranges.
	slices int
	kernel string // distance kernel serving the primary edit conjunct
	// ("myers", "targetdp", "vec-<metric>", or "" when none)
}

// stepChoice is one edge of the decided join order: the similarity
// conjunct sim joins the new alias through probeField. algo is the join
// operator's probe ("index" or "scan", see chooseJoinAlgo); vec marks a
// vector-metric edge (USING names a metric, the index is a vector view);
// banded marks a scan whose unit-cost edge licenses the length band.
type stepChoice struct {
	alias      string
	sim        *SimExpr
	algo       string
	vec        bool
	banded     bool
	probeField FieldRef
}

// resolveFrom maps the FROM clause to catalog relations, rejecting
// unknown names and duplicate aliases.
func (e *Engine) resolveFrom(q *Query) ([]*relation.Relation, error) {
	if len(q.From) == 0 {
		return nil, fmt.Errorf("query: FROM clause required")
	}
	tabs := make([]*relation.Relation, 0, len(q.From))
	seen := map[string]bool{}
	for _, ref := range q.From {
		t, ok := e.catalog.Lookup(ref.Name)
		if !ok {
			return nil, fmt.Errorf("query: unknown relation %q", ref.Name)
		}
		if seen[ref.Alias] {
			return nil, fmt.Errorf("query: duplicate alias %q", ref.Alias)
		}
		seen[ref.Alias] = true
		tabs = append(tabs, t)
	}
	return tabs, nil
}

// planQuery resolves a fully bound query's tables once, then decides
// and builds over that one list, so the build reads exactly the tables
// the decision saw.
func (e *Engine) planQuery(q *Query) (*compiledPlan, error) {
	tabs, err := e.resolveFrom(q)
	if err != nil {
		return nil, err
	}
	d, err := e.decide(q, tabs)
	if err != nil {
		return nil, err
	}
	return e.buildPlan(q, d, tabs)
}

// decide validates the query and makes every planning choice over its
// resolved tables. The query must be fully bound (no parameters).
func (e *Engine) decide(q *Query, rels []*relation.Relation) (*planDecision, error) {
	// Validate rule sets and pattern syntax eagerly so bad queries fail
	// before execution.
	if err := e.validateExpr(q.Where); err != nil {
		return nil, err
	}
	if q.Order != OrderNone && !exprHasSim(q.Where) {
		return nil, fmt.Errorf("query: ORDER BY dist requires a similarity predicate")
	}

	var d *planDecision
	var err error
	if ne, ok := q.Where.(NearestExpr); ok {
		d, err = e.decideNearest(q, ne)
	} else if len(q.From) == 1 {
		d, err = e.decideSingle(q, rels[0])
	} else {
		d, err = e.decideJoin(q, rels)
	}
	if err != nil {
		return nil, err
	}
	d.kernel = e.kernelFor(q, d)
	return d, nil
}

// kernelFor records which distance kernel serves the plan's primary
// edit conjunct, for EXPLAIN. The band walks (WITHIN and NEAREST) run
// the bit-parallel kernel when it computes the rule set's distance to
// the target (TargetDP otherwise; rows outside the rule alphabet fall
// back to TargetDP either way, as in the filter); scan plans are
// classified by the compiled filter's own dispatch predicate. The
// record is advisory — the operators re-check eligibility when they
// open.
func (e *Engine) kernelFor(q *Query, d *planDecision) string {
	switch d.kind {
	case accessNearest:
		ne := q.Where.(NearestExpr)
		if isVecNearest(&ne) {
			return "vec-" + ne.RuleSet
		}
		return bandKernel(e.calc(ne.RuleSet), ne.Target.Lit)
	case accessRange:
		if d.via == "vecview" {
			return "vec-" + d.sim.RuleSet
		}
		return bandKernel(e.calc(d.sim.RuleSet), d.sim.Target.Lit)
	case accessJoin:
		// Classify by the primary join edge: vec edges run the metric's
		// kernels, unit edit edges the bit-parallel kernel (in the band
		// walk over seq, in the length-banded scan over other attributes),
		// weighted edges the budgeted DP.
		if sim := firstJoinSim(q.Where); sim != nil {
			if isVecSim(sim) {
				return "vec-" + sim.RuleSet
			}
			if c := e.calc(sim.RuleSet); c != nil && c.Unit() {
				return "myers"
			}
			return "targetdp"
		}
		return ""
	}
	return e.filterKernel(q.Where)
}

// bandKernel names the kernel a band walk runs for target: Myers where
// it computes the rule set's distance (the newBandWalk condition),
// TargetDP otherwise.
func bandKernel(c *editdp.Calculator, target string) string {
	if c != nil && c.Unit() && c.Covers(target) {
		return "myers"
	}
	return "targetdp"
}

// isVecNearest reports whether a NEAREST predicate targets the vector
// column (its USING clause then names a distance metric).
func isVecNearest(ne *NearestExpr) bool {
	return ne.Field.Name == "vec" || ne.Target.IsVec
}

// decideNearest validates a NEAREST query. String NEAREST has one
// access path — the band walk of the length-ordered view — so there is
// nothing to choose. Over the vector column the metric picks it: the
// vector view when the metric satisfies the triangle inequality (the
// view's pruning invariant), a bounded scan otherwise (cosine).
func (e *Engine) decideNearest(q *Query, ne NearestExpr) (*planDecision, error) {
	if len(q.From) != 1 {
		return nil, fmt.Errorf("query: NEAREST requires a single relation")
	}
	d := &planDecision{kind: accessNearest, slices: 1}
	if isVecNearest(&ne) {
		m, ok := metric.Lookup(ne.RuleSet)
		if !ok {
			return nil, fmt.Errorf("query: unknown metric %q", ne.RuleSet)
		}
		d.via = "scan"
		if metric.IsTriangular(m) {
			d.via, d.m = "vecview", m
		}
		return d, nil
	}
	if !ne.Target.IsLit {
		return nil, fmt.Errorf("query: NEAREST requires a literal target")
	}
	if _, err := e.ruleset(ne.RuleSet); err != nil {
		return nil, err
	}
	if e.calc(ne.RuleSet) == nil {
		return nil, fmt.Errorf("query: NEAREST requires an edit-like rule set (%q is not)", ne.RuleSet)
	}
	return d, nil
}

// gatherWorkers caps the fan-out at the engine's parallelism (at least
// one worker).
func (e *Engine) gatherWorkers(streams int) int {
	workers := e.parallelism
	if workers > streams {
		workers = streams
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// rangeIndexable licenses a conjunct for the band walk: a literal,
// non-pattern target over seq under a unit-cost rule set, whose
// distances are integers, so any radius r bounds them as floor(r) does.
func (e *Engine) rangeIndexable(sim *SimExpr) bool {
	if sim.Field.Name != "seq" || !sim.Target.IsLit || sim.Pattern {
		return false
	}
	ent, _ := e.rule(sim.RuleSet)
	return ent != nil && ent.unit
}

// decideSingle picks the access path for a single-relation query by
// what the relation offers, reading no cost: a literal SIMILAR TO
// conjunct over seq under a unit-cost rule set is an IndexRange, the
// band walk of the length-ordered view; a vector conjunct under a
// triangular metric is a VecRange, the walk of the vector view;
// everything else is a (possibly parallel) scan with the full predicate
// as a filter.
func (e *Engine) decideSingle(q *Query, tab *relation.Relation) (*planDecision, error) {
	d := &planDecision{kind: accessScan, slices: 1}
	if sim, pred, leafDist := rangeConjunct(q.Where, e.rangeIndexable); sim != nil {
		d.kind, d.sim, d.pred, d.leafDist = accessRange, sim, pred, leafDist
		return d, nil
	}
	if sim, pred, leafDist := rangeConjunct(q.Where, isVecRangeSim); sim != nil {
		if m, ok := metric.Lookup(sim.RuleSet); ok && metric.IsTriangular(m) {
			d.kind, d.via, d.m, d.sim, d.pred, d.leafDist = accessRange, "vecview", m, sim, pred, leafDist
			return d, nil
		}
	}
	d.pred = simplifyExpr(q.Where)
	// A bare scan has no per-tuple verification work to parallelise.
	d.slices = e.decideParallel(q, tab.Stats().Count, !isTrivial(d.pred))
	return d, nil
}

// decideJoin greedily orders a left-deep join chain over N relations by
// estimated cost; similarity edges come from top-level similarity
// conjuncts between two aliases (SIMILAR TO or ON dist(...) <= k). Each
// edge's probe follows from what its inner side offers (chooseJoinAlgo);
// its cost only orders the chain.
func (e *Engine) decideJoin(q *Query, rels []*relation.Relation) (*planDecision, error) {
	relOf := map[string]*relation.Relation{}
	pos := map[string]int{}
	for i, ref := range q.From {
		relOf[ref.Alias] = rels[i]
		pos[ref.Alias] = i
	}
	edges, residual := extractJoinSims(q.Where, relOf)
	if len(edges) == 0 {
		return nil, fmt.Errorf("query: joins require a similarity predicate between the relations")
	}

	// Start from the smallest relation (ties: FROM order).
	start := q.From[0].Alias
	for _, ref := range q.From[1:] {
		if relOf[ref.Alias].Len() < relOf[start].Len() {
			start = ref.Alias
		}
	}

	bound := map[string]bool{start: true}
	curRows := float64(relOf[start].Stats().Count)
	used := make([]bool, len(edges))
	var steps []stepChoice
	for len(bound) < len(q.From) {
		bestIdx, bestCost := -1, 0.0
		var best stepChoice
		for i, edge := range edges {
			if used[i] {
				continue
			}
			fa, ta := edge.Field.Table, edge.Target.Field.Table
			var newAlias string
			var probe FieldRef
			var innerField string
			switch {
			case bound[fa] && !bound[ta]:
				newAlias, probe, innerField = ta, edge.Field, edge.Target.Field.Name
			case bound[ta] && !bound[fa]:
				newAlias, probe, innerField = fa, edge.Target.Field, edge.Field.Name
			default:
				continue // cycle edge or not yet reachable
			}
			step, cost, err := e.chooseJoinAlgo(edge, innerField, curRows, relOf[newAlias].Stats())
			if err != nil {
				return nil, err
			}
			better := bestIdx < 0 || cost < bestCost ||
				cost == bestCost && pos[newAlias] < pos[best.alias]
			if better {
				bestIdx, bestCost = i, cost
				step.alias, step.sim, step.probeField = newAlias, edge, probe
				best = step
			}
		}
		if bestIdx < 0 {
			return nil, fmt.Errorf("query: relations are not connected by similarity predicates")
		}
		used[bestIdx] = true
		bound[best.alias] = true
		curRows = joinOutRowsFor(best.sim, curRows, relOf[best.alias].Stats())
		steps = append(steps, best)
	}
	// Edges no step uses (cycles) must still hold on each output row.
	for i, edge := range edges {
		if !used[i] {
			residual = AndExpr{L: residual, R: *edge}
		}
	}

	return &planDecision{kind: accessJoin, start: start, steps: steps, pred: simplifyExpr(residual),
		slices: e.decideParallel(q, relOf[start].Stats().Count, true)}, nil
}

// chooseJoinAlgo picks the probe for one similarity edge by what the
// inner side offers, and returns the cost that orders the join chain.
// No cost enters the choice:
//
//   - a unit-cost edit edge onto the inner seq field probes the band
//     walk of its length view ("index");
//   - a unit-cost edit edge onto any other attribute scans the inner
//     rows, verifying only the length band |len(x)-len(y)| <= floor(r)
//     ("scan", banded) — every edit costs at least one;
//   - a vector edge under a triangular metric probes the inner vector
//     view ("index"; validateVecSim pins both sides to the vec column);
//   - every other edge — weighted or not edit-like rule sets, cosine —
//     scans and verifies every inner row ("scan").
func (e *Engine) chooseJoinAlgo(edge *SimExpr, innerField string, outerRows float64, inner relation.Stats) (stepChoice, float64, error) {
	if isVecSim(edge) {
		m, ok := metric.Lookup(edge.RuleSet)
		if !ok {
			return stepChoice{}, 0, fmt.Errorf("query: unknown metric %q", edge.RuleSet)
		}
		if metric.IsTriangular(m) {
			// A view probe verifies about the rows it returns.
			return stepChoice{algo: "index", vec: true}, vecJoinOutRows(outerRows, inner, edge.Radius) * vecVerifyCost(inner), nil
		}
		return stepChoice{algo: "scan", vec: true}, vecNestedLoopJoinCost(outerRows, inner), nil
	}
	ent, err := e.rule(edge.RuleSet)
	if err != nil {
		return stepChoice{}, 0, err
	}
	if !ent.unit || ent.calc == nil {
		return stepChoice{algo: "scan"}, nestedLoopJoinCost(outerRows, inner, edge.Radius), nil
	}
	cost := lengthBandJoinCost(outerRows, inner, math.Floor(edge.Radius))
	if innerField == "seq" {
		return stepChoice{algo: "index"}, cost, nil
	}
	return stepChoice{algo: "scan", banded: true}, cost, nil
}

// joinOutRowsFor dispatches the join cardinality estimate on the edge's
// domain (string selectivity vs the vector visited-fraction proxy).
func joinOutRowsFor(edge *SimExpr, outerRows float64, inner relation.Stats) float64 {
	if isVecSim(edge) {
		return vecJoinOutRows(outerRows, inner, edge.Radius)
	}
	return joinOutRows(outerRows, inner, edge.Radius)
}

// decideParallel returns how many id-range slices a scan-rooted
// pipeline runs as, one per worker, or 1 for none:
// the outer relation must be large enough and there must be per-tuple
// work to spread. A LIMIT without ORDER BY stays serial: the serial
// pipeline can stop at the limit, while the gather must drain every
// slice before merging.
func (e *Engine) decideParallel(q *Query, outerRows int, hasWork bool) int {
	limitStopsEarly := q.Limit > 0 && q.Order == OrderNone
	if e.parallelism > 1 && outerRows >= e.parallelMinRows && hasWork && !limitStopsEarly {
		return e.parallelism
	}
	return 1
}

// buildPlan constructs the operator tree for a query under the
// decision decide made over the same tables. It performs no validation
// and no costing.
//
// Every execution reads through MVCC snapshots taken here, one per
// distinct relation (self-joins share a snapshot), so the query sees a
// consistent version of each relation while concurrent commits land.
// Consistency is per relation: snapshots of different relations are
// taken at slightly different instants, so a query joining two
// relations can observe a multi-relation Store.Commit half-applied
// (epochs are per relation; see DESIGN.md). When the decision uses an
// index the shared online-maintained structure is ensured *before*
// snapshotting, so the snapshot's head carries it and no per-query
// build happens.
func (e *Engine) buildPlan(q *Query, d *planDecision, tabs []*relation.Relation) (*compiledPlan, error) {
	if d.kind == accessJoin {
		return e.buildJoin(q, d, tabs)
	}
	tab := tabs[0]
	snap := snapshotOf(tab, d.via == "" && d.kind != accessScan, d.m)
	st := shardStats(tab.Stats(), d.slices)
	ctx := &execCtx{eng: e, traced: q.Analyze || e.tracing.Load()}
	alias := q.From[0].Alias
	slots := slotMap{alias}
	size := e.batchLeafSize(q)
	tag := kernelTag{d.kernel}
	// filter stacks the residual predicate, if any, on a leaf.
	filter := func(op BatchOperator, pred Expr) BatchOperator {
		if isTrivial(pred) {
			return op
		}
		return trB(ctx, &batchFilterOp{kernelTag: kernelTag{e.filterKernel(pred)}, ctx: ctx, child: op, pred: pred, slots: slots},
			estFilterRows(st, pred, estOfBatch(op)))
	}

	// A leaf that holds every match and supplies the row's distance sorts
	// for the ORDER BY itself; no OrderByDist is built above it (a
	// residual Filter keeps its order and never overwrites a distance).
	// Only scans, which never sort, run sliced under a gather.
	order := q.Order
	ordered := false
	var leaf func(stream) BatchOperator
	switch d.kind {
	case accessNearest:
		ne := q.Where.(NearestExpr)
		ordered = true
		if isVecNearest(&ne) {
			leaf = func(s stream) BatchOperator {
				return trB(ctx, &batchVecNearestKOp{
					kernelTag: tag, ctx: ctx, matchList: matchList{stream: s, alias: alias, size: size, order: order},
					via: d.via, target: ne.Target.Vec, k: ne.K, metricName: ne.RuleSet,
				}, estNearestRows(st.VecCount, ne.K))
			}
			break
		}
		leaf = func(s stream) BatchOperator {
			return trB(ctx, &batchNearestKOp{
				kernelTag: tag, ctx: ctx, matchList: matchList{stream: s, alias: alias, size: size, order: order},
				target: ne.Target.Lit, k: ne.K, ruleSet: ne.RuleSet,
			}, estNearestRows(st.Count, ne.K))
		}
	case accessRange:
		sim, pred := d.sim, d.pred
		if !d.leafDist {
			order = OrderNone
		}
		ordered = d.leafDist
		leaf = func(s stream) BatchOperator {
			ml := matchList{stream: s, alias: alias, size: size, order: order, noDist: !d.leafDist}
			if d.via == "vecview" {
				return filter(trB(ctx, &batchVecRangeOp{
					kernelTag: tag, ctx: ctx, matchList: ml,
					target: sim.Target.Vec, radius: sim.Radius, metricName: sim.RuleSet,
				}, estVecRangeRows(st, sim.Radius)), pred)
			}
			return filter(trB(ctx, &batchIndexRangeOp{
				kernelTag: tag, ctx: ctx, matchList: ml,
				target: sim.Target.Lit, radius: sim.Radius, ruleSet: sim.RuleSet,
			}, estRangeRows(st, sim.Radius)), pred)
		}
	case accessScan:
		leaf = func(s stream) BatchOperator {
			return filter(trB(ctx, &batchScanOp{stream: s, ctx: ctx, alias: alias, size: size}, float64(st.Count)), d.pred)
		}
	default:
		return nil, fmt.Errorf("query: unknown access kind %d", d.kind)
	}
	return &compiledPlan{
		root: e.wrapBatchTop(q, e.fanOut(ctx, q, d, snap, leaf), slots, size, ctx, ordered),
		ctx:  ctx, columns: projectColumns(q), kernel: d.kernel,
	}, nil
}

// batchLeafSize resolves the block size for a plan's leaf operators:
// the engine's block size, capped by a LIMIT-without-ORDER so the
// pull-based limit pushdown keeps working at block granularity — a
// LIMIT 3 plan must not drag a 256-row block through the pipeline per
// pull. The cap bounds a plan's overshoot to at most one block beyond
// the limit.
func (e *Engine) batchLeafSize(q *Query) int {
	size := e.batchSize
	if q.Limit > 0 && q.Order == OrderNone && q.Limit < size {
		size = q.Limit
	}
	return size
}

// wrapBatchTop applies the shared decorator stack — OrderByDist (unless
// the access path already emits the ORDER BY order), Project, Limit —
// above an access path.
func (e *Engine) wrapBatchTop(q *Query, access BatchOperator, slots slotMap, size int, ctx *execCtx, ordered bool) BatchOperator {
	top := access
	if q.Order != OrderNone && !ordered {
		top = trB(ctx, &batchOrderByDistOp{child: top, desc: q.Order == OrderDesc, size: size}, estOfBatch(top))
	}
	top = trB(ctx, &batchProjectOp{q: q, child: top, slots: slots}, estOfBatch(top))
	if q.Limit > 0 {
		top = trB(ctx, &batchLimitOp{child: top, n: q.Limit}, estLimitRows(q.Limit, estOfBatch(top)))
	}
	return top
}

// validateExpr checks rule-set names and pattern syntax eagerly so bad
// queries fail before execution.
func (e *Engine) validateExpr(ex Expr) error {
	switch ex := ex.(type) {
	case nil:
		return nil
	case AndExpr:
		if err := e.validateExpr(ex.L); err != nil {
			return err
		}
		return e.validateExpr(ex.R)
	case OrExpr:
		if err := e.validateExpr(ex.L); err != nil {
			return err
		}
		return e.validateExpr(ex.R)
	case NotExpr:
		return e.validateExpr(ex.E)
	case SimExpr:
		if isVecSim(&ex) {
			return validateVecSim(&ex)
		}
		if _, err := e.ruleset(ex.RuleSet); err != nil {
			return err
		}
		if ex.Pattern {
			if _, err := e.compilePattern(ex.Target.Lit); err != nil {
				return err
			}
		}
		return nil
	case NearestExpr:
		if isVecNearest(&ex) {
			return validateVecNearest(&ex)
		}
		_, err := e.ruleset(ex.RuleSet)
		return err
	default:
		return nil
	}
}

// validateVecSim checks the shape of a vector similarity conjunct: the
// field must be the vec column, the target a vector literal or — for a
// distance join — another alias's vec column, PATTERN does not apply,
// and USING must name a registered metric.
func validateVecSim(ex *SimExpr) error {
	if ex.Pattern {
		return fmt.Errorf("query: PATTERN does not apply to the vec column")
	}
	if ex.Field.Name != "vec" {
		return fmt.Errorf("query: a vector literal target requires the vec column, not %q", ex.Field.Name)
	}
	// An unbound parameter target is validated again after binding, when
	// the string argument has been parsed into a vector literal.
	if !ex.Target.IsVec && ex.Target.Param == nil {
		if !ex.Target.IsLit && ex.Target.Field.Name == "vec" &&
			ex.Target.Field.Table != "" && ex.Target.Field.Table != ex.Field.Table {
			// A vec-vec join edge: dist(a.vec, b.vec) <= r USING metric.
			return validateMetricName(ex.RuleSet)
		}
		return fmt.Errorf("query: vec similarity requires a vector literal or a vec field target")
	}
	return validateMetricName(ex.RuleSet)
}

// validateVecNearest is validateVecSim for the NEAREST form.
func validateVecNearest(ex *NearestExpr) error {
	if ex.Field.Name != "vec" {
		return fmt.Errorf("query: a vector literal target requires the vec column, not %q", ex.Field.Name)
	}
	if !ex.Target.IsVec && ex.Target.Param == nil {
		return fmt.Errorf("query: vec NEAREST requires a vector literal target")
	}
	return validateMetricName(ex.RuleSet)
}

// validateMetricName resolves a USING name against the metric registry.
func validateMetricName(name string) error {
	if _, ok := metric.Lookup(name); !ok {
		return fmt.Errorf("query: unknown metric %q (registered: %s)", name, strings.Join(metric.Names(), ", "))
	}
	return nil
}

// exprHasSim reports whether the predicate tree contains a similarity
// predicate (and therefore produces a distance to order by).
func exprHasSim(ex Expr) bool {
	switch ex := ex.(type) {
	case SimExpr, NearestExpr:
		return true
	case AndExpr:
		return exprHasSim(ex.L) || exprHasSim(ex.R)
	case OrExpr:
		return exprHasSim(ex.L) || exprHasSim(ex.R)
	case NotExpr:
		return exprHasSim(ex.E)
	}
	return false
}

// isTrivial reports whether a residual predicate can be dropped.
func isTrivial(ex Expr) bool {
	if ex == nil {
		return true
	}
	_, ok := ex.(litTrue)
	return ok
}

// simplifyExpr removes the planner's TRUE placeholders from AND chains
// so EXPLAIN output stays readable.
func simplifyExpr(ex Expr) Expr {
	switch ex := ex.(type) {
	case AndExpr:
		l, r := simplifyExpr(ex.L), simplifyExpr(ex.R)
		if isTrivial(l) {
			return r
		}
		if isTrivial(r) {
			return l
		}
		return AndExpr{L: l, R: r}
	case OrExpr:
		return OrExpr{L: simplifyExpr(ex.L), R: simplifyExpr(ex.R)}
	case NotExpr:
		return NotExpr{E: simplifyExpr(ex.E)}
	}
	return ex
}

// extractSim walks the top-level AND chain, in evaluation order, for the
// first SimExpr ok accepts; it returns that conjunct, the residual with
// the conjunct replaced by TRUE, and whether a conjunct evaluated before
// it touches the row's distance (distDependent). Conjuncts ok rejects
// are skipped, not terminal, so a qualifying one is found wherever it
// sits in the chain.
func extractSim(ex Expr, ok func(*SimExpr) bool) (sim *SimExpr, residual Expr, preceded bool) {
	switch ex := ex.(type) {
	case SimExpr:
		if ok(&ex) {
			return &ex, litTrue{}, false
		}
	case AndExpr:
		if s, rl, p := extractSim(ex.L, ok); s != nil {
			return s, AndExpr{L: rl, R: ex.R}, p
		}
		if s, rr, p := extractSim(ex.R, ok); s != nil {
			return s, AndExpr{L: ex.L, R: rr}, p || distDependent(ex.L)
		}
	}
	return nil, ex, false
}

// distDependent reports whether a predicate evaluated before the served
// conjunct touches the row's distance: it holds a similarity predicate,
// whose distance would come first, or it reads dist, which nothing has
// set yet in evaluation order.
func distDependent(ex Expr) bool {
	switch ex := ex.(type) {
	case SimExpr, NearestExpr:
		return true
	case CmpExpr:
		return ex.L.Field.Name == "dist" || ex.R.Field.Name == "dist"
	case AndExpr:
		return distDependent(ex.L) || distDependent(ex.R)
	case OrExpr:
		return distDependent(ex.L) || distDependent(ex.R)
	case NotExpr:
		return distDependent(ex.E)
	}
	return false
}

// rangeConjunct picks the conjunct a range access path serves (nil
// when ok accepts none) and the predicate the filter above it must
// evaluate. A row's distance is that of the first similarity predicate
// that matches it in evaluation order (batch_pred.go). When no conjunct
// before the extracted one mentions a similarity or reads dist, that is
// the access path's distance: the leaf supplies it (leafDist) and the
// filter evaluates the residual. Otherwise the leaf emits its rows
// without a distance and the filter evaluates the whole WHERE, which
// assigns — or fails to read — the distance exactly as a scan would.
func rangeConjunct(where Expr, ok func(*SimExpr) bool) (sim *SimExpr, pred Expr, leafDist bool) {
	sim, residual, preceded := extractSim(where, ok)
	switch {
	case sim == nil:
		return nil, nil, false
	case preceded:
		return sim, simplifyExpr(where), false
	}
	return sim, simplifyExpr(residual), true
}

// isVecRangeSim licenses a conjunct for the vector range path: vec
// against a vector literal.
func isVecRangeSim(sim *SimExpr) bool {
	return sim.Field.Name == "vec" && sim.Target.IsVec && !sim.Pattern
}

// firstJoinSim returns the query's primary join conjunct — the first
// cross-alias SimExpr in conjunct order — for advisory classification
// (kernelFor). extractJoinSims is the authoritative edge extractor; it
// additionally checks both aliases resolve to known relations.
func firstJoinSim(ex Expr) *SimExpr {
	switch ex := ex.(type) {
	case SimExpr:
		if !ex.Target.IsLit && !ex.Target.IsVec && !ex.Pattern &&
			ex.Field.Table != "" && ex.Target.Field.Table != "" &&
			ex.Field.Table != ex.Target.Field.Table {
			return &ex
		}
	case AndExpr:
		if s := firstJoinSim(ex.L); s != nil {
			return s
		}
		return firstJoinSim(ex.R)
	}
	return nil
}

// extractJoinSims collects every top-level SimExpr conjunct whose field
// and target reference two different known aliases; the residual is the
// predicate with those conjuncts replaced by TRUE.
func extractJoinSims(ex Expr, known map[string]*relation.Relation) ([]*SimExpr, Expr) {
	switch ex := ex.(type) {
	case SimExpr:
		if !ex.Target.IsLit && !ex.Pattern {
			ft, tt := ex.Field.Table, ex.Target.Field.Table
			if ft != tt && known[ft] != nil && known[tt] != nil {
				return []*SimExpr{&ex}, litTrue{}
			}
		}
	case AndExpr:
		ls, rl := extractJoinSims(ex.L, known)
		rs, rr := extractJoinSims(ex.R, known)
		if len(ls)+len(rs) > 0 {
			return append(ls, rs...), AndExpr{L: rl, R: rr}
		}
	}
	return nil, ex
}
