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
// The access path runs once per stream of its table (batch_shard.go):
// over each shard of a sharded table, or, for scans and scan-rooted join
// chains over a large plain table, over id-range slices of its snapshot
// in parallel; a GatherMerge merges the streams.

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/editdp"
	"repro/internal/metric"
	"repro/internal/relation"
)

// Planning is split into two phases so a prepared statement can skip
// the expensive half:
//
//   - decide: validate the query and make every cost-based choice
//     (access path, index structure, join order, parallelism). The
//     result is a planDecision — plain bind-independent data.
//   - build: construct the operator tree from a query plus a decision.
//     Conjunct extraction is deterministic, so a decision recorded once
//     rebuilds the same tree shape for any binding that shares the
//     decision's cost inputs (radii, statistics version, parallelism).
//
// PreparedQuery.run memoises decide per decision key and calls build on
// every execution.

// accessKind is the decided access-path family.
type accessKind int

const (
	accessScan accessKind = iota
	accessRange
	accessNearest
	accessJoin
)

// planDecision captures the planner's choices for one query. It holds
// no operators and no bound values, only choices, so it is immutable
// and safely shared across concurrent executions.
type planDecision struct {
	kind  accessKind
	via   string       // vector paths only: vptree|scan
	start string       // accessJoin: starting alias
	steps []stepChoice // accessJoin: greedy join order
	// The layout of the table the plan fans out over (the join's start):
	// shards is its shard count, 0 for a plain relation, and the build
	// re-plans when the table's layout no longer matches; slices > 1
	// reads a plain table's snapshot as that many parallel id ranges.
	shards, slices int
	kernel         string // distance kernel serving the primary edit conjunct
	// ("myers", "targetdp", "vec-<metric>", or "" when none)
}

// stepChoice is one edge of the decided join order. The edge is named
// by its position in extractJoinSims' deterministic output so build can
// recover the SimExpr from the (re-extracted) predicate. algo is the
// join operator's probe ("index" or "scan", see chooseJoinAlgo); vec
// marks a vector-metric edge (USING names a metric, the index is a
// VP-tree); banded marks a scan whose unit-cost edge licenses the
// length band.
type stepChoice struct {
	alias      string
	edge       int
	algo       string
	vec        bool
	banded     bool
	probeField FieldRef
}

// resolveFrom maps the FROM clause to catalog tables (plain or
// sharded), rejecting unknown names and duplicate aliases.
func (e *Engine) resolveFrom(q *Query) ([]relation.Table, error) {
	if len(q.From) == 0 {
		return nil, fmt.Errorf("query: FROM clause required")
	}
	tabs := make([]relation.Table, 0, len(q.From))
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

// decide validates the query and makes every cost-based planning
// choice. The query must be fully bound (no parameters).
func (e *Engine) decide(q *Query) (*planDecision, error) {
	rels, err := e.resolveFrom(q)
	if err != nil {
		return nil, err
	}

	// Validate rule sets and pattern syntax eagerly so bad queries fail
	// before execution.
	if err := e.validateExpr(q.Where); err != nil {
		return nil, err
	}
	if q.Order != OrderNone && !exprHasSim(q.Where) {
		return nil, fmt.Errorf("query: ORDER BY dist requires a similarity predicate")
	}

	var d *planDecision
	if ne, ok := q.Where.(NearestExpr); ok {
		d, err = e.decideNearest(q, ne, rels[0])
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
		if d.via == "vptree" {
			if sim, _, _ := extractSim(q.Where, isVecRangeSim); sim != nil {
				return "vec-" + sim.RuleSet
			}
			return ""
		}
		if sim, _, _ := extractSim(q.Where, e.rangeIndexable); sim != nil {
			return bandKernel(e.calc(sim.RuleSet), sim.Target.Lit)
		}
		return ""
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
// nothing to choose. Over the vector column the metric picks it: a
// VP-tree when the metric satisfies the triangle inequality (the tree's
// pruning invariant), a bounded scan otherwise (cosine). Over a sharded
// relation every shard runs the path and a rank-aware gather merges the
// shard top-k lists.
func (e *Engine) decideNearest(q *Query, ne NearestExpr, tab relation.Table) (*planDecision, error) {
	if len(q.From) != 1 {
		return nil, fmt.Errorf("query: NEAREST requires a single relation")
	}
	d := &planDecision{kind: accessNearest, shards: shardsOf(tab), slices: 1}
	if isVecNearest(&ne) {
		m, ok := metric.Lookup(ne.RuleSet)
		if !ok {
			return nil, fmt.Errorf("query: unknown metric %q", ne.RuleSet)
		}
		d.via = "scan"
		if metric.IsTriangular(m) {
			d.via = "vptree"
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

// decideSingle picks the access path for a single-relation query: a
// literal SIMILAR TO conjunct over seq under a unit-cost rule set is
// always an IndexRange, the band walk of the length-ordered view; a
// vector conjunct under a triangular metric probes the VP-tree where
// the cost model prefers it; everything else is a (possibly parallel)
// scan with the full predicate as a filter. Over a sharded relation the
// decision becomes a scatter-gather plan: every shard runs the chosen
// access path on its own snapshot and an id-ordered gather restores the
// serial scan order. (The VP-tree/scan choice is the same per shard as
// over the whole: both costs are linear in the vector count.)
func (e *Engine) decideSingle(q *Query, tab relation.Table) (*planDecision, error) {
	st := tab.Stats()
	d := &planDecision{kind: accessScan, shards: shardsOf(tab), slices: 1}
	if sim, _, _ := extractSim(q.Where, e.rangeIndexable); sim != nil {
		d.kind = accessRange
		return d, nil
	}
	if sim, _, _ := extractSim(q.Where, isVecRangeSim); sim != nil {
		m, ok := metric.Lookup(sim.RuleSet)
		if ok && metric.IsTriangular(m) && chooseVecAccess(st, sim.Radius) == "vptree" {
			d.kind, d.via = accessRange, "vptree"
			return d, nil
		}
	}
	if d.shards == 0 {
		// A bare scan has no per-tuple verification work to parallelise.
		d.slices = e.decideParallel(q, st.Count, !isTrivial(simplifyExpr(q.Where)))
	}
	return d, nil
}

// decideJoin greedily orders a left-deep join chain over N relations by
// estimated cost; similarity edges come from top-level similarity
// conjuncts between two aliases (SIMILAR TO or ON dist(...) <= k). Each
// edge's probe follows from what its inner side offers (chooseJoinAlgo);
// its cost only orders the chain. A join
// starting from a sharded relation becomes a scatter-gather plan: one
// chain per outer shard, every inner side read whole, merged by outer id
// under GatherMerge (see buildJoin).
func (e *Engine) decideJoin(q *Query, rels []relation.Table) (*planDecision, error) {
	relOf := map[string]relation.Table{}
	pos := map[string]int{}
	for i, ref := range q.From {
		relOf[ref.Alias] = rels[i]
		pos[ref.Alias] = i
	}
	edges, _ := extractJoinSims(q.Where, relOf)
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
				step.alias, step.edge, step.probeField = newAlias, i, probe
				best = step
			}
		}
		if bestIdx < 0 {
			return nil, fmt.Errorf("query: relations are not connected by similarity predicates")
		}
		used[bestIdx] = true
		bound[best.alias] = true
		curRows = joinOutRowsFor(edges[best.edge], curRows, relOf[best.alias].Stats())
		steps = append(steps, best)
	}

	d := &planDecision{kind: accessJoin, start: start, steps: steps, shards: shardsOf(relOf[start]), slices: 1}
	if d.shards == 0 {
		d.slices = e.decideParallel(q, relOf[start].Stats().Count, true)
	}
	return d, nil
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
//   - a vector edge under a triangular metric probes the inner VP-tree
//     ("index"; validateVecSim pins both sides to the vec column);
//   - every other edge — weighted or not edit-like rule sets, cosine —
//     scans and verifies every inner row ("scan").
func (e *Engine) chooseJoinAlgo(edge *SimExpr, innerField string, outerRows float64, inner relation.Stats) (stepChoice, float64, error) {
	if isVecSim(edge) {
		m, ok := metric.Lookup(edge.RuleSet)
		if !ok {
			return stepChoice{}, 0, fmt.Errorf("query: unknown metric %q", edge.RuleSet)
		}
		if metric.IsTriangular(m) {
			return stepChoice{algo: "index", vec: true}, vecIndexJoinCost(outerRows, inner, edge.Radius), nil
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
// pipeline over a plain table runs as, one per worker, or 1 for none:
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

// buildPlan constructs the operator tree for a query under a decision.
// It performs no validation and no costing: the decision is trusted, so
// a cached decision turns text into an executable plan with nothing but
// map lookups and tree construction.
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
func (e *Engine) buildPlan(q *Query, d *planDecision) (*compiledPlan, error) {
	tabs, err := e.resolveFrom(q)
	if err != nil {
		return nil, err
	}
	if d.kind == accessJoin {
		return e.buildJoin(q, d, tabs)
	}
	tab := tabs[0]
	var m metric.Distance
	if d.via == "vptree" {
		m = accessMetric(q)
	}
	// A plain table's one snapshot needs no slice of its own.
	var one [1]*relation.Snapshot
	snaps := snapshotsOf(one[:0], tab, d.via == "" && d.kind != accessScan, m)
	n, gathered := d.streams()
	total := tab.Stats()
	st := shardStats(total, n)
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
	// Under a gather the leaves emit the order the merge reads.
	order := q.Order
	if gathered {
		order = OrderNone
	}
	ordered, k, est := false, 0, -1.0
	var leaf func(stream) BatchOperator
	switch d.kind {
	case accessNearest:
		ne := q.Where.(NearestExpr)
		ordered, k = !gathered, ne.K
		if isVecNearest(&ne) {
			est = estNearestRows(total.VecCount, ne.K)
			leaf = func(s stream) BatchOperator {
				return trB(ctx, &batchVecNearestKOp{
					kernelTag: tag, ctx: ctx, matchList: matchList{stream: s, alias: alias, size: size, order: order},
					via: d.via, target: ne.Target.Vec, k: ne.K, metricName: ne.RuleSet,
				}, estNearestRows(st.VecCount, ne.K))
			}
			break
		}
		est = estNearestRows(total.Count, ne.K)
		leaf = func(s stream) BatchOperator {
			return trB(ctx, &batchNearestKOp{
				kernelTag: tag, ctx: ctx, matchList: matchList{stream: s, alias: alias, size: size, order: order},
				target: ne.Target.Lit, k: ne.K, ruleSet: ne.RuleSet,
			}, estNearestRows(st.Count, ne.K))
		}
	case accessRange:
		// Extraction is deterministic, so the same conjunct the decision
		// was made for is found again.
		ok := e.rangeIndexable
		if d.via == "vptree" {
			ok = isVecRangeSim
		}
		sim, pred, leafDist := rangeConjunct(q.Where, ok)
		if sim == nil {
			return nil, fmt.Errorf("query: stale plan: no range conjunct")
		}
		if !leafDist {
			order = OrderNone
		}
		ordered = leafDist && !gathered
		leaf = func(s stream) BatchOperator {
			ml := matchList{stream: s, alias: alias, size: size, order: order, noDist: !leafDist}
			if d.via == "vptree" {
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
		pred := simplifyExpr(q.Where)
		leaf = func(s stream) BatchOperator {
			return filter(trB(ctx, &batchScanOp{stream: s, ctx: ctx, alias: alias, size: size}, float64(st.Count)), pred)
		}
	default:
		return nil, fmt.Errorf("query: unknown access kind %d", d.kind)
	}
	access, err := e.fanOut(ctx, q, d, tab, snaps, k, est, leaf)
	if err != nil {
		return nil, err
	}
	return &compiledPlan{
		root: e.wrapBatchTop(q, access, slots, size, ctx, ordered),
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

// rangeConjunct picks the conjunct a range access path serves and the
// predicate the filter above it must evaluate. A row's distance is that
// of the first similarity predicate that matches it in evaluation order
// (batch_pred.go). When no conjunct before the extracted one mentions a
// similarity or reads dist, that is the access path's distance: the leaf
// supplies it (leafDist) and the filter evaluates the residual.
// Otherwise the leaf emits its rows without a distance and the filter
// evaluates the whole WHERE, which assigns — or fails to read — the
// distance exactly as a scan would.
func rangeConjunct(where Expr, ok func(*SimExpr) bool) (sim *SimExpr, pred Expr, leafDist bool) {
	sim, residual, preceded := extractSim(where, ok)
	if preceded {
		return sim, simplifyExpr(where), false
	}
	return sim, simplifyExpr(residual), true
}

// isVecRangeSim licenses a conjunct for the vector range path: vec
// against a vector literal.
func isVecRangeSim(sim *SimExpr) bool {
	return sim.Field.Name == "vec" && sim.Target.IsVec && !sim.Pattern
}

// accessMetric resolves the metric of a VP-tree plan's conjunct — the
// NEAREST predicate or the vector range conjunct — nil when there is
// none.
func accessMetric(q *Query) metric.Distance {
	name := ""
	if ne, ok := q.Where.(NearestExpr); ok {
		name = ne.RuleSet
	} else if sim, _, _ := extractSim(q.Where, isVecRangeSim); sim != nil {
		name = sim.RuleSet
	}
	m, _ := metric.Lookup(name)
	return m
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
func extractJoinSims(ex Expr, known map[string]relation.Table) ([]*SimExpr, Expr) {
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
