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
	// probe is the access path of accessNearest and accessRange, and the
	// conjunct it serves (probe.go); leafDist says whether an accessRange
	// leaf supplies the row's distance (rangeConjunct).
	probe    probe
	leafDist bool
	nearest  SimExpr // accessNearest: the predicate its probe serves (NearestExpr.sim)
	// pred is the predicate the filter above the access path evaluates
	// (accessRange, accessScan and accessJoin; nil or TRUE for none).
	pred  Expr
	start string  // accessJoin: starting alias
	steps []probe // accessJoin: one probe per edge, in the greedy join order
	// noDist: the first join step does not serve the distance edge, so
	// the steps emit no distance and pred evaluates that edge first.
	noDist bool
	// slices > 1 reads the snapshot of the table the plan fans out over
	// (the join's start) as that many parallel id ranges.
	slices int
	kernel string // distance kernel of the access path or, for a scan, the
	// filter ("myers", "targetdp", "vec-<metric>", or "" when none)
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
	// The plan's kernel is its leaf probe's or its first join step's
	// (each step's operator shows its own); a scan's is its filter's.
	switch {
	case d.probe != nil:
		d.kernel = d.probe.kernel()
	case len(d.steps) > 0:
		d.kernel = d.steps[0].kernel()
	default:
		d.kernel = e.filterKernel(q.Where)
	}
	return d, nil
}

// bandKernel names the kernel a band walk runs for target: Myers where
// it computes the rule set's distance (the condition bandWalk.resetSig
// tests),
// TargetDP otherwise.
func bandKernel(c *editdp.Calculator, target string) string {
	if c != nil && c.Unit() && c.Covers(target) {
		return "myers"
	}
	return "targetdp"
}

// decideNearest validates a NEAREST query; its probe follows from the
// column and the USING name (probeFor), so there is nothing to choose.
func (e *Engine) decideNearest(q *Query, ne NearestExpr) (*planDecision, error) {
	if len(q.From) != 1 {
		return nil, fmt.Errorf("query: NEAREST requires a single relation")
	}
	d := &planDecision{kind: accessNearest, nearest: ne.sim(), slices: 1}
	p, err := e.probeFor(probeBase{sim: &d.nearest, k: ne.K, alias: q.From[0].Alias}, "")
	d.probe = p
	return d, err
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

// decideSingle picks the access path for a single-relation query by
// what the relation offers, reading no cost: a similarity conjunct a
// view serves (rangeProbe) is a Range leaf walking that view; everything
// else is a (possibly parallel) scan with the full predicate as a
// filter.
func (e *Engine) decideSingle(q *Query, tab *relation.Relation) (*planDecision, error) {
	if p, pred, leafDist := e.rangeProbe(q.Where, q.From[0].Alias); p != nil {
		return &planDecision{kind: accessRange, probe: p, pred: pred, leafDist: leafDist, slices: 1}, nil
	}
	d := &planDecision{kind: accessScan, pred: simplifyExpr(q.Where)}
	// A bare scan has no per-tuple verification work to parallelise.
	d.slices = e.decideParallel(q, tab.Stats().Count, !isTrivial(d.pred))
	return d, nil
}

// decideJoin greedily orders a left-deep join chain over N relations by
// estimated cost; similarity edges come from top-level similarity
// conjuncts between two aliases (SIMILAR TO or ON dist(...) <= k). Each
// edge's probe follows from what its inner side offers (probeFor); its
// cost only orders the chain.
//
// A joined row's distance is the first edge's in WHERE order, whatever
// the join order, as a filter over every pair would assign it: the steps
// supply it when the first step serves that edge (each later step keeps
// it); otherwise they emit no distance and the filter evaluates that
// edge first, as rangeConjunct does for a leaf.
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
	var steps []probe
	for len(bound) < len(q.From) {
		bestIdx, bestCost := -1, 0.0
		var best probe
		for i, edge := range edges {
			if used[i] {
				continue
			}
			fa, ta := edge.Field.Table, edge.Target.Field.Table
			b := probeBase{sim: edge}
			var innerField string
			switch {
			case bound[fa] && !bound[ta]:
				b.alias, b.field, innerField = ta, edge.Field, edge.Target.Field.Name
			case bound[ta] && !bound[fa]:
				b.alias, b.field, innerField = fa, edge.Target.Field, edge.Field.Name
			default:
				continue // cycle edge or not yet reachable
			}
			p, err := e.probeFor(b, innerField)
			if err != nil {
				return nil, err
			}
			_, cost := p.estimate(curRows, relOf[b.alias].Stats())
			if bestIdx < 0 || cost < bestCost || cost == bestCost && pos[b.alias] < pos[best.spec().alias] {
				bestIdx, bestCost, best = i, cost, p
			}
		}
		if bestIdx < 0 {
			return nil, fmt.Errorf("query: relations are not connected by similarity predicates")
		}
		used[bestIdx] = true
		alias := best.spec().alias
		bound[alias] = true
		curRows, _ = best.estimate(curRows, relOf[alias].Stats())
		steps = append(steps, best)
	}
	noDist := steps[0].spec().sim != edges[0]
	if noDist {
		residual, used[0] = AndExpr{L: *edges[0], R: residual}, true
	}
	// Edges no step uses (cycles) must still hold on each output row.
	for i, edge := range edges {
		if !used[i] {
			residual = AndExpr{L: residual, R: *edge}
		}
	}

	return &planDecision{kind: accessJoin, start: start, steps: steps, pred: simplifyExpr(residual), noDist: noDist,
		slices: e.decideParallel(q, relOf[start].Stats().Count, true)}, nil
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
	if d.probe != nil {
		d.probe.ensure(tab)
	}
	snap := tab.Snapshot()
	st := shardStats(tab.Stats(), d.slices)
	ctx := e.newExecCtx(q)
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
		ordered = true
		est, _ := d.probe.estimate(1, st)
		leaf = func(s stream) BatchOperator {
			return trB(ctx, &batchNearestKOp{
				kernelTag: tag, ctx: ctx, matchList: matchList{stream: s, alias: alias, size: size, order: order},
				p: d.probe, k: d.probe.spec().k,
			}, est)
		}
	case accessRange:
		if !d.leafDist {
			order = OrderNone
		}
		ordered = d.leafDist
		est, _ := d.probe.estimate(1, st)
		leaf = func(s stream) BatchOperator {
			ml := matchList{stream: s, alias: alias, size: size, order: order, noDist: !d.leafDist}
			return filter(trB(ctx, &batchRangeOp{kernelTag: tag, ctx: ctx, matchList: ml, p: d.probe}, est), d.pred)
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
		if sim := ex.sim(); isVecSim(&sim) {
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
