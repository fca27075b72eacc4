package query

// Per-operator runtime tracing for EXPLAIN ANALYZE and the slow-query
// log. When execCtx.traced is set, the planner wraps every operator it
// constructs in a span wrapper (trB) that times OpenBatch/NextBatch/
// CloseBatch inclusively and counts emitted rows and blocks. After the
// plan runs, extractTrace walks the wrapped tree and assembles an
// obs.Span tree mirroring the physical plan, with each operator's
// planner estimate next to its observed actuals.
//
// Tracing off is the common case, so trB returns the operator unchanged
// when the context is untraced: the pipeline layout, the per-block call
// chain and the allocation profile of an untraced query are
// byte-for-byte those of a build without this file.

import (
	"time"

	"repro/internal/obs"
	"repro/internal/relation"
)

// opStatser is implemented by operators that retain their work counters
// across Close for span attribution (the `last` field convention).
type opStatser interface{ opStats() ExecStats }

// instanced is implemented by the fan-out operator (GatherMerge), which
// exposes the per-stream pipelines that executed; the extractor merges
// their span trees in lockstep into one logical child.
type instanced interface{ executedInstances() []BatchOperator }

// shardTimer is implemented by the fan-out operator, which records one
// drain timing per stream when traced.
type shardTimer interface{ shardTimings() []obs.ShardTiming }

// trB wraps an operator in a span recorder when the context is traced;
// est is the planner's cardinality estimate (-1 = no estimate).
func trB(c *execCtx, op BatchOperator, est float64) BatchOperator {
	if !c.traced {
		return op
	}
	return &batchSpanOp{inner: op, est: est}
}

// batchSpanOp decorates an operator with inclusive wall-time, row and
// block accounting. It is transparent to EXPLAIN rendering: Describe,
// childNodes and kernelLabel delegate to the wrapped operator, whose
// children are themselves span-wrapped, so the rendered tree is
// unchanged.
type batchSpanOp struct {
	inner BatchOperator
	est   float64

	rows    int64
	batches int64
	wallNS  int64
}

func (o *batchSpanOp) OpenBatch() error {
	start := time.Now()
	err := o.inner.OpenBatch()
	o.wallNS += time.Since(start).Nanoseconds()
	return err
}

func (o *batchSpanOp) NextBatch() (*Batch, error) {
	start := time.Now()
	b, err := o.inner.NextBatch()
	o.wallNS += time.Since(start).Nanoseconds()
	if b != nil {
		o.rows += int64(b.Len())
		o.batches++
	}
	return b, err
}

func (o *batchSpanOp) CloseBatch() error {
	start := time.Now()
	err := o.inner.CloseBatch()
	o.wallNS += time.Since(start).Nanoseconds()
	return err
}

func (o *batchSpanOp) Describe() string            { return o.inner.Describe() }
func (o *batchSpanOp) childNodes() []BatchOperator { return o.inner.childNodes() }
func (o *batchSpanOp) kernelLabel() string         { return kernelOf(o.inner) }

// extractSpan converts one node of an executed, traced operator tree
// into its span. Unwrapped nodes (fan-out internals) get a label-only
// span so the trace never loses tree structure.
func extractSpan(node BatchOperator) *obs.Span {
	if n, ok := node.(*batchSpanOp); ok {
		return spanFrom(n.inner, n.est, n.rows, n.batches, n.wallNS)
	}
	return spanFrom(node, -1, 0, 0, 0)
}

// spanFrom assembles the span for an unwrapped operator: label, kernel,
// work counters, shard timings, and children — either the lockstep
// merge of the executed fan-out instances or the recursive extraction
// of the plan children.
func spanFrom(inner BatchOperator, est float64, rows, batches, wallNS int64) *obs.Span {
	sp := &obs.Span{
		Op:      inner.Describe(),
		Kernel:  kernelOf(inner),
		EstRows: est,
		Rows:    rows,
		Batches: batches,
		WallNS:  wallNS,
	}
	if os, ok := inner.(opStatser); ok {
		st := os.opStats()
		sp.Candidates = int64(st.Candidates)
		sp.Verifications = int64(st.Verifications)
		sp.IndexNodes = int64(st.Nodes)
		sp.IndexPruned = int64(st.Pruned)
		sp.Abandoned = int64(st.Abandoned)
	}
	if st, ok := inner.(shardTimer); ok {
		sp.Shards = st.shardTimings()
	}
	if inst, ok := inner.(instanced); ok {
		if merged := mergeInstanceSpans(inst.executedInstances()); merged != nil {
			sp.Children = append(sp.Children, merged)
			return sp
		}
	}
	for _, k := range inner.childNodes() {
		sp.Children = append(sp.Children, extractSpan(k))
	}
	return sp
}

// mergeInstanceSpans folds the executed instances of a fan-out operator
// (all structurally identical pipelines) into one span tree: counters
// add, wall time takes the per-level maximum, children merge in
// lockstep. Returns nil when no instances were recorded (untraced).
func mergeInstanceSpans(instances []BatchOperator) *obs.Span {
	var merged *obs.Span
	for _, in := range instances {
		s := extractSpan(in)
		if merged == nil {
			merged = s
			continue
		}
		mergeSpanTrees(merged, s)
	}
	return merged
}

// mergeSpanTrees merges o into s recursively, pairing children by
// position (fan-out instances share one pipeline shape, so the trees
// are congruent by construction).
func mergeSpanTrees(s, o *obs.Span) {
	s.Merge(o)
	for i := range s.Children {
		if i < len(o.Children) {
			mergeSpanTrees(s.Children[i], o.Children[i])
		}
	}
}

// ------------------------------------------------ cardinality estimates
//
// The numbers annotated on spans come from the same primitives the cost
// model ranks plans with (cost.go), so est-vs-actual gaps in EXPLAIN
// ANALYZE point directly at the selectivity formula a later PR can
// recalibrate from observed spans.

// estOfBatch reads the planner estimate recorded on a wrapped operator
// (-1 when the operator is unwrapped or carries no estimate), letting
// decorators inherit their child's estimate without extra plumbing.
func estOfBatch(op BatchOperator) float64 {
	if s, ok := op.(*batchSpanOp); ok {
		return s.est
	}
	return -1
}

// estNearestRows: NEAREST k emits exactly min(k, population) rows.
func estNearestRows(population, k int) float64 {
	if population < k {
		return float64(population)
	}
	return float64(k)
}

// estFilterRows scales a child estimate by the filter predicate's
// selectivity: the first similarity conjunct's radius drives the same
// selRange formula the planner costs with; predicates without a
// similarity conjunct keep the child estimate (no attribute statistics
// yet).
func estFilterRows(st relation.Stats, pred Expr, childEst float64) float64 {
	if childEst < 0 {
		return -1
	}
	if r, ok := firstSimRadius(pred); ok {
		return selRange(st, r) * childEst
	}
	return childEst
}

// estLimitRows caps a child estimate at the limit.
func estLimitRows(n int, childEst float64) float64 {
	if childEst >= 0 && childEst < float64(n) {
		return childEst
	}
	return float64(n)
}

// firstSimRadius finds the radius of the first similarity conjunct in a
// predicate tree, in evaluation order.
func firstSimRadius(ex Expr) (float64, bool) {
	switch ex := ex.(type) {
	case SimExpr:
		return ex.Radius, true
	case AndExpr:
		if r, ok := firstSimRadius(ex.L); ok {
			return r, true
		}
		return firstSimRadius(ex.R)
	case OrExpr:
		if r, ok := firstSimRadius(ex.L); ok {
			return r, true
		}
		return firstSimRadius(ex.R)
	case NotExpr:
		return firstSimRadius(ex.E)
	}
	return 0, false
}

// shardStats scales relation statistics to one of n streams of an even
// split, so EXPLAIN ANALYZE compares each stream's pipeline against what
// the planner assumed for one stream, not the union.
func shardStats(st relation.Stats, n int) relation.Stats {
	if n > 1 {
		st.Count = (st.Count + n - 1) / n
		st.VecCount = (st.VecCount + n - 1) / n
	}
	return st
}

// extractTrace assembles the span tree of an executed traced plan; nil
// when the plan was not traced.
func (p *compiledPlan) extractTrace() *obs.Span {
	if p.ctx == nil || !p.ctx.traced {
		return nil
	}
	return extractSpan(p.root)
}
