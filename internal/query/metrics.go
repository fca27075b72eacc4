package query

// Process-wide metrics of the query engine, registered on obs.Default
// and exposed by the serving layer's /metrics endpoint. Counter
// increments are a few nanoseconds (striped atomics), so they sit
// directly on the execution hot path.

import (
	"sync"

	"repro/internal/obs"
)

var (
	// mQueriesTotal counts statements executed through the engine
	// (SELECT and DML alike).
	mQueriesTotal = obs.Default.Counter("simq_queries_total",
		"Statements executed by the query engine.")
	// mQueryLatency observes end-to-end statement execution time in
	// seconds (parse/plan/cache lookup through result assembly).
	mQueryLatency = obs.Default.Histogram("simq_query_seconds",
		"Statement execution latency in seconds.", obs.DefBuckets)

	// The statement cache (plancache.go) counts lookups by normalized
	// text in Engine.Prepare.
	mPlanCacheHit   = obs.Default.Counter(`simq_plan_cache_total{event="hit"}`, "Statement-text lookups that found a cached prepared statement.")
	mPlanCacheMiss  = obs.Default.Counter(`simq_plan_cache_total{event="miss"}`, "Statement-text lookups that parsed the statement afresh.")
	mPlanCacheEvict = obs.Default.Counter(`simq_plan_cache_total{event="evict"}`, "Prepared statements evicted from the statement cache by the LRU.")

	// Index traversal totals, accumulated from each operator's ExecStats
	// as it closes (see execCtx.addStats) — the process-wide view of the
	// per-query Nodes/Pruned counters.
	mIndexVisited = obs.Default.Counter(`simq_index_nodes_total{event="visited"}`, "Tree-index nodes visited by query traversals.")
	mIndexPruned  = obs.Default.Counter(`simq_index_nodes_total{event="pruned"}`, "Tree-index subtrees skipped by pruning bounds.")

	// Visited fraction of NEAREST, one series per domain: the distance
	// computations one NEAREST operator made over the live rows of its
	// snapshot. A lower-bounding filter that works keeps it well under 1;
	// a value near 1 names a degenerate access path.
	mNearestVisitedSeq = obs.Default.Histogram(`simq_nearest_visited_fraction{domain="seq"}`,
		"Distance computations per live row of one NEAREST operator.", fractionBuckets)
	mNearestVisitedVec = obs.Default.Histogram(`simq_nearest_visited_fraction{domain="vec"}`,
		"Distance computations per live row of one NEAREST operator.", fractionBuckets)
)

// fractionBuckets bounds the visited-fraction histograms: a ratio in
// [0, 1], slightly above when the access structure carries tombstoned
// or post-snapshot entries.
var fractionBuckets = []float64{0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 1}

// observeVisited records one NEAREST operator's visited fraction; an
// empty snapshot records nothing.
func observeVisited(h *obs.Histogram, verifications, live int) {
	if live > 0 {
		h.Observe(float64(verifications) / float64(live))
	}
}

// kernelCounters caches one dispatch counter per distance kernel; the
// kernel set is small and fixed per process, so the map stabilizes
// after the first few queries and lookups are lock-free.
var kernelCounters sync.Map // kernel string -> *obs.Counter

// kernelDispatch counts one plan execution dispatching to the named
// distance kernel.
func kernelDispatch(kernel string) {
	if kernel == "" {
		return
	}
	if c, ok := kernelCounters.Load(kernel); ok {
		c.(*obs.Counter).Inc()
		return
	}
	c := obs.Default.Counter(`simq_kernel_dispatch_total{kernel="`+kernel+`"}`,
		"Plan executions dispatched to a distance kernel.")
	kernelCounters.Store(kernel, c)
	c.Inc()
}
