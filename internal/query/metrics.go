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

	mPlanCacheHit   = obs.Default.Counter(`simq_plan_cache_total{event="hit"}`, "Plan cache lookups that reused a cached decision.")
	mPlanCacheMiss  = obs.Default.Counter(`simq_plan_cache_total{event="miss"}`, "Plan cache lookups that fell through to the planner.")
	mPlanCacheEvict = obs.Default.Counter(`simq_plan_cache_total{event="evict"}`, "Plan cache entries evicted by the LRU.")

	// mReplans counts cached decisions whose operator tree failed to
	// rebuild (stale shard topology, dropped relation, ...), forcing a
	// fresh parse-and-plan.
	mReplans = obs.Default.Counter("simq_replans_total",
		"Cached plans invalidated at build time and re-planned.")

	// Index traversal totals, accumulated from each operator's ExecStats
	// as it closes (see execCtx.addStats) — the process-wide view of the
	// per-query Nodes/Pruned counters.
	mIndexVisited = obs.Default.Counter(`simq_index_nodes_total{event="visited"}`, "Tree-index nodes visited by query traversals.")
	mIndexPruned  = obs.Default.Counter(`simq_index_nodes_total{event="pruned"}`, "Tree-index subtrees skipped by pruning bounds.")
)

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
