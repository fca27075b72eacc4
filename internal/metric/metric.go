// Package metric defines the pluggable distance layer for continuous
// (float-vector) similarity: the Distance interface, its optional
// capability interfaces, and a process-wide registry the query planner
// resolves USING clauses against.
//
// The paper's framework is metric-agnostic — similarity is "reducible
// within cost budget" over an arbitrary domain — but six PRs of this
// reproduction hard-wired every kernel and index to string edit
// distance. This package is the seam that opens the engine to other
// domains: a Distance measures dissimilarity between float32 vectors,
// and the capability interfaces tell the engine what each metric
// licenses:
//
//   - Pruner names the distance the relation's vector view partitions
//     and prunes by, which satisfies the triangle inequality, and maps
//     the metric's radii into it: the metric's own distance for l2, the
//     chord for cosine (exactly as unit-cost edit distance licenses the
//     length view). A metric without it still runs through the view,
//     verified row by row.
//   - Abandoner exposes an early-abandoning Within, the vector twin of
//     the banded edit DP's budget cutoff.
//   - Batcher exposes a block evaluator feeding the vectorized
//     execution pipeline, the vector twin of editdp.QueryDP.
//
// Determinism contract: for one metric, Dist, Within (when within) and
// DistBatch MUST produce bitwise-identical float64 results for the
// same operand pair. Every execution path — block scan, per-pair
// verification, vector view walk, brute-force oracle, any slice count —
// funnels through the same blocked accumulation core, so query results
// are byte-identical across plans (the property the vector parity
// oracle pins). Dist must also be bitwise symmetric, Dist(a, b) ==
// Dist(b, a): a vector view measures d(probe, row) whichever side of a
// join probes, and a predicate measures d(target, field). Implementations
// added through Register must preserve both or the parity guarantees of
// the query layer break.
package metric

import (
	"fmt"
	"sort"
	"sync"
)

// Distance is a dissimilarity measure over float32 vectors. d(a, b)
// must be symmetric, non-negative, finite for finite inputs, and zero
// for identical vectors. Vectors of different dimensionality are
// compared as if the shorter were zero-padded, so a Distance is total
// over all vector pairs.
type Distance interface {
	// Name is the registry key the query language's USING clause
	// resolves (e.g. "l2", "cosine").
	Name() string
	// Dist returns the distance between a and b.
	Dist(a, b Vector) float64
}

// Pruner is a Distance the vector view can prune for. Pruning names a
// distance t that satisfies the triangle inequality, which the view is
// built and walked under, and Reach maps a radius of this metric into
// t, monotone non-decreasing in r. Together they must never reject a
// match: for all a, b, c with Dist(a, c) <= r,
//
//	|t.Dist(a, b) - t.Dist(b, c)| <= Reach(r)
//
// as computed, up to the view's own relative allowance of 1e-12 of the
// distances combined. Reach absorbs t's rounding error; a metric that
// is itself triangular names itself with the identity map.
type Pruner interface {
	Distance
	Pruning() Distance
	Reach(r float64) float64
}

// Abandoner is a Distance with an early-abandoning threshold test:
// Within(a, b, r) returns (d, true) with d bitwise-equal to
// Dist(a, b) when d <= r, and (_, false) — possibly without finishing
// the computation — when the distance exceeds r.
type Abandoner interface {
	Distance
	Within(a, b Vector, r float64) (float64, bool)
}

// Batcher is a Distance with a block evaluator for the vectorized
// execution pipeline: DistBatch fills out[i] with Dist(q, cands[i])
// (bitwise-identical to per-pair Dist calls) for a whole column of
// candidates. A nil candidate yields +Inf — rows without a vector can
// never be within any radius.
type Batcher interface {
	Distance
	DistBatch(q Vector, cands []Vector, out []float64)
}

// Within tests d(a, b) <= r under any metric, using the metric's
// early-abandoning path when it has one. The distance returned on
// success is bitwise-identical to Dist(a, b).
func Within(m Distance, a, b Vector, r float64) (float64, bool) {
	if ab, ok := m.(Abandoner); ok {
		return ab.Within(a, b, r)
	}
	d := m.Dist(a, b)
	return d, d <= r
}

// DistBatch evaluates Dist(q, cands[i]) into out under any metric,
// using the metric's block evaluator when it has one. out must have
// len(cands) capacity; nil candidates yield +Inf.
func DistBatch(m Distance, q Vector, cands []Vector, out []float64) {
	if b, ok := m.(Batcher); ok {
		b.DistBatch(q, cands, out)
		return
	}
	for i, c := range cands {
		if c == nil {
			out[i] = inf
			continue
		}
		out[i] = m.Dist(q, c)
	}
}

// ------------------------------------------------------------ registry

var (
	regMu    sync.RWMutex
	registry = map[string]registration{}
	regGen   uint64 // registrations so far
)

// registration is one registered metric and the generation Register
// gave it.
type registration struct {
	m   Distance
	gen uint64
}

// Register adds a metric to the process-wide registry under its Name,
// replacing any previous metric of that name; the next statement that
// names it plans against the new one. Each call gives the name a new
// registration generation (see Registration). The built-in metrics
// ("l2", "cosine") register themselves at init.
func Register(m Distance) error {
	if m == nil || m.Name() == "" {
		return fmt.Errorf("metric: Register requires a named metric")
	}
	regMu.Lock()
	defer regMu.Unlock()
	regGen++
	registry[m.Name()] = registration{m, regGen}
	return nil
}

// Lookup resolves a registered metric by name.
func Lookup(name string) (Distance, bool) {
	m, _, ok := Registration(name)
	return m, ok
}

// Registration resolves a registered metric by name together with its
// registration generation, a number no other registration of any name
// shares. A structure built under a metric records the generation and
// serves the name only while it is current, so a re-registration is
// seen without comparing metrics, which need not be comparable.
func Registration(name string) (m Distance, gen uint64, ok bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	r, ok := registry[name]
	return r.m, r.gen, ok
}

// Names returns the registered metric names, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
