// Package index provides the similarity indexes and candidate filters
// of the sequence domain. Strategies with identical answer semantics
// are offered so the F5/F6 and N1 experiments can race them:
//
//   - Scan: verify every entry (baseline).
//   - LengthIndex: bucket by length; only |len(s)-len(q)| <= k buckets
//     can contain answers at radius k.
//   - QGramIndex: inverted q-gram index with the count filter
//     (overlap >= |q| - g + 1 - k·g), then verification.
//   - BKTree: Burkhard–Keller metric tree; sound for metrics, i.e. for
//     symmetric rule sets with the triangle inequality — the unit edit
//     distance in particular.
//   - Trie: shared-prefix tree walked with the banded edit DP row.
//
// The transformation distance of an arbitrary rule set is a quasi-metric
// (directional), so BKTree and Trie answer only the unit-cost edit
// distance; the filters and scan work for any edit-like set via a
// Verifier.
//
// The query engine uses neither string tree. Every unit-cost string query
// it serves — WITHIN, NEAREST and the seq join probe — walks the
// relation's length-ordered view (relation.LengthView) instead,
// filtering with the length difference and with ByteSig, the two-word
// thermometer-coded bag-distance bound defined here, compared with a
// popcount by the NextWithin scan kernel: once the radius, or the k-th
// neighbour, nears the data's typical pairwise distance no edge label
// prunes, and the N1 experiment measures the walk ahead of both trees
// in that regime. The trees remain for the experiments, the examples
// and the benchmark's index probes. PushBestK is the best list every
// nearest-k strategy shares.
//
// The continuous domain mirrors the discrete one: VPTree is the
// vantage-point tree over any pluggable metric.Distance that satisfies
// the triangle inequality (L2, but not cosine), answering
// NEAREST and WITHIN over float-vector columns behind the same
// Iterator/Stats contracts. Like the BK-tree it serves the experiments
// and the benchmark's index probes; the query engine walks the
// relation's bulk-loaded vector view (relation.VecView) instead.
package index

import "repro/internal/editdp"

// Entry is one indexed sequence.
type Entry struct {
	ID int
	S  string
}

// Match is one query answer: an entry within the query radius.
type Match struct {
	ID   int
	S    string
	Dist float64
}

// Iterator is a pull-based stream of range-query matches. Abandoning an
// iterator early (e.g. a LIMIT above it) stops the underlying index
// traversal, so work is proportional to the matches actually consumed.
type Iterator interface {
	// Next returns the next match; ok is false when the stream is done.
	Next() (m Match, ok bool)
	// Stats reports the work performed so far.
	Stats() Stats
}

// PushBestK inserts m into best — kept sorted ascending by (Dist, ID)
// — and truncates to at most k entries. The shared best-list of every
// nearest-k strategy, so tie-breaking stays identical across them.
func PushBestK(best []Match, m Match, k int) []Match {
	i := len(best)
	for i > 0 && (best[i-1].Dist > m.Dist || best[i-1].Dist == m.Dist && best[i-1].ID > m.ID) {
		i--
	}
	best = append(best, Match{})
	copy(best[i+1:], best[i:])
	best[i] = m
	if len(best) > k {
		best = best[:k]
	}
	return best
}

// Verifier decides whether a candidate is a true answer. The unit
// verifier wraps editdp.LevenshteinWithin; weighted verifiers wrap
// Calculator.Within.
type Verifier func(query, candidate string, radius float64) (float64, bool)

// UnitVerifier verifies with the unit-cost banded edit distance.
func UnitVerifier(query, candidate string, radius float64) (float64, bool) {
	d, ok := editdp.LevenshteinWithin(query, candidate, int(radius))
	return float64(d), ok
}

// CalcVerifier adapts a weighted Calculator to a Verifier. Distances are
// measured from the data entry to the query (entries are transformed to
// match the query, per the framework's reduction semantics).
func CalcVerifier(c *editdp.Calculator) Verifier {
	return func(query, candidate string, radius float64) (float64, bool) {
		return c.Within(candidate, query, radius)
	}
}

// Stats counts the work a strategy did for one query; the experiments
// report these next to wall-clock times, and EXPLAIN ANALYZE surfaces
// them per operator.
type Stats struct {
	Candidates    int // entries reaching verification
	Verifications int // verifier invocations
	Nodes         int // tree-index nodes visited during traversal
	Pruned        int // subtrees skipped by a pruning bound
	Abandoned     int // verifications cut short by the early-abandon bound
}

// Add folds another Stats into s.
func (s *Stats) Add(o Stats) {
	s.Candidates += o.Candidates
	s.Verifications += o.Verifications
	s.Nodes += o.Nodes
	s.Pruned += o.Pruned
	s.Abandoned += o.Abandoned
}

// Scan verifies every entry against the query; the correctness baseline
// all other strategies are compared to.
func Scan(entries []Entry, query string, radius float64, v Verifier) ([]Match, Stats) {
	var out []Match
	st := Stats{Candidates: len(entries), Verifications: len(entries)}
	for _, e := range entries {
		if d, ok := v(query, e.S, radius); ok {
			out = append(out, Match{ID: e.ID, S: e.S, Dist: d})
		}
	}
	return out, st
}
