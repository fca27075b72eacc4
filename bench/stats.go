package main

import (
	"math"
	"sort"
)

// percentile reads the p-th percentile (0..100) from an ascending
// slice, interpolating linearly between the two nearest ranks. An empty
// slice yields 0.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := p / 100 * float64(len(sorted)-1)
	lo, hi := int(math.Floor(idx)), int(math.Ceil(idx))
	if lo == hi {
		return sorted[lo]
	}
	frac := idx - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// median sorts a copy of v and returns its 50th percentile.
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// tailCandidates are the percentiles a latency tail is reported at.
var tailCandidates = []float64{50, 90, 99, 99.9, 99.99}

// tailPercentile picks the highest candidate percentile that still has
// at least ten of the n samples beyond it — a tail read from fewer
// samples does not repeat between runs. With fewer than twenty samples
// even the median fails the rule and 50 is returned as the floor.
func tailPercentile(n int) float64 {
	best := tailCandidates[0]
	for _, p := range tailCandidates {
		if float64(n)*(100-p) >= 1000*(1-1e-9) { // the slack absorbs 100-99.9 not being 0.1
			best = p
		}
	}
	return best
}

// spread is (max-min)/median of v: the run-to-run spread compare uses
// to decide whether two result files can resolve a bound at all. Fewer
// than two values have no spread.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	lo, hi := v[0], v[0]
	for _, x := range v {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	m := median(v)
	if m == 0 {
		return 0
	}
	return (hi - lo) / math.Abs(m)
}
