package query

// The cost model behind join ordering, the planner's one remaining
// cost-based choice; every access path follows from what the relation
// offers. All estimates are deliberately coarse — the point is to rank
// alternatives, not to predict wall-clock time — but every formula is
// grounded in how the data structures actually behave:
//
//   - Verifying one candidate with the banded edit DP costs
//     O(len * (2k+1)) cell updates.
//   - A scan verifies every tuple.
//   - A vector view walk verifies roughly the rows it returns, and never
//     much more than a scan.
//
// The output cardinality of a similarity join edge is
// |outer| * |inner| * selectivity(radius).

import (
	"math"

	"repro/internal/relation"
)

// selRange estimates the fraction of tuples within radius k of a
// typical target: radius relative to sequence length, squared to
// reflect the sharp distance concentration of edit distance.
func selRange(st relation.Stats, k float64) float64 {
	if st.AvgSeqLen <= 0 {
		return 1
	}
	f := (k + 1) / (st.AvgSeqLen + 1)
	if f > 1 {
		f = 1
	}
	return f * f
}

// verifyCost is the banded-DP cost of verifying one candidate. The
// band never grows past the full DP matrix, so the per-candidate cost
// saturates once 2k+1 exceeds the sequence length — beyond that point a
// wider radius buys no additional work.
func verifyCost(st relation.Stats, k float64) float64 {
	rows := math.Max(1, st.AvgSeqLen)
	band := 2*k + 1
	if band > rows+1 {
		band = rows + 1
	}
	return rows * band
}

// vecVerifyCost is the cost of one metric distance evaluation: linear
// in the dimension (both L2 and cosine are single-pass kernels).
func vecVerifyCost(st relation.Stats) float64 {
	return math.Max(1, float64(st.VecDim))
}

// nestedLoopJoinCost: verify every pair.
func nestedLoopJoinCost(outerRows float64, inner relation.Stats, k float64) float64 {
	return outerRows * float64(inner.Count) * verifyCost(inner, k)
}

// joinOutRows estimates the cardinality of joining outerRows against a
// relation through a similarity edge at radius k.
func joinOutRows(outerRows float64, inner relation.Stats, k float64) float64 {
	return outerRows * float64(inner.Count) * selRange(inner, k)
}

// lengthBandJoinCost models a join over a unit-cost edit edge, which
// verifies per outer row only the inner rows in the length band
// |len(x)-len(y)| <= k — the band walk of the length view over seq, the
// length-banded scan over other attributes — after one pass over the
// inner side. The band fraction mirrors selRange's length intuition —
// (2k+1) of the ~AvgSeqLen+1 occupied lengths survive — and the
// bit-parallel kernel buys a constant over the per-pair DP, folded in
// as the 0.25 factor.
func lengthBandJoinCost(outerRows float64, inner relation.Stats, k float64) float64 {
	band := (2*k + 1) / (inner.AvgSeqLen + 1)
	if band > 1 {
		band = 1
	}
	return float64(inner.Count) + outerRows*band*float64(inner.Count)*verifyCost(inner, k)*0.25
}

// vecJoinOutRows is joinOutRows for a vector edge. Without a distance
// distribution sketch the selectivity is a ramp in the radius, coarse
// like every estimate here; a vector Range leaf reads it too.
func vecJoinOutRows(outerRows float64, inner relation.Stats, r float64) float64 {
	frac := 0.25 * (r + 1)
	if frac > 1 {
		frac = 1
	}
	return outerRows * float64(inner.VecCount) * frac
}
