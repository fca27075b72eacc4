package metric

import "math"

// L2 is Euclidean distance: sqrt(sum (a_i - b_i)^2), with the shorter
// vector zero-padded. It is a true metric (triangle inequality holds),
// so the vector view prunes by it directly.
type L2 struct{}

func init() { _ = Register(L2{}) }

// Name returns "l2".
func (L2) Name() string { return "l2" }

// Pruning returns L2 itself: the view prunes by the metric's own
// distance, whose rounding the view's relative allowance covers.
func (L2) Pruning() Distance { return L2{} }

// Reach is the identity.
func (L2) Reach(r float64) float64 { return r }

// l2Block is the early-abandon check interval of l2sq: partial sums
// are compared against the squared budget once per block. Power of two
// and a multiple of the 4-way unroll so abandoning never perturbs the
// accumulation order.
const l2Block = 64

// l2sq is the one squared-distance core every L2 entry point funnels
// through: a 4-way blocked float32 loop with float64 accumulators and
// the fixed reduction order (s0+s1)+(s2+s3). cut < 0 disables early
// abandon; cut >= 0 abandons (returning sum > cut) once a partial sum
// exceeds it — sound because every term is non-negative, and
// result-preserving because the checks never change what is added in
// which order. The shared core is what makes Dist, Within and
// DistBatch bitwise-identical across the row, batch, vector view and
// oracle paths.
func l2sq(a, b Vector, cut float64) (float64, bool) {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= n; i += 4 {
		d0 := float64(a[i]) - float64(b[i])
		d1 := float64(a[i+1]) - float64(b[i+1])
		d2 := float64(a[i+2]) - float64(b[i+2])
		d3 := float64(a[i+3]) - float64(b[i+3])
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
		if cut >= 0 && (i+4)%l2Block == 0 {
			if (s0+s1)+(s2+s3) > cut {
				return (s0 + s1) + (s2 + s3), false
			}
		}
	}
	for ; i < n; i++ {
		d := float64(a[i]) - float64(b[i])
		s0 += d * d
	}
	// Dimension mismatch: the longer tail is measured against the
	// origin, a-tail first then b-tail (at most one is non-empty), in
	// the same deterministic order on every path.
	for j := n; j < len(a); j++ {
		d := float64(a[j])
		s0 += d * d
	}
	for j := n; j < len(b); j++ {
		d := float64(b[j])
		s0 += d * d
	}
	sum := (s0 + s1) + (s2 + s3)
	if cut >= 0 && sum > cut {
		return sum, false
	}
	return sum, true
}

// Dist returns the Euclidean distance between a and b.
func (L2) Dist(a, b Vector) float64 {
	s, _ := l2sq(a, b, -1)
	return math.Sqrt(s)
}

// Within is the early-abandoning threshold test: partial squared sums
// are checked against r^2 once per block, so most non-matching
// candidates abandon after a fraction of their components. When the
// distance is within r the returned value is bitwise-identical to
// Dist (same core, same accumulation order).
func (L2) Within(a, b Vector, r float64) (float64, bool) {
	if r < 0 {
		return 0, false
	}
	// The abandon cut lives in squared space; give it a few ulps of
	// slack so sqrt rounding at the boundary (d bitwise equal to r)
	// can never abandon a candidate the distance-space verdict below
	// would accept. Abandoning is only ever an optimisation — every
	// borderline candidate is computed fully.
	cut := r * r
	cut += cut * 5e-16
	s, ok := l2sq(a, b, cut)
	if !ok {
		return math.Sqrt(s), false
	}
	d := math.Sqrt(s)
	// sqrt is monotone but rounds: re-check in distance space so the
	// verdict agrees exactly with Dist(a,b) <= r.
	return d, d <= r
}

// DistBatch fills out[i] with Dist(q, cands[i]) for a whole candidate
// column — the block kernel the vectorized filter and nearest-k
// operators feed on. Each distance runs the same core as Dist, so the
// column is bitwise-identical to per-pair calls; nil candidates (rows
// without a vector) yield +Inf.
func (L2) DistBatch(q Vector, cands []Vector, out []float64) {
	for i, c := range cands {
		if c == nil {
			out[i] = inf
			continue
		}
		s, _ := l2sq(q, c, -1)
		out[i] = math.Sqrt(s)
	}
}

var (
	_ Pruner    = L2{}
	_ Abandoner = L2{}
	_ Batcher   = L2{}
)
