package metric

import "math"

// Cosine is cosine distance: 1 - <a,b> / (|a| |b|), with the shorter
// vector zero-padded (the padding contributes nothing to the dot
// product but the longer tail still counts toward its own norm).
//
// Cosine distance does NOT satisfy the triangle inequality, so it
// deliberately does not carry the Triangular capability: the planner
// never walks a vector view for it and every cosine predicate runs the
// scan + batch-kernel path. Zero-norm conventions: two zero vectors
// are identical (distance 0); a zero vector against a non-zero one has
// undefined angle and is assigned the maximal distance 1.
type Cosine struct{}

func init() { _ = Register(Cosine{}) }

// Name returns "cosine".
func (Cosine) Name() string { return "cosine" }

// cosCore is the one core every Cosine entry point funnels through: a
// 2-way blocked float32 loop accumulating dot product and both squared
// norms in float64 with fixed reduction order (x0+x1 per sum). Shared
// by Dist and DistBatch so every execution path produces bitwise-
// identical distances.
func cosCore(a, b Vector) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	var dot0, dot1, na0, na1, nb0, nb1 float64
	i := 0
	for ; i+2 <= n; i += 2 {
		x0, y0 := float64(a[i]), float64(b[i])
		x1, y1 := float64(a[i+1]), float64(b[i+1])
		dot0 += x0 * y0
		dot1 += x1 * y1
		na0 += x0 * x0
		na1 += x1 * x1
		nb0 += y0 * y0
		nb1 += y1 * y1
	}
	for ; i < n; i++ {
		x, y := float64(a[i]), float64(b[i])
		dot0 += x * y
		na0 += x * x
		nb0 += y * y
	}
	for j := n; j < len(a); j++ {
		x := float64(a[j])
		na0 += x * x
	}
	for j := n; j < len(b); j++ {
		y := float64(b[j])
		nb0 += y * y
	}
	dot, na, nb := dot0+dot1, na0+na1, nb0+nb1
	if na == 0 && nb == 0 {
		return 0
	}
	if na == 0 || nb == 0 {
		return 1
	}
	d := 1 - dot/math.Sqrt(na*nb)
	// Floating-point rounding can push a perfect match a hair below
	// zero; clamp so the distance is a valid dissimilarity.
	if d < 0 {
		return 0
	}
	return d
}

// Dist returns the cosine distance between a and b.
func (Cosine) Dist(a, b Vector) float64 { return cosCore(a, b) }

// DistBatch fills out[i] with Dist(q, cands[i]) for a whole candidate
// column, bitwise-identical to per-pair calls (same core); nil
// candidates yield +Inf. Cosine has no early-abandon form — the
// running sum is not monotone in the distance — so the batch kernel is
// its entire fast path.
func (Cosine) DistBatch(q Vector, cands []Vector, out []float64) {
	for i, c := range cands {
		if c == nil {
			out[i] = inf
			continue
		}
		out[i] = cosCore(q, c)
	}
}

var _ Batcher = Cosine{}
