package metric

import "math"

// Cosine is cosine distance: 1 - <a,b> / (|a| |b|), with the shorter
// vector zero-padded (the padding contributes nothing to the dot
// product but the longer tail still counts toward its own norm).
//
// Cosine distance does not satisfy the triangle inequality, but it is a
// monotone function of a distance that does: for non-zero a and b,
// 1 - cos = |â - b̂|² / 2, so the chord sqrt(2d) is the Euclidean
// distance between the unit vectors. The vector view prunes cosine by
// the chord (Pruning, Reach) and verifies with cosCore itself, so its
// distances are bitwise those of every other path. Zero-norm
// conventions: two zero vectors are identical (distance 0); a zero
// vector against a non-zero one has undefined angle and is assigned
// distance 1, that of orthogonal vectors. Their chords, 0 and √2, are
// those of one more unit vector orthogonal to every other, so the chord
// stays a metric with zero vectors among the rows.
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

// chordSlack is Reach's absolute allowance for the chord's rounding.
// For vectors of at most N components, cosCore is within
// δ <= (2N+8)·2^-53 of the exact cosine distance: the float32 products
// are exact in float64, each of the three sums errs by at most N·2^-53
// of its sum of magnitudes, which Cauchy-Schwarz bounds by |a||b| for
// the dot product, and the square root, the division and the
// subtraction add a few 2^-53 more. Since |√x - √y| <= √|x - y|, a
// computed chord is within ε = √(2δ) (and an ulp) of the exact one. A
// pruning test combines two computed chords and must admit the exact
// chord of a match, so it needs 3ε: under 6.5e-5 for N <= 2^20.
const chordSlack = 1e-4

// Pruning returns the chord, sqrt(2·cosCore).
func (Cosine) Pruning() Distance { return chord{} }

// Reach maps a cosine radius r to the chord radius sqrt(2r) plus
// chordSlack. A negative radius admits nothing and stays negative.
func (Cosine) Reach(r float64) float64 {
	if r < 0 {
		return r
	}
	return math.Sqrt(2*r) + chordSlack
}

// chord is the distance the vector view prunes cosine by; it is not
// registered, so no statement names it.
type chord struct{}

func (chord) Name() string             { return "chord" }
func (chord) Dist(a, b Vector) float64 { return math.Sqrt(2 * cosCore(a, b)) }

var (
	_ Pruner  = Cosine{}
	_ Batcher = Cosine{}
)
