package tsdb

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/dft"
	"repro/internal/rtree"
)

// Transform is a safe linear transformation on the Fourier-series
// representation of a sequence: per-coefficient complex multipliers
// (the pair (a, 0) of the paper — Theorem 3 makes multiplier-only
// transformations safe in the polar feature space, so translations are
// deliberately not representable here).
type Transform struct {
	Name string
	A    []complex128 // one multiplier per DFT coefficient
}

// Identity returns the identity transformation for length-n series
// (the control in the C8/C9 experiments).
func Identity(n int) *Transform {
	a := make([]complex128, n)
	for i := range a {
		a[i] = 1
	}
	return &Transform{Name: "identity", A: a}
}

// MovingAvg returns the l-day moving-average transformation for
// length-n series: multiplication by √n·DFT(kernel), which by the
// convolution-multiplication property equals circular convolution with
// the kernel (1/l, ..., 1/l, 0, ..., 0) in the time domain. The √n
// factor compensates the unitary DFT normalisation.
func MovingAvg(n, l int) (*Transform, error) {
	if l <= 0 || l > n {
		return nil, fmt.Errorf("tsdb: window %d outside [1,%d]", l, n)
	}
	kernel := make([]float64, n)
	for i := 0; i < l; i++ {
		kernel[i] = 1 / float64(l)
	}
	K := dft.TransformReal(kernel)
	a := make([]complex128, n)
	scale := complex(math.Sqrt(float64(n)), 0)
	for i := range a {
		a[i] = K[i] * scale
	}
	return &Transform{Name: fmt.Sprintf("mavg%d", l), A: a}, nil
}

// ReverseT returns the reversing transformation (a_f = -1 for all f).
func ReverseT(n int) *Transform {
	a := make([]complex128, n)
	for i := range a {
		a[i] = -1
	}
	return &Transform{Name: "reverse", A: a}
}

// WarpCoefficients returns the first k multipliers a_f of Appendix A,
// Equation 19: a_f = Σ_{t=0}^{m-1} e^{-j2πtf/(mn)}. Applied to the
// first k coefficients of a length-n series they produce (up to the
// appendix's 1/√n vs unitary normalisation, a constant √m) the first k
// coefficients of the m-fold time-warped series.
func WarpCoefficients(n, m, k int) ([]complex128, error) {
	if m < 1 {
		return nil, fmt.Errorf("tsdb: warp factor %d < 1", m)
	}
	if k < 0 || k > n {
		return nil, fmt.Errorf("tsdb: k %d outside [0,%d]", k, n)
	}
	a := make([]complex128, k)
	for f := 0; f < k; f++ {
		var sum complex128
		for t := 0; t < m; t++ {
			ang := -2 * math.Pi * float64(t) * float64(f) / float64(m*n)
			sum += cmplx.Exp(complex(0, ang))
		}
		a[f] = sum
	}
	return a, nil
}

// Apply multiplies the coefficient vector element-wise.
func (t *Transform) Apply(X []complex128) ([]complex128, error) {
	if len(X) != len(t.A) {
		return nil, fmt.Errorf("tsdb: transform %s is for length %d, got %d", t.Name, len(t.A), len(X))
	}
	out := make([]complex128, len(X))
	for i := range X {
		out[i] = t.A[i] * X[i]
	}
	return out, nil
}

// ApplySeries applies the transformation to a time-domain series by a
// round trip through the frequency domain.
func (t *Transform) ApplySeries(s []float64) ([]float64, error) {
	X := dft.TransformReal(s)
	Y, err := t.Apply(X)
	if err != nil {
		return nil, err
	}
	back := dft.Inverse(Y)
	out := make([]float64, len(back))
	for i, v := range back {
		out[i] = real(v)
	}
	return out, nil
}

// symmetric reports whether multipliers 1..upto have the conjugate
// symmetry of a real series' spectrum, A[n-f] == conj(A[f]) — exactly, as
// dft.TransformReal produces it. The multipliers of any convolution with
// a real kernel do (MovingAvg, Identity, ReverseT); a hand-built vector
// that misses it by a rounding error merely takes the slower paths.
func (t *Transform) symmetric(upto int) bool {
	n := len(t.A)
	for f := 1; f <= upto; f++ {
		if t.A[n-f] != cmplx.Conj(t.A[f]) {
			return false
		}
	}
	return true
}

// polarAffine renders the transformation as a per-dimension affine map
// of the 2k-dimensional polar feature space: each coefficient's
// magnitude dimension is scaled by |a_f| and its phase dimension is
// rotated by Angle(a_f) — exactly the reduction in the proof of
// Theorem 3 — using multipliers a_1..a_k (a_0 acts on the DC
// coefficient, which is zero for normal forms and not indexed). It fills
// in the magnitude stretches and phase shifts of tf; the rest of tf (unit
// phase stretches, zero magnitude shifts, the circular mask) never
// changes. t == nil is the identity.
func polarAffine(tf *rtree.Affine, t *Transform) {
	for f := 1; 2*f <= len(tf.A); f++ {
		a := complex(1, 0)
		if t != nil {
			a = t.A[f]
		}
		tf.A[2*f-2] = cmplx.Abs(a)
		tf.B[2*f-1] = cmplx.Phase(a)
	}
}

// FeaturePoint maps a series to its 2k-dimensional index point
// [|X_1|, ∠X_1, ..., |X_k|, ∠X_k] where X is the unitary DFT of the
// series' normal form; the mean and standard deviation of the raw
// series are returned alongside.
//
// The companion paper stored mean and std as two additional index
// dimensions (to serve GK95-style shift/scale queries). Similarity
// queries on normal forms never constrain those dimensions, and in an
// R-tree two unconstrained large-scale axes take their share of the
// partitioning (splits, or the slab cuts of a packed tree) and destroy
// pruning, so this implementation keeps mean/std as
// tuple attributes instead — a documented substitution that preserves
// the answer semantics of every reproduced experiment.
func FeaturePoint(s []float64, k int) (point []float64, coeffs []complex128, mean, std float64, err error) {
	if 2*k >= len(s) {
		return nil, nil, 0, 0, fmt.Errorf("tsdb: k=%d too large for series of length %d", k, len(s))
	}
	norm, mean, std, err := NormalForm(s)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	X := dft.TransformReal(norm)
	return polarInto(make([]float64, 2*k), X), X, mean, std, nil
}

// polarInto writes the feature point of a (possibly transformed)
// coefficient vector into p, whose length 2k says how many coefficients
// are indexed.
func polarInto(p []float64, X []complex128) []float64 {
	for f := 1; 2*f <= len(p); f++ {
		p[2*f-2] = cmplx.Abs(X[f])
		p[2*f-1] = cmplx.Phase(X[f])
	}
	return p
}

// searchRect writes into rect the minimum bounding rectangle of the
// r-ball around the query's feature point in the polar coordinate system
// (Figure 7 of the companion paper): magnitudes range over [m-r, m+r]
// (clamped at zero) and phases over α ± asin(r/m), the full circle when
// r >= m. A phase interval near ±π simply runs past it: the index reads
// the phase dimensions as arcs (rtree.Affine.Circular).
func searchRect(rect rtree.Rect, queryFeatures []float64, r float64) {
	for d := 0; d < len(queryFeatures); d += 2 {
		m, alpha := queryFeatures[d], queryFeatures[d+1]
		rect.Min[d], rect.Max[d] = math.Max(0, m-r), m+r
		theta := math.Pi
		if r < m {
			theta = math.Asin(r / m)
		}
		rect.Min[d+1], rect.Max[d+1] = alpha-theta, alpha+theta
	}
}
