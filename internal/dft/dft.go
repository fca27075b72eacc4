// Package dft implements the discrete Fourier transform substrate used
// by the time-series instantiation of the framework: a radix-2
// iterative FFT with a naive O(n²) DFT fallback for non-power-of-two
// lengths, the inverse transform, circular convolution, and the energy
// and distance identities (Parseval) that make frequency-domain
// indexing sound.
//
// The normalisation follows the companion implementation paper (and
// [AFS93]): both the forward and inverse transforms carry 1/√n, so the
// transform is unitary and Euclidean distances are preserved exactly.
package dft

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"sync/atomic"
)

// Transform returns the DFT of x with unitary normalisation:
//
//	X_f = (1/√n) Σ_t x_t e^{-j2πtf/n}.
//
// The input is not modified.
func Transform(x []complex128) []complex128 {
	return unitary(make([]complex128, len(x)), x, false)
}

// Inverse returns the inverse DFT with the matching normalisation:
//
//	x_t = (1/√n) Σ_f X_f e^{+j2πtf/n}.
func Inverse(X []complex128) []complex128 {
	return unitary(make([]complex128, len(X)), X, true)
}

// TransformReal transforms a real series. The spectrum of a real series
// is conjugate-symmetric, X[n-f] = conj(X[f]); the result satisfies that
// exactly (the upper half is the mirror of the computed lower half, DC
// and Nyquist are real), so callers may test the symmetry with ==.
func TransformReal(x []float64) []complex128 {
	return TransformRealInto(make([]complex128, len(x)), x)
}

// TransformRealInto is TransformReal writing into dst, which must hold
// at least len(x) elements; a caller on a hot path reuses one buffer.
func TransformRealInto(dst []complex128, x []float64) []complex128 {
	n := len(x)
	dst = dst[:n]
	in := dst
	if n&(n-1) != 0 {
		in = make([]complex128, n) // the O(n²) fallback cannot run in place
	}
	for i, v := range x {
		in[i] = complex(v, 0)
	}
	unitary(dst, in, false)
	for f := 1; 2*f < n; f++ {
		dst[n-f] = cmplx.Conj(dst[f])
	}
	if n > 0 {
		dst[0] = complex(real(dst[0]), 0)
		if n%2 == 0 {
			dst[n/2] = complex(real(dst[n/2]), 0)
		}
	}
	return dst
}

// unitary writes the forward or inverse unitary transform of x into out
// (len(out) == len(x)). out may be x itself when the length is a power
// of two.
func unitary(out, x []complex128, inverse bool) []complex128 {
	n := len(x)
	if n&(n-1) == 0 {
		copy(out, x)
		fft(out, inverse)
	} else {
		naive(out, x, inverse)
	}
	scale := 1 / math.Sqrt(float64(n))
	for i, v := range out {
		out[i] = complex(real(v)*scale, imag(v)*scale)
	}
	return out
}

// twiddleTab[log2 n] holds e^{-j2πj/n} for j < n/2, each entry from its
// own Sincos call, so the rounding error of a twiddle does not grow with
// its position the way a running product's does. A table is built on
// first use of its length and never changes; two goroutines racing to
// build one store identical contents.
var twiddleTab [bits.UintSize]atomic.Pointer[[]complex128]

func twiddles(n int) []complex128 {
	slot := &twiddleTab[bits.TrailingZeros(uint(n))]
	if w := slot.Load(); w != nil {
		return *w
	}
	w := make([]complex128, n/2)
	for j := range w {
		s, c := math.Sincos(-2 * math.Pi * float64(j) / float64(n))
		w[j] = complex(c, s)
	}
	slot.Store(&w)
	return w
}

// fft runs an in-place iterative radix-2 Cooley–Tukey transform
// (without normalisation) on a power-of-two length. The inverse is the
// conjugate of the forward transform of the conjugate.
func fft(a []complex128, inverse bool) {
	n := len(a)
	if n < 2 {
		return
	}
	if inverse {
		conjugate(a)
		defer conjugate(a)
	}
	// Bit reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j |= bit
		if i < j {
			a[i], a[j] = a[j], a[i]
		}
	}
	w := twiddles(n)
	for half := 1; half < n; half <<= 1 {
		step := n / (2 * half)
		for i := 0; i < n; i += 2 * half {
			lo, hi := a[i:i+half], a[i+half:i+2*half]
			for j := range lo {
				u, v := lo[j], hi[j]*w[j*step]
				lo[j], hi[j] = u+v, u-v
			}
		}
	}
}

func conjugate(a []complex128) {
	for i, v := range a {
		a[i] = cmplx.Conj(v)
	}
}

// naive is the O(n²) fallback for non-power-of-two lengths; out must
// not alias x.
func naive(out, x []complex128, inverse bool) {
	n := len(x)
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for f := 0; f < n; f++ {
		var sum complex128
		for t := 0; t < n; t++ {
			ang := sign * 2 * math.Pi * float64(t) * float64(f) / float64(n)
			sum += x[t] * cmplx.Exp(complex(0, ang))
		}
		out[f] = sum
	}
}

// Energy returns Σ|x_t|² (Equation 3 of the companion paper).
func Energy(x []complex128) float64 {
	var e float64
	for _, v := range x {
		e += real(v)*real(v) + imag(v)*imag(v)
	}
	return e
}

// EnergyReal is Energy for real series.
func EnergyReal(x []float64) float64 {
	var e float64
	for _, v := range x {
		e += v * v
	}
	return e
}

// Dist returns the Euclidean distance between two complex vectors. By
// Parseval's relation it is identical in the time and frequency domains.
func Dist(x, y []complex128) (float64, error) {
	if len(x) != len(y) {
		return 0, fmt.Errorf("dft: length mismatch %d vs %d", len(x), len(y))
	}
	var s float64
	for i := range x {
		d := x[i] - y[i]
		s += real(d)*real(d) + imag(d)*imag(d)
	}
	return math.Sqrt(s), nil
}

// DistReal returns the Euclidean distance between two real series.
func DistReal(x, y []float64) (float64, error) {
	if len(x) != len(y) {
		return 0, fmt.Errorf("dft: length mismatch %d vs %d", len(x), len(y))
	}
	var s float64
	for i := range x {
		d := x[i] - y[i]
		s += d * d
	}
	return math.Sqrt(s), nil
}

// Convolve returns the circular convolution of x and y
// (Equation 4 of the companion paper), computed directly in O(n²).
func Convolve(x, y []complex128) ([]complex128, error) {
	if len(x) != len(y) {
		return nil, fmt.Errorf("dft: length mismatch %d vs %d", len(x), len(y))
	}
	n := len(x)
	out := make([]complex128, n)
	for i := 0; i < n; i++ {
		var sum complex128
		for k := 0; k < n; k++ {
			j := i - k
			if j < 0 {
				j += n
			}
			sum += x[k] * y[j]
		}
		out[i] = sum
	}
	return out, nil
}

// ConvolveFFT returns the circular convolution via the
// convolution-multiplication property conv(x,y) ⇔ √n · X*Y (the √n
// restores the unitary normalisation).
func ConvolveFFT(x, y []complex128) ([]complex128, error) {
	if len(x) != len(y) {
		return nil, fmt.Errorf("dft: length mismatch %d vs %d", len(x), len(y))
	}
	n := len(x)
	if n == 0 {
		return nil, nil
	}
	X := Transform(x)
	Y := Transform(y)
	Z := make([]complex128, n)
	scale := complex(math.Sqrt(float64(n)), 0)
	for i := range Z {
		Z[i] = X[i] * Y[i] * scale
	}
	return Inverse(Z), nil
}

// Mul returns the element-wise product of two equal-length vectors.
func Mul(x, y []complex128) ([]complex128, error) {
	if len(x) != len(y) {
		return nil, fmt.Errorf("dft: length mismatch %d vs %d", len(x), len(y))
	}
	out := make([]complex128, len(x))
	for i := range x {
		out[i] = x[i] * y[i]
	}
	return out, nil
}
