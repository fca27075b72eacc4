package dft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

const eps = 1e-9

func randComplex(rng *rand.Rand, n int) []complex128 {
	out := make([]complex128, n)
	for i := range out {
		out[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return out
}

func almostEqual(x, y []complex128) bool { return within(x, y, 1e-8) }

func within(x, y []complex128, tol float64) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if cmplx.Abs(x[i]-y[i]) > tol {
			return false
		}
	}
	return true
}

// TestRoundTrip holds every length to 1e-12. With table twiddles the FFT
// error stays near 3e-15 up to n = 16384, where twiddles accumulated as a
// running product measured 1.7e-12; the O(n²) lengths sit near 1e-13.
func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 4, 8, 64, 128, 1024, 16384, 3, 5, 12, 100} {
		x := randComplex(rng, n)
		got := Inverse(Transform(x))
		if !within(got, x, 1e-12) {
			t.Errorf("n=%d: inverse(transform(x)) != x", n)
		}
	}
}

// TestTransformRealSymmetric pins the contract tsdb's symmetry bound
// rests on: the spectrum of a real series is conjugate-symmetric bit for
// bit, on the FFT and on the O(n²) path, and reusing a buffer changes
// nothing.
func TestTransformRealSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	buf := make([]complex128, 128)
	for _, n := range []int{1, 2, 7, 12, 64, 128} {
		x := make([]float64, n)
		c := make([]complex128, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			c[i] = complex(x[i], 0)
		}
		X := TransformReal(x)
		if !within(X, Transform(c), 1e-13) {
			t.Errorf("n=%d: TransformReal disagrees with Transform", n)
		}
		for f := 1; f < n; f++ {
			if X[n-f] != cmplx.Conj(X[f]) {
				t.Errorf("n=%d: X[%d] = %v is not conj(X[%d]) = %v", n, n-f, X[n-f], f, cmplx.Conj(X[f]))
			}
		}
		if imag(X[0]) != 0 {
			t.Errorf("n=%d: DC term %v is not real", n, X[0])
		}
		into := TransformRealInto(buf, x)
		for f := range X {
			if into[f] != X[f] {
				t.Fatalf("n=%d: TransformRealInto differs at %d", n, f)
			}
		}
	}
	if got := testing.AllocsPerRun(50, func() { TransformRealInto(buf, make([]float64, 0)) }); got != 0 {
		t.Errorf("TransformRealInto on an empty series allocates %v times", got)
	}
	x := make([]float64, 128)
	if got := testing.AllocsPerRun(50, func() { TransformRealInto(buf, x) }); got != 0 {
		t.Errorf("TransformRealInto(n=128) allocates %v times, want 0", got)
	}
}

func TestKnownTransform(t *testing.T) {
	// DFT of an impulse [1,0,0,0] is constant 1/√4 = 0.5.
	X := TransformReal([]float64{1, 0, 0, 0})
	for f, v := range X {
		if cmplx.Abs(v-complex(0.5, 0)) > eps {
			t.Errorf("X[%d] = %v, want 0.5", f, v)
		}
	}
	// DFT of a constant [c,c,c,c] concentrates all energy at f=0:
	// X_0 = c·n/√n = c·√n.
	X = TransformReal([]float64{3, 3, 3, 3})
	if cmplx.Abs(X[0]-complex(6, 0)) > eps {
		t.Errorf("X[0] = %v, want 6", X[0])
	}
	for f := 1; f < 4; f++ {
		if cmplx.Abs(X[f]) > eps {
			t.Errorf("X[%d] = %v, want 0", f, X[f])
		}
	}
}

func TestFFTMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{2, 4, 8, 16, 64, 256} {
		x := randComplex(rng, n)
		fast := Transform(x)
		slow := make([]complex128, n)
		naive(slow, x, false)
		scale := complex(1/math.Sqrt(float64(n)), 0)
		for i := range slow {
			slow[i] *= scale
		}
		if !within(fast, slow, 1e-12) {
			t.Errorf("n=%d: FFT disagrees with naive DFT", n)
		}
	}
}

func TestParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := []int{4, 8, 16, 128, 4096}[r.Intn(5)]
		x := randComplex(rng, n)
		e := Energy(x)
		return math.Abs(e-Energy(Transform(x))) < 1e-13*e
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDistancePreserved(t *testing.T) {
	// Equation 8: D(x,y) == D(X,Y).
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 30; trial++ {
		n := 64
		x := randComplex(rng, n)
		y := randComplex(rng, n)
		dt, err := Dist(x, y)
		if err != nil {
			t.Fatal(err)
		}
		df, err := Dist(Transform(x), Transform(y))
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(dt-df) > 1e-13 {
			t.Fatalf("time dist %g != freq dist %g", dt, df)
		}
	}
}

func TestLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 32
	x := randComplex(rng, n)
	y := randComplex(rng, n)
	a, b := complex(2.5, -1), complex(-0.5, 3)
	// a·x + b·y transform == a·X + b·Y.
	mix := make([]complex128, n)
	for i := range mix {
		mix[i] = a*x[i] + b*y[i]
	}
	left := Transform(mix)
	X, Y := Transform(x), Transform(y)
	right := make([]complex128, n)
	for i := range right {
		right[i] = a*X[i] + b*Y[i]
	}
	if !almostEqual(left, right) {
		t.Error("linearity violated")
	}
}

func TestConvolutionMultiplication(t *testing.T) {
	// Equation 6: conv(x,y) in time == X*Y (element-wise) in frequency,
	// with the unitary √n factor.
	rng := rand.New(rand.NewSource(6))
	for _, n := range []int{4, 8, 16, 15} { // include non-power-of-two
		x := randComplex(rng, n)
		y := randComplex(rng, n)
		direct, err := Convolve(x, y)
		if err != nil {
			t.Fatal(err)
		}
		viafft, err := ConvolveFFT(x, y)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(direct, viafft) {
			t.Errorf("n=%d: FFT convolution disagrees with direct", n)
		}
	}
}

func TestConvolveCommutative(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 16
	x := randComplex(rng, n)
	y := randComplex(rng, n)
	xy, _ := Convolve(x, y)
	yx, _ := Convolve(y, x)
	if !almostEqual(xy, yx) {
		t.Error("circular convolution not commutative")
	}
}

func TestLengthMismatches(t *testing.T) {
	a := make([]complex128, 4)
	b := make([]complex128, 5)
	if _, err := Dist(a, b); err == nil {
		t.Error("Dist accepted length mismatch")
	}
	if _, err := Convolve(a, b); err == nil {
		t.Error("Convolve accepted length mismatch")
	}
	if _, err := ConvolveFFT(a, b); err == nil {
		t.Error("ConvolveFFT accepted length mismatch")
	}
	if _, err := Mul(a, b); err == nil {
		t.Error("Mul accepted length mismatch")
	}
	if _, err := DistReal([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("DistReal accepted length mismatch")
	}
}

func TestEnergyReal(t *testing.T) {
	if got := EnergyReal([]float64{3, 4}); got != 25 {
		t.Errorf("EnergyReal = %g, want 25", got)
	}
}

func TestDistReal(t *testing.T) {
	d, err := DistReal([]float64{0, 0}, []float64{3, 4})
	if err != nil || d != 5 {
		t.Errorf("DistReal = %g, %v; want 5", d, err)
	}
}

func TestEnergyConcentration(t *testing.T) {
	// Random-walk series concentrate energy in the first coefficients —
	// the property that makes the k-index effective. After removing the
	// mean, the first few non-DC coefficients should hold most energy.
	rng := rand.New(rand.NewSource(8))
	n := 128
	walk := make([]float64, n)
	walk[0] = rng.Float64()*79 + 20
	for i := 1; i < n; i++ {
		walk[i] = walk[i-1] + rng.Float64()*8 - 4
	}
	mean := 0.0
	for _, v := range walk {
		mean += v
	}
	mean /= float64(n)
	for i := range walk {
		walk[i] -= mean
	}
	X := TransformReal(walk)
	total := Energy(X)
	// |X_f|² is symmetric: take f=1..4 and their mirrors.
	var head float64
	for _, f := range []int{1, 2, 3, 4, n - 4, n - 3, n - 2, n - 1} {
		head += real(X[f])*real(X[f]) + imag(X[f])*imag(X[f])
	}
	if head < 0.5*total {
		t.Errorf("first coefficients hold only %.1f%% of energy", 100*head/total)
	}
}

func TestMul(t *testing.T) {
	x := []complex128{1, 2i}
	y := []complex128{3, 4}
	got, err := Mul(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 3 || got[1] != 8i {
		t.Errorf("Mul = %v", got)
	}
}
