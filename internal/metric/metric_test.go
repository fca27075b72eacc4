package metric

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

func randVec(rng *rand.Rand, dim int) Vector {
	v := make(Vector, dim)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	return v
}

// naiveL2 is an independent scalar reference (different accumulation
// order is fine: the tests below compare semantics, the parity tests
// compare the shared-core paths against each other bit for bit).
func naiveL2(a, b Vector) float64 {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	var s float64
	for i := 0; i < n; i++ {
		var x, y float64
		if i < len(a) {
			x = float64(a[i])
		}
		if i < len(b) {
			y = float64(b[i])
		}
		s += (x - y) * (x - y)
	}
	return math.Sqrt(s)
}

func TestL2Semantics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dim := range []int{1, 2, 3, 4, 5, 7, 8, 16, 63, 64, 65, 384} {
		for trial := 0; trial < 20; trial++ {
			a, b := randVec(rng, dim), randVec(rng, dim)
			got := L2{}.Dist(a, b)
			want := naiveL2(a, b)
			if math.Abs(got-want) > 1e-9*(1+want) {
				t.Fatalf("dim %d: L2=%v want %v", dim, got, want)
			}
			if d := (L2{}).Dist(a, a); d != 0 {
				t.Fatalf("L2(a,a) = %v, want 0", d)
			}
			if d1, d2 := (L2{}).Dist(a, b), (L2{}).Dist(b, a); d1 != d2 {
				t.Fatalf("L2 asymmetric: %v vs %v", d1, d2)
			}
		}
	}
}

func TestL2MixedDims(t *testing.T) {
	a := Vector{3, 4}
	b := Vector{3, 4, 5, 12} // tail {5,12} against origin: 13
	got := L2{}.Dist(a, b)
	if got != 13 {
		t.Fatalf("zero-padded L2 = %v, want 13", got)
	}
	if d := (L2{}).Dist(b, a); d != got {
		t.Fatalf("mixed-dim symmetry broken: %v vs %v", d, got)
	}
}

// TestL2WithinKernelParity pins the determinism contract: Within must
// return a distance bitwise-identical to Dist whenever the candidate
// is within, and DistBatch must be bitwise-identical to per-pair Dist.
func TestL2WithinKernelParity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, dim := range []int{2, 8, 64, 384} {
		q := randVec(rng, dim)
		cands := make([]Vector, 200)
		for i := range cands {
			cands[i] = randVec(rng, dim)
		}
		cands[17] = nil // row without a vector
		out := make([]float64, len(cands))
		L2{}.DistBatch(q, cands, out)
		for i, c := range cands {
			if c == nil {
				if !math.IsInf(out[i], 1) {
					t.Fatalf("nil candidate dist = %v, want +Inf", out[i])
				}
				continue
			}
			d := L2{}.Dist(q, c)
			if out[i] != d {
				t.Fatalf("dim %d cand %d: DistBatch %v != Dist %v", dim, i, out[i], d)
			}
			for _, r := range []float64{d * 0.5, d, d * 1.5, 0} {
				wd, ok := L2{}.Within(q, c, r)
				if ok != (d <= r) {
					t.Fatalf("Within verdict %v, want %v (d=%v r=%v)", ok, d <= r, d, r)
				}
				if ok && wd != d {
					t.Fatalf("Within dist %v != Dist %v", wd, d)
				}
			}
		}
	}
}

func TestL2Triangle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 500; trial++ {
		a, b, c := randVec(rng, 8), randVec(rng, 8), randVec(rng, 8)
		ab, bc, ac := L2{}.Dist(a, b), L2{}.Dist(b, c), L2{}.Dist(a, c)
		if ac > ab+bc+1e-9 {
			t.Fatalf("triangle inequality violated: %v > %v + %v", ac, ab, bc)
		}
	}
	if (L2{}).Pruning() != Distance(L2{}) || (L2{}).Reach(0.75) != 0.75 {
		t.Fatal("L2 must prune by itself with the identity reach")
	}
}

// edgeVecs is a pool of vectors that stresses the chord's rounding and
// its conventions: random ones, their opposites, shorter prefixes (mixed
// dimensions), scaled near duplicates (the same direction with one
// component a float32 ulp off) and zero vectors of two lengths.
func edgeVecs(rng *rand.Rand) []Vector {
	var out []Vector
	for i := 0; i < 4; i++ {
		v := randVec(rng, 8)
		neg := v.Clone()
		for j := range v {
			neg[j] = -v[j]
		}
		out = append(out, v, neg, v[:5])
		for k := 2; k <= 5; k++ {
			w := v.Clone()
			for j := range w {
				w[j] *= float32(k)
			}
			j := rng.Intn(len(w))
			w[j] = math.Nextafter32(w[j], float32(math.Inf(1)))
			out = append(out, w)
		}
	}
	return append(out, make(Vector, 8), make(Vector, 5))
}

// TestChordTriangle: the distance the vector view prunes cosine by
// keeps the pruning contract of metric.Pruner on every triple of the
// pool: |t(a, b) - t(b, c)| <= Reach(d(a, c)), the test a walk makes.
// Without chordSlack the near duplicates break it: their cosine
// distances round to 0 or near it while their chords differ by ~3e-8.
func TestChordTriangle(t *testing.T) {
	c := Cosine{}
	ch := c.Pruning()
	if z := ch.Dist(make(Vector, 3), Vector{1, 2}); z != math.Sqrt2 {
		t.Fatalf("chord(0, x) = %v, want √2", z)
	}
	if z := ch.Dist(make(Vector, 3), make(Vector, 2)); z != 0 {
		t.Fatalf("chord(0, 0) = %v, want 0", z)
	}
	vs := edgeVecs(rand.New(rand.NewSource(5)))
	for _, a := range vs {
		for _, b := range vs {
			ab := ch.Dist(a, b)
			for _, cv := range vs {
				bc := ch.Dist(b, cv)
				reach := c.Reach(c.Dist(a, cv)) + 1e-12*(ab+bc)
				if math.Abs(ab-bc) > reach {
					t.Fatalf("chord prunes a match: |%v - %v| > Reach(%v) for %v %v %v", ab, bc, c.Dist(a, cv), a, b, cv)
				}
			}
		}
	}
}

// TestDistSymmetric: Dist is bitwise symmetric for both metrics, the
// contract that lets a vector view measure d(probe, row) whichever side
// of a join probes.
func TestDistSymmetric(t *testing.T) {
	vs := edgeVecs(rand.New(rand.NewSource(6)))
	for _, m := range []Distance{L2{}, Cosine{}} {
		for _, a := range vs {
			for _, b := range vs {
				if x, y := m.Dist(a, b), m.Dist(b, a); math.Float64bits(x) != math.Float64bits(y) {
					t.Fatalf("%s: Dist(a, b) = %v but Dist(b, a) = %v for %v, %v", m.Name(), x, y, a, b)
				}
			}
		}
	}
}

func TestCosineSemantics(t *testing.T) {
	cases := []struct {
		a, b Vector
		want float64
	}{
		{Vector{1, 0}, Vector{1, 0}, 0},
		{Vector{1, 0}, Vector{2, 0}, 0},
		{Vector{1, 0}, Vector{0, 1}, 1},
		{Vector{1, 0}, Vector{-1, 0}, 2},
		{Vector{0, 0}, Vector{0, 0}, 0},
		{Vector{0, 0}, Vector{1, 2}, 1},
	}
	for _, c := range cases {
		got := Cosine{}.Dist(c.a, c.b)
		if math.Abs(got-c.want) > 1e-9 {
			t.Fatalf("cosine(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 100; trial++ {
		a, b := randVec(rng, 16), randVec(rng, 16)
		d1, d2 := Cosine{}.Dist(a, b), Cosine{}.Dist(b, a)
		if d1 != d2 {
			t.Fatalf("cosine asymmetric: %v vs %v", d1, d2)
		}
		if d1 < 0 || d1 > 2 {
			t.Fatalf("cosine out of range: %v", d1)
		}
	}
}

func TestCosineBatchParity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	q := randVec(rng, 64)
	cands := make([]Vector, 100)
	for i := range cands {
		cands[i] = randVec(rng, 64)
	}
	cands[3] = nil
	out := make([]float64, len(cands))
	Cosine{}.DistBatch(q, cands, out)
	for i, c := range cands {
		if c == nil {
			if !math.IsInf(out[i], 1) {
				t.Fatalf("nil candidate dist = %v, want +Inf", out[i])
			}
			continue
		}
		if d := (Cosine{}).Dist(q, c); out[i] != d {
			t.Fatalf("cand %d: DistBatch %v != Dist %v", i, out[i], d)
		}
	}
	// The generic helpers must hit the same paths.
	var out2 [100]float64
	DistBatch(Cosine{}, q, cands, out2[:])
	for i := range out {
		if out[i] != out2[i] {
			t.Fatalf("generic DistBatch diverged at %d", i)
		}
	}
}

func TestParseFormatRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 200; trial++ {
		v := randVec(rng, 1+rng.Intn(40))
		got, err := Parse(Format(v))
		if err != nil {
			t.Fatalf("Parse(Format(v)): %v", err)
		}
		if len(got) != len(v) {
			t.Fatalf("round-trip length %d != %d", len(got), len(v))
		}
		for i := range v {
			if got[i] != v[i] {
				t.Fatalf("round-trip drift at %d: %v != %v", i, got[i], v[i])
			}
		}
	}
	if s := Format(Vector{0.1, -2, 3.5}); s != "[0.1,-2,3.5]" {
		t.Fatalf("canonical format = %q", s)
	}
}

func TestParseRejects(t *testing.T) {
	for _, bad := range []string{"", "[]", "[ ]", "1,2", "[1;2]", "[1,NaN]", "[1,+Inf]", "[1,", "[1,2", "[1,,2]"} {
		if v, err := Parse(bad); err == nil {
			t.Fatalf("Parse(%q) = %v, want error", bad, v)
		}
	}
	// Whitespace inside a literal is tolerated.
	v, err := Parse(" [ 1 , 2.5 ] ")
	if err != nil || len(v) != 2 || v[0] != 1 || v[1] != 2.5 {
		t.Fatalf("Parse with spaces = %v, %v", v, err)
	}
}

// splitParse is the Split-based Parse that the one-pass Parse
// replaced, kept as FuzzVectorLiteral's oracle.
func splitParse(s string) (Vector, error) {
	t := strings.TrimSpace(s)
	if len(t) < 2 || t[0] != '[' || t[len(t)-1] != ']' {
		return nil, fmt.Errorf("metric: vector literal must be bracketed: %q", s)
	}
	body := strings.TrimSpace(t[1 : len(t)-1])
	if body == "" {
		return nil, fmt.Errorf("metric: empty vector literal")
	}
	parts := strings.Split(body, ",")
	out := make(Vector, 0, len(parts))
	for _, p := range parts {
		f, err := strconv.ParseFloat(strings.TrimSpace(p), 32)
		if err != nil {
			return nil, fmt.Errorf("metric: bad vector component %q: %v", strings.TrimSpace(p), err)
		}
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return nil, fmt.Errorf("metric: vector components must be finite, got %q", strings.TrimSpace(p))
		}
		out = append(out, float32(f))
	}
	return out, nil
}

// sameBits reports whether a and b hold the same float32 bit patterns.
func sameBits(a, b Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// FuzzVectorLiteral: Parse accepts exactly the literals the Split-based
// parser accepts, with the same error text and the same bits, and every
// vector it returns survives Format and Parse bit for bit.
func FuzzVectorLiteral(f *testing.F) {
	for _, s := range []string{
		"[1,2,3]", " [ 1 , 2.5 ] ", "[0.1,-2,3.5]", "[-0]", "[1e-45,3.4028235e38]", "[1e39]",
		"[0x1p-2, 1_0]", "[inf]", "[1,NaN]", "[]", "[ ]", "[1,,2]", "[1,", "1,2", "[1;2]",
		"[\u00a01\u2003,2]", "[\t1\n]", "[,]", "[+.5e+1 , -.0]",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, err := Parse(s)
		want, werr := splitParse(s)
		if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
			t.Fatalf("Parse(%q) error %v, the Split-based parser's %v", s, err, werr)
		}
		if err != nil {
			return
		}
		if !sameBits(got, want) || cap(got) != cap(want) {
			t.Fatalf("Parse(%q) = %v (cap %d), the Split-based parser's %v (cap %d)", s, got, cap(got), want, cap(want))
		}
		if back, err := Parse(Format(got)); err != nil || !sameBits(back, got) {
			t.Fatalf("Parse(Format(%v)) = %v, %v", got, back, err)
		}
	})
}

func TestRegistry(t *testing.T) {
	for _, name := range []string{"l2", "cosine"} {
		if _, ok := Lookup(name); !ok {
			t.Fatalf("built-in metric %q not registered", name)
		}
	}
	names := Names()
	if len(names) < 2 || strings.Join(names[:2], ",") > strings.Join(names[1:], ",") && false {
		t.Fatalf("Names not sorted: %v", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names not sorted: %v", names)
		}
	}
	if err := Register(nil); err == nil {
		t.Fatal("Register(nil) must error")
	}
	if err := Register(L2{}); err != nil {
		t.Fatalf("re-register: %v", err)
	}
	if m, ok := Lookup("l2"); !ok || m != (L2{}) {
		t.Fatalf("re-registered l2 resolves to %v, %v", m, ok)
	}
}

func TestValid(t *testing.T) {
	if !Valid(Vector{1, -2, 0}) || !Valid(nil) {
		t.Fatal("finite vectors must be valid")
	}
	if Valid(Vector{1, float32(math.NaN())}) || Valid(Vector{float32(math.Inf(1))}) {
		t.Fatal("non-finite vectors must be invalid")
	}
}
