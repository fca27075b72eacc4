package tsdb

import (
	"math"
	"math/cmplx"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/dft"
	"repro/internal/stock"
)

// rotated returns s with DFT coefficient f of its normal form turned to
// the given phase (and coefficient n-f to its conjugate, so the result is
// again a real series).
func rotated(t *testing.T, s []float64, f int, phase float64) []float64 {
	t.Helper()
	norm, _, _, err := NormalForm(s)
	if err != nil {
		t.Fatal(err)
	}
	X := dft.TransformReal(norm)
	X[f] = cmplx.Rect(cmplx.Abs(X[f]), phase)
	X[len(X)-f] = cmplx.Conj(X[f])
	out := make([]float64, len(s))
	for i, v := range dft.Inverse(X) {
		out[i] = real(v)
	}
	return out
}

// TestIndexEqualsScanProperty sweeps the k-index against the scan it must
// agree with (Lemma 1): transformations that take the eps/√2 rectangle
// and ones that must not, a multiplier that collapses an indexed
// coefficient, thresholds from below the nearest series to beyond every
// coefficient magnitude (where the phase interval is the whole circle),
// and queries whose indexed phases sit on either side of ±π, where the
// search interval runs across the seam.
func TestIndexEqualsScanProperty(t *testing.T) {
	const n, k = 128, 2
	db := buildDB(t, 21, 500, n, k)
	rng := rand.New(rand.NewSource(22))

	asym := Identity(n) // not the spectrum of any real kernel
	asym.Name = "asymmetric"
	for f := range asym.A {
		asym.A[f] = complex(1+0.3*rng.Float64(), 0.5*rng.NormFloat64())
	}
	late := Identity(n) // symmetric on the indexed coefficients only
	late.Name = "asymmetric-tail"
	late.A[40] = complex(0.5, 0.25)
	zeroed, err := MovingAvg(n, 5)
	if err != nil {
		t.Fatal(err)
	}
	zeroed.Name = "mavg5-zeroed"
	zeroed.A[2], zeroed.A[n-2] = 0, 0

	transforms := []*Transform{nil, Identity(n), ReverseT(n), asym, late, zeroed}
	for _, w := range []int{2, 5, 20, 64} {
		m, err := MovingAvg(n, w)
		if err != nil {
			t.Fatal(err)
		}
		transforms = append(transforms, m)
	}
	for _, tr := range transforms {
		wantNarrow := tr != asym
		wantHalf := tr != asym && tr != late
		if tr != nil && (tr.symmetric(k) != wantNarrow || newVerifier(tr, nil, 1).half != wantHalf) {
			t.Fatalf("%s: symmetric(k)=%v half=%v, want %v %v", tr.Name, tr.symmetric(k),
				newVerifier(tr, nil, 1).half, wantNarrow, wantHalf)
		}
	}

	var queries [][]float64
	for i := 0; i < 6; i++ {
		queries = append(queries, stock.Walk(rng, n))
	}
	seam := 0
	for i := 0; i < 10; i++ { // phases within 0.2 rad of ±π, both sides
		phase := math.Pi - 0.2*rng.Float64()
		if i%2 == 1 {
			phase = -phase
		}
		q := rotated(t, stock.Walk(rng, n), 1+i%k, phase)
		feat, _, _, _, err := FeaturePoint(q, k)
		if err != nil {
			t.Fatal(err)
		}
		if math.Pi-math.Abs(feat[2*(i%k)+1]) < 0.21 {
			seam++
		}
		queries = append(queries, q)
	}
	if seam != 10 {
		t.Fatalf("%d of 10 constructed queries have a phase next to ±π", seam)
	}
	for i := 0; i < 4; i++ { // smoothed stored series: queries with answers under the moving averages
		q, err := MovingAverage(db.raw[37*i], 20)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, q)
	}

	answers, fullCircle := 0, 0
	for qi, q := range queries {
		feat, _, _, _, err := FeaturePoint(q, k)
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range transforms {
			name := "nil"
			if tr != nil {
				name = tr.Name
			}
			for _, eps := range []float64{0, 0.5, 2, 4, 8, 12, 16} {
				if eps/math.Sqrt2 >= feat[0] || eps/math.Sqrt2 >= feat[2] {
					fullCircle++
				}
				idx, ist, err := db.RangeIndex(q, tr, eps)
				if err != nil {
					t.Fatal(err)
				}
				scan, _, err := db.RangeScan(q, tr, eps)
				if err != nil {
					t.Fatal(err)
				}
				if len(idx) != len(scan) {
					t.Fatalf("query %d T=%s eps=%g: index %d answers from %d candidates, scan %d",
						qi, name, eps, len(idx), ist.Candidates, len(scan))
				}
				for i := range idx {
					if idx[i].ID != scan[i].ID || math.Abs(idx[i].Dist-scan[i].Dist) > 1e-9 {
						t.Fatalf("query %d T=%s eps=%g: answer %d differs: %+v vs %+v", qi, name, eps, i, idx[i], scan[i])
					}
				}
				answers += len(idx)
			}
		}
	}
	if answers < 1000 || fullCircle < 100 {
		t.Fatalf("sweep too thin: %d answers, %d full-circle rectangles", answers, fullCircle)
	}
}

// TestAsymmetricMultipliersNeedTheWideRectangle builds the case the
// eps/√2 rectangle would get wrong: a multiplier vector that scales
// coefficient 1 and not its mirror image. Against a stored series used as
// its own query only coefficient 1 differs, by 0.3·|X_1|; with eps just
// above that the series is an answer, yet its indexed coefficient lies
// further than eps/√2 from the query's — the index must have searched eps.
func TestAsymmetricMultipliersNeedTheWideRectangle(t *testing.T) {
	const n = 128
	db := buildDB(t, 23, 300, n, 2)
	tr := Identity(n)
	tr.A[1] = 1.3
	for id := 0; id < 20; id++ {
		X, _ := db.Coeffs(id)
		eps := 0.3 * cmplx.Abs(X[1]) * 1.0001
		got, _, err := db.RangeIndex(db.raw[id], tr, eps)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, m := range got {
			found = found || m.ID == id
		}
		if !found {
			t.Fatalf("series %d at distance %g from its own query was dismissed at eps %g", id, eps/1.0001, eps)
		}
	}
}

// TestHalfSpectrumDistance: summing half the spectrum, mirrored terms
// doubled, is the full sum, for even and odd lengths.
func TestHalfSpectrumDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, n := range []int{8, 9, 64, 101} {
		x := dft.TransformReal(stock.Walk(rng, n))
		q := dft.TransformReal(stock.Walk(rng, n))
		kernel := make([]float64, n)
		for i := range kernel {
			kernel[i] = rng.NormFloat64()
		}
		tr := &Transform{Name: "real-kernel", A: dft.TransformReal(kernel)}
		half := newVerifier(tr, q, math.Inf(1))
		full := half
		full.half = false
		if !half.half {
			t.Fatalf("n=%d: the spectrum of a real kernel was not recognised as symmetric", n)
		}
		dh, _ := half.dist(x)
		df, _ := full.dist(x)
		if math.Abs(dh-df) > 1e-9*df {
			t.Errorf("n=%d: half-spectrum distance %g, full %g", n, dh, df)
		}
	}
}

// TestQueryArgumentsValidated: a transformation built for another series
// length used to index past the multiplier vector (panic) or be applied
// to the wrong coefficients (silently); a NaN or negative threshold used
// to answer nothing. All are errors now, from every entry point.
func TestQueryArgumentsValidated(t *testing.T) {
	db := buildDB(t, 25, 50, 128, 2)
	q := stock.Walk(rand.New(rand.NewSource(26)), 128)
	short, err := MovingAvg(64, 10)
	if err != nil {
		t.Fatal(err)
	}
	long, err := MovingAvg(256, 10)
	if err != nil {
		t.Fatal(err)
	}
	good := Identity(128)
	for name, c := range map[string]struct {
		t   *Transform
		eps float64
	}{
		"short transform": {short, 1},
		"long transform":  {long, 1},
		"NaN eps":         {good, math.NaN()},
		"negative eps":    {good, -1},
		"infinite eps":    {nil, math.Inf(1)},
	} {
		if _, _, err := db.RangeIndex(q, c.t, c.eps); err == nil {
			t.Errorf("RangeIndex accepted %s", name)
		}
		if _, _, err := db.RangeScan(q, c.t, c.eps); err == nil {
			t.Errorf("RangeScan accepted %s", name)
		}
		for _, m := range []JoinMethod{JoinScanFull, JoinScanAbort, JoinIndex, JoinIndexT} {
			if _, _, err := db.SelfJoin(m, c.t, c.eps); err == nil {
				t.Errorf("SelfJoin(%v) accepted %s", m, name)
			}
		}
	}
}

// TestAddAfterBuildIsIndexed: Add drops the index; the next query packs
// a fresh one and finds the new series.
func TestAddAfterBuildIsIndexed(t *testing.T) {
	db := buildDB(t, 27, 200, 64, 2)
	extra := stock.Walks(28, 40, 64)
	if _, _, err := db.RangeIndex(extra[0], nil, 1); err != nil {
		t.Fatal(err)
	}
	for _, s := range extra {
		if _, err := db.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	for i, s := range extra {
		got, _, err := db.RangeIndex(s, nil, 1e-6)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || got[0].ID != 200+i {
			t.Fatalf("series added after Build: exact-match query answered %+v, want id %d", got, 200+i)
		}
	}
}

// TestConcurrentRangeIndex: a built database serves queries from many
// goroutines at once; each draws its own scratch from the pool. Run under
// -race.
func TestConcurrentRangeIndex(t *testing.T) {
	db := buildDB(t, 30, 800, 128, 2)
	mavg, err := MovingAvg(128, 20)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				q, err := MovingAverage(db.raw[(g*97+i*13)%db.Len()], 20)
				if err != nil {
					t.Error(err)
					return
				}
				idx, _, err1 := db.RangeIndex(q, mavg, 2.5)
				scan, _, err2 := db.RangeScan(q, mavg, 2.5)
				if err1 != nil || err2 != nil || len(idx) != len(scan) {
					t.Errorf("goroutine %d: index %d answers (%v), scan %d (%v)", g, len(idx), err1, len(scan), err2)
					return
				}
				for j := range idx {
					if idx[j].ID != scan[j].ID {
						t.Errorf("goroutine %d: answer %d is %d, scan says %d", g, j, idx[j].ID, scan[j].ID)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestRangeIndexConcurrentFirstQueries: the first queries on a database
// whose index is not built yet race to build it; each must answer from
// a complete index, and the build must not race with their reads. Add
// then drops the index between rounds (Add itself is single-writer: no
// query runs during it). Run under -race.
func TestRangeIndexConcurrentFirstQueries(t *testing.T) {
	db, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	walks := stock.Walks(31, 240, 64)
	for round, s := range walks {
		if _, err := db.Add(s); err != nil {
			t.Fatal(err)
		}
		if round < 200 || round%10 != 0 {
			continue
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				if g == 3 {
					if _, _, err := db.SelfJoin(JoinIndexT, nil, 0.5); err != nil {
						t.Errorf("round %d: self-join: %v", round, err)
					}
					return
				}
				q := walks[(round*7+g*53)%db.Len()]
				idx, _, err1 := db.RangeIndex(q, nil, 3)
				scan, _, err2 := db.RangeScan(q, nil, 3)
				if err1 != nil || err2 != nil || len(idx) != len(scan) {
					t.Errorf("round %d, goroutine %d: index %d answers (%v), scan %d (%v)", round, g, len(idx), err1, len(scan), err2)
				}
			}(g)
		}
		close(start)
		wg.Wait()
	}
}
