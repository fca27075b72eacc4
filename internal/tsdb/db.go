package tsdb

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/dft"
	"repro/internal/rtree"
)

// DB is an in-memory time-series database with a k-index: an R-tree,
// packed by Sort-Tile-Recursive, over the 2k-dimensional polar feature
// space. All series must share one length. Queries are safe to run
// concurrently, including the first ones after a load, which build the
// index once between them; Add is single-writer, and no query may run
// during it.
type DB struct {
	k      int
	n      int // series length, fixed by the first Add
	raw    [][]float64
	coeffs [][]complex128 // unitary DFT of each normal form, full length
	feats  [][]float64
	means  []float64
	stds   []float64

	tree    atomic.Pointer[rtree.Tree] // nil until built, and after an Add
	buildMu sync.Mutex                 // serializes builds

	scratch sync.Pool // of *queryScratch, sized for n and k
}

// New returns an empty database indexing the first k non-DC
// coefficients (the companion's experiments use k = 2: the second and
// third DFT terms).
func New(k int) (*DB, error) {
	if k < 1 {
		return nil, fmt.Errorf("tsdb: k must be >= 1, got %d", k)
	}
	return &DB{k: k}, nil
}

// K returns the number of indexed coefficients.
func (db *DB) K() int { return db.k }

// Len returns the number of series.
func (db *DB) Len() int { return len(db.raw) }

// SeriesLen returns the common series length (0 before the first Add).
func (db *DB) SeriesLen() int { return db.n }

// Series returns the raw series with the given id.
func (db *DB) Series(id int) ([]float64, error) {
	if id < 0 || id >= len(db.raw) {
		return nil, fmt.Errorf("tsdb: no series %d", id)
	}
	return db.raw[id], nil
}

// Coeffs returns the stored (normal-form) coefficient vector of a
// series. Callers must not modify it.
func (db *DB) Coeffs(id int) ([]complex128, error) {
	if id < 0 || id >= len(db.coeffs) {
		return nil, fmt.Errorf("tsdb: no series %d", id)
	}
	return db.coeffs[id], nil
}

// Add inserts a series and returns its id. Series must be non-constant
// and of equal length.
func (db *DB) Add(s []float64) (int, error) {
	if db.n == 0 {
		if 2*db.k >= len(s) {
			return 0, fmt.Errorf("tsdb: series length %d too short for k=%d", len(s), db.k)
		}
		db.n = len(s)
	}
	if len(s) != db.n {
		return 0, fmt.Errorf("tsdb: series length %d, want %d", len(s), db.n)
	}
	feat, X, mean, std, err := FeaturePoint(s, db.k)
	if err != nil {
		return 0, err
	}
	cp := make([]float64, len(s))
	copy(cp, s)
	id := len(db.raw)
	db.raw = append(db.raw, cp)
	db.coeffs = append(db.coeffs, X)
	db.feats = append(db.feats, feat)
	db.means = append(db.means, mean)
	db.stds = append(db.stds, std)
	db.tree.Store(nil)
	return id, nil
}

// MeanStd returns the stored mean and standard deviation of a series
// (the companion's first two index dimensions, kept here as tuple
// attributes; see FeaturePoint).
func (db *DB) MeanStd(id int) (mean, std float64, err error) {
	if id < 0 || id >= len(db.means) {
		return 0, 0, fmt.Errorf("tsdb: no series %d", id)
	}
	return db.means[id], db.stds[id], nil
}

// Build packs the feature points into the k-index. Queries build it
// lazily if needed; bulk callers invoke it once to keep timings honest.
func (db *DB) Build() error {
	db.buildMu.Lock()
	defer db.buildMu.Unlock()
	_, err := db.build()
	return err
}

// build packs the index and publishes it; the caller holds buildMu.
func (db *DB) build() (*rtree.Tree, error) {
	entries := make([]rtree.Entry, len(db.feats))
	for id, f := range db.feats {
		entries[id] = rtree.Entry{ID: id, Point: f}
	}
	tree, err := rtree.Build(2*db.k, entries)
	if err != nil {
		return nil, err
	}
	db.tree.Store(tree)
	return tree, nil
}

// index returns the k-index, building it if it has not been built since
// the last Add. Concurrent first queries wait for one build.
func (db *DB) index() (*rtree.Tree, error) {
	if tree := db.tree.Load(); tree != nil {
		return tree, nil
	}
	db.buildMu.Lock()
	defer db.buildMu.Unlock()
	if tree := db.tree.Load(); tree != nil {
		return tree, nil
	}
	return db.build()
}

// Match is one range-query answer.
type Match struct {
	ID   int
	Dist float64
}

// Stats reports the work a query did.
type Stats struct {
	NodeAccesses int
	Candidates   int // entries that reached exact verification
}

// checkArgs validates what every query entry point takes: a transformation
// for this database's series length, and a usable threshold.
func (db *DB) checkArgs(t *Transform, eps float64) error {
	if t != nil && len(t.A) != db.n {
		return fmt.Errorf("tsdb: transform %s is for length %d, series have length %d", t.Name, len(t.A), db.n)
	}
	if math.IsNaN(eps) || math.IsInf(eps, 0) || eps < 0 {
		return fmt.Errorf("tsdb: eps must be finite and non-negative, got %g", eps)
	}
	return nil
}

// queryScratch is what one query computes on the way to its answers: the
// query's normal form, spectrum and feature point, the search rectangle,
// the transformation as the index sees it, and the index's own search
// buffers. DB pools them, so a query allocates little beyond its result.
type queryScratch struct {
	norm []float64
	X    []complex128
	feat []float64
	rect rtree.Rect
	tf   rtree.Affine
	srch rtree.Searcher
}

func (db *DB) getScratch() *queryScratch {
	// n is fixed by the first Add; a scratch pooled before that (by a
	// query that failed on the empty database) has the wrong size.
	if s, ok := db.scratch.Get().(*queryScratch); ok && len(s.norm) == db.n {
		return s
	}
	dim := 2 * db.k
	s := &queryScratch{
		norm: make([]float64, db.n),
		X:    make([]complex128, db.n),
		feat: make([]float64, dim),
		rect: rtree.Rect{Min: make([]float64, dim), Max: make([]float64, dim)},
		tf:   rtree.Affine{A: make([]float64, dim), B: make([]float64, dim), Circular: make([]bool, dim)},
	}
	for d := 1; d < dim; d += 2 {
		s.tf.Circular[d] = true // the phase dimensions
		s.tf.A[d] = 1
	}
	return s
}

// features fills in the query's spectrum and feature point.
func (s *queryScratch) features(q []float64) error {
	if len(q) != len(s.norm) {
		return fmt.Errorf("tsdb: query length %d, want %d", len(q), len(s.norm))
	}
	if _, _, err := normalInto(s.norm, q); err != nil {
		return err
	}
	dft.TransformRealInto(s.X, s.norm)
	polarInto(s.feat, s.X)
	return nil
}

// verifier computes D(T(X), Q) for one query against many series.
//
// Series and queries are real, so their spectra are conjugate-symmetric:
// X[n-f] = conj(X[f]). When the multipliers are too (the DFT of any real
// kernel is), term n-f of the distance is the conjugate of term f, and
// the sum over f <= n/2, with the mirrored terms doubled, is the whole
// distance at half the work. half records that; the caller decides it
// once, not per series.
type verifier struct {
	a     []complex128 // the multipliers; nil for the identity
	q     []complex128
	limit float64 // eps²; +Inf never aborts
	half  bool
}

func newVerifier(t *Transform, q []complex128, eps float64) verifier {
	v := verifier{q: q, limit: eps * eps, half: true}
	if t != nil {
		v.a = t.A
		v.half = t.symmetric((len(t.A) - 1) / 2)
	}
	return v
}

// dist returns D(T(x), Q), aborting early (ok=false) once the partial
// sum exceeds the limit. This is both the verification step of the index
// path and the inner loop of the sequential-scan baseline.
func (v *verifier) dist(x []complex128) (float64, bool) {
	n := len(x)
	end := n
	if v.half {
		end = n/2 + 1
	}
	q := v.q[:end]
	var sum float64
	for f, c := range x[:end] {
		if v.a != nil {
			c *= v.a[f]
		}
		d := c - q[f]
		term := real(d)*real(d) + imag(d)*imag(d)
		if v.half && f != 0 && 2*f != n {
			term += term // DC and Nyquist have no mirror image
		}
		sum += term
		if sum > v.limit {
			return 0, false
		}
	}
	return math.Sqrt(sum), true
}

// rectSlack widens the search rectangle by a part in 10⁹: the distance
// sum, the polar conversion and asin all round, and a series whose
// distance is eps to the last digit must not be dismissed for it.
const rectSlack = 1e-9

// candidates is the filter step: the ids, in index order, of every series
// whose first k transformed coefficients each lie within r of the probe's
// (feat is the probe's feature point), found by searching the k-index
// with the transformation pulled back onto the rectangle (Algorithm 2).
//
// r comes from the conjugate symmetry again. When multipliers 1..k have
// it, D² >= Σ_{f<=k} |a_f X_f − q_f|² + the same sum over the mirrored
// terms n−k..n−1 = 2·Σ_{f<=k} |a_f X_f − q_f|², so D <= eps puts every
// indexed coefficient within eps/√2. Otherwise only D² >= Σ_{f<=k} holds
// and r is eps.
func (db *DB) candidates(tree *rtree.Tree, s *queryScratch, feat []float64, t *Transform, eps float64) ([]int, int, error) {
	r := eps
	if t == nil || t.symmetric(db.k) {
		r = eps / math.Sqrt2
	}
	searchRect(s.rect, feat, r*(1+rectSlack))
	polarAffine(&s.tf, t)
	ids, st, err := s.srch.Search(tree, s.rect, &s.tf)
	return ids, st.NodeAccesses, err
}

// RangeIndex answers the framework's range query with the k-index:
// all series x with D(T(X), Q) <= eps, where X is the normal-form
// coefficient vector of x and Q that of the query series. T == nil
// means identity. Candidates from the index are verified exactly, so the
// answer set equals the sequential scan's (Lemma 1: no false dismissals).
func (db *DB) RangeIndex(q []float64, t *Transform, eps float64) ([]Match, Stats, error) {
	var st Stats
	if err := db.checkArgs(t, eps); err != nil {
		return nil, st, err
	}
	tree, err := db.index()
	if err != nil {
		return nil, st, err
	}
	s := db.getScratch()
	defer db.scratch.Put(s)
	if err := s.features(q); err != nil {
		return nil, st, err
	}
	ids, nodes, err := db.candidates(tree, s, s.feat, t, eps)
	if err != nil {
		return nil, st, err
	}
	st.NodeAccesses, st.Candidates = nodes, len(ids)
	v := newVerifier(t, s.X, eps)
	var out []Match
	for _, id := range ids {
		if d, ok := v.dist(db.coeffs[id]); ok {
			out = append(out, Match{ID: id, Dist: d})
		}
	}
	slices.SortFunc(out, func(a, b Match) int { return cmp.Compare(a.ID, b.ID) }) // as the scan answers
	return out, st, nil
}

// RangeScan is the sequential-scan baseline over the frequency-domain
// relation, with the companion's early-abort optimisation (stop the
// distance computation as soon as it exceeds eps).
func (db *DB) RangeScan(q []float64, t *Transform, eps float64) ([]Match, Stats, error) {
	var st Stats
	if err := db.checkArgs(t, eps); err != nil {
		return nil, st, err
	}
	s := db.getScratch()
	defer db.scratch.Put(s)
	if err := s.features(q); err != nil {
		return nil, st, err
	}
	v := newVerifier(t, s.X, eps)
	var out []Match
	for id, x := range db.coeffs {
		st.Candidates++
		if d, ok := v.dist(x); ok {
			out = append(out, Match{ID: id, Dist: d})
		}
	}
	return out, st, nil
}

// JoinMethod selects one of the four self-join strategies of the
// companion's Table 1.
type JoinMethod int

// Join methods, in the order of Table 1.
const (
	JoinScanFull  JoinMethod = iota // a: scan, full distance computation
	JoinScanAbort                   // b: scan, early-abort distance
	JoinIndex                       // c: index probes, no transformation
	JoinIndexT                      // d: index probes with transformation
)

// String names the method as in Table 1.
func (m JoinMethod) String() string {
	switch m {
	case JoinScanFull:
		return "a (scan, full distance)"
	case JoinScanAbort:
		return "b (scan, early abort)"
	case JoinIndex:
		return "c (index, no transform)"
	case JoinIndexT:
		return "d (index, transformed)"
	default:
		return fmt.Sprintf("JoinMethod(%d)", int(m))
	}
}

// Pair is one join answer. Scan methods report each unordered pair
// once (i < j); index methods report ordered pairs, i.e. every
// unordered pair twice — matching how Table 1 counts answers.
type Pair struct {
	I, J int
	Dist float64
}

// SelfJoin runs the spatial self-join "all pairs with
// D(T(X), T(Y)) <= eps" with the chosen method. For JoinIndex the
// transformation is skipped entirely, as in the companion's method c
// (which is why its answer set differs).
func (db *DB) SelfJoin(method JoinMethod, t *Transform, eps float64) ([]Pair, Stats, error) {
	var st Stats
	if err := db.checkArgs(t, eps); err != nil {
		return nil, st, err
	}
	switch method {
	case JoinScanFull, JoinScanAbort:
		v := newVerifier(t, nil, eps)
		if method == JoinScanFull {
			v.limit = math.Inf(1)
		}
		var out []Pair
		for i := 0; i < len(db.coeffs); i++ {
			var err error
			if v.q, err = db.transformed(t, i); err != nil {
				return nil, st, err
			}
			for j := i + 1; j < len(db.coeffs); j++ {
				st.Candidates++
				if d, ok := v.dist(db.coeffs[j]); ok && d <= eps {
					out = append(out, Pair{I: i, J: j, Dist: d})
				}
			}
		}
		return out, st, nil
	case JoinIndex, JoinIndexT:
		tree, err := db.index()
		if err != nil {
			return nil, st, err
		}
		if method == JoinIndex {
			t = nil
		}
		s := db.getScratch()
		defer db.scratch.Put(s)
		v := newVerifier(t, nil, eps)
		var out []Pair
		for i := 0; i < len(db.coeffs); i++ {
			if v.q, err = db.transformed(t, i); err != nil {
				return nil, st, err
			}
			ids, nodes, err := db.candidates(tree, s, polarInto(s.feat, v.q), t, eps)
			if err != nil {
				return nil, st, err
			}
			st.NodeAccesses += nodes
			slices.Sort(ids)
			for _, j := range ids {
				if j == i {
					continue
				}
				st.Candidates++
				if d, ok := v.dist(db.coeffs[j]); ok {
					out = append(out, Pair{I: i, J: j, Dist: d})
				}
			}
		}
		return out, st, nil
	default:
		return nil, st, fmt.Errorf("tsdb: unknown join method %d", method)
	}
}

// transformed returns T applied to series i's coefficients (or the
// stored coefficients for the identity).
func (db *DB) transformed(t *Transform, i int) ([]complex128, error) {
	if t == nil {
		return db.coeffs[i], nil
	}
	return t.Apply(db.coeffs[i])
}
