package query

// Vector query tests: basic NEAREST/WITHIN execution over the vec
// column, EXPLAIN surface (access path, metric, batch kernel labels),
// prepared-statement binding, vec DML, and the parity oracle pinning
// block-size × slice-count results byte-identical to a brute-force
// model across dimensions, metrics and k/radius sweeps.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/editdp"
	"repro/internal/metric"
	"repro/internal/relation"
	"repro/internal/rewrite"
)

// vecEngine builds an engine over an "items" relation preloaded with
// rows (ids are assigned 0..n-1 in order — the parity tests depend on
// that), serial for slices 1, otherwise running every scan with per-row
// work as that many parallel slices.
func vecEngine(t testing.TB, slices, batchSize int, rows []relation.InsertRow) *Engine {
	t.Helper()
	r := relation.New("items")
	r.InsertBatch(rows)
	cat := relation.NewCatalog()
	cat.Add(r)
	return NewEngine(cat, WithBatchSize(batchSize), WithParallelism(slices), WithParallelMinRows(1))
}

func vecRows(vecs ...metric.Vector) []relation.InsertRow {
	rows := make([]relation.InsertRow, len(vecs))
	for i, v := range vecs {
		rows[i] = relation.InsertRow{Vec: v}
	}
	return rows
}

func TestParseVecLiteral(t *testing.T) {
	q, err := Parse(`SELECT id FROM items WHERE vec SIMILAR TO [0.5, -1, 2e-3, 1e-09] WITHIN 1 USING l2`)
	if err != nil {
		t.Fatal(err)
	}
	sim, ok := q.Where.(SimExpr)
	if !ok {
		t.Fatalf("where = %T", q.Where)
	}
	if !sim.Target.IsVec {
		t.Fatal("target not parsed as vector")
	}
	want := metric.Vector{0.5, -1, 2e-3, 1e-09}
	if fmt.Sprint(sim.Target.Vec) != fmt.Sprint(want) {
		t.Fatalf("vec = %v, want %v", sim.Target.Vec, want)
	}
	// Format output parses back to the same vector (negatives and
	// exponent forms included), so rendered plans and WAL text survive a
	// round trip through the lexer.
	if _, err := Parse(`SELECT id FROM items WHERE vec SIMILAR TO ` + metric.Format(sim.Target.Vec) + ` WITHIN 1 USING l2`); err != nil {
		t.Fatalf("Format round-trip: %v", err)
	}

	for _, stmt := range []string{
		`SELECT id FROM items WHERE vec SIMILAR TO [] WITHIN 1 USING l2`,
		`SELECT id FROM items WHERE vec SIMILAR TO [1, ] WITHIN 1 USING l2`,
		`SELECT id FROM items WHERE vec SIMILAR TO [1 2] WITHIN 1 USING l2`,
		`SELECT id FROM items WHERE vec SIMILAR TO [1, 2 WITHIN 1 USING l2`,
		`SELECT id FROM items WHERE vec SIMILAR TO [a] WITHIN 1 USING l2`,
	} {
		if _, err := Parse(stmt); err == nil {
			t.Errorf("%s: parsed, want error", stmt)
		}
	}
}

func TestVecNearestBasic(t *testing.T) {
	e := vecEngine(t, 1, 1, vecRows(
		metric.Vector{0, 0},
		metric.Vector{1, 0},
		metric.Vector{0, 3},
		metric.Vector{5, 5},
	))
	res, err := e.Execute(`SELECT id, dist FROM items WHERE vec NEAREST 2 TO [0, 0] USING l2`)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{{"0", "0"}, {"1", "1"}}
	if fmt.Sprint(res.Rows) != fmt.Sprint(want) {
		t.Fatalf("rows = %v, want %v", res.Rows, want)
	}

	// L2 satisfies the triangle inequality, so NEAREST goes through the
	// vector view; the plan says so and names the metric.
	plan, err := e.Execute(`EXPLAIN SELECT id FROM items WHERE vec NEAREST 2 TO [0, 0] USING l2`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan.Plan(), "VecNearestK(items via vecview, k=2, metric=l2)") {
		t.Fatalf("l2 NEAREST plan:\n%s", plan.Plan())
	}

	// Cosine walks the same view, pruned by the chord.
	plan, err = e.Execute(`EXPLAIN SELECT id FROM items WHERE vec NEAREST 2 TO [1, 1] USING cosine`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan.Plan(), "VecNearestK(items via vecview, k=2, metric=cosine)") {
		t.Fatalf("cosine NEAREST plan:\n%s", plan.Plan())
	}
}

// TestVecNearestVisitedFraction: simq_nearest_visited_fraction{domain="vec"}
// counts distance computations per vector-bearing row, the only rows
// the view ever verifies. Over a relation where half the rows have no
// vector, a cosine and an l2 NEAREST each verify the view's one leaf:
// both read 1, not 0.5. The histogram's sum is process-wide and other
// tests' fractions leave it fractional, so the difference is compared
// to within rounding.
func TestVecNearestVisitedFraction(t *testing.T) {
	var vecs []metric.Vector
	for i := 0; i < 8; i++ {
		if i%2 == 0 {
			vecs = append(vecs, metric.Vector{float32(i), 1})
		} else {
			vecs = append(vecs, nil)
		}
	}
	e := vecEngine(t, 1, 256, vecRows(vecs...))
	for _, m := range []string{"cosine", "l2"} {
		count, sum := mNearestVisitedVec.Count(), mNearestVisitedVec.Sum()
		if _, err := e.Execute(`SELECT id FROM items WHERE vec NEAREST 2 TO [1, 1] USING ` + m); err != nil {
			t.Fatal(err)
		}
		if n := mNearestVisitedVec.Count() - count; n != 1 {
			t.Fatalf("%s: %d visited-fraction observations, want 1", m, n)
		}
		if got := mNearestVisitedVec.Sum() - sum; math.Abs(got-1) > 1e-9 {
			t.Errorf("%s: visited fraction %g, want 1", m, got)
		}
	}
}

func TestVecWithinBasic(t *testing.T) {
	e := vecEngine(t, 1, 1, vecRows(
		metric.Vector{0, 0},
		metric.Vector{1, 0},
		metric.Vector{0, 3},
		metric.Vector{5, 5},
	))
	res, err := e.Execute(`SELECT id FROM items WHERE vec SIMILAR TO [0, 0] WITHIN 1.5 USING l2`)
	if err != nil {
		t.Fatal(err)
	}
	got := canonical(res)
	if got != "0\n1" {
		t.Fatalf("WITHIN ids = %q, want 0 and 1", got)
	}
	plan, err := e.Execute(`EXPLAIN SELECT id FROM items WHERE vec SIMILAR TO [0, 0] WITHIN 1.5 USING l2`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan.Plan(), "VecRange(items via vecview, radius=1.5, metric=l2)") {
		t.Fatalf("l2 WITHIN plan:\n%s", plan.Plan())
	}

	// dist projects the metric's value for matched rows.
	res, err = e.Execute(`SELECT id, dist FROM items WHERE vec SIMILAR TO [0, 0] WITHIN 1.5 USING l2 ORDER BY dist`)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{{"0", "0"}, {"1", "1"}}
	if fmt.Sprint(res.Rows) != fmt.Sprint(want) {
		t.Fatalf("rows = %v, want %v", res.Rows, want)
	}
}

func TestVecExplainKernelLabels(t *testing.T) {
	e := vecEngine(t, 1, 4, vecRows(
		metric.Vector{0, 0},
		metric.Vector{1, 0},
		metric.Vector{0, 3},
	))
	for _, tc := range []struct {
		stmt, want string
	}{
		{`EXPLAIN SELECT id FROM items WHERE vec NEAREST 2 TO [0, 0] USING l2`, "kernel=vec-l2"},
		{`EXPLAIN SELECT id FROM items WHERE vec NEAREST 2 TO [1, 1] USING cosine`, "kernel=vec-cosine"},
		{`EXPLAIN SELECT id FROM items WHERE vec SIMILAR TO [0, 0] WITHIN 1.5 USING l2`, "kernel=vec-l2"},
	} {
		res, err := e.Execute(tc.stmt)
		if err != nil {
			t.Fatalf("%s: %v", tc.stmt, err)
		}
		if !strings.Contains(res.Plan(), "("+tc.want+")") {
			t.Errorf("%s:\nplan %q lacks %q", tc.stmt, res.Plan(), tc.want)
		}
	}
}

func TestVecShardedExplain(t *testing.T) {
	e := vecEngine(t, 4, 1, vecRows(
		metric.Vector{0, 0},
		metric.Vector{1, 0},
		metric.Vector{0, 3},
		metric.Vector{5, 5},
		metric.Vector{2, 2},
		metric.Vector{3, 1},
	))
	// The vector view walk reads its snapshot whole; a vector conjunct
	// no view serves (under OR) is a sliced scan, and its ORDER BY dist
	// sorts above the gather.
	const orScan = `EXPLAIN SELECT id FROM items WHERE vec SIMILAR TO [1, 1] WITHIN 0.5 USING cosine OR seq = "#"`
	for _, c := range []struct{ stmt, want string }{
		{`EXPLAIN SELECT id FROM items WHERE vec NEAREST 2 TO [0, 0] USING l2`,
			"VecNearestK(items via vecview, k=2, metric=l2)"},
		{`EXPLAIN SELECT id FROM items WHERE vec SIMILAR TO [1, 1] WITHIN 0.5 USING cosine ORDER BY dist`,
			"VecRange(items via vecview, radius=0.5, metric=cosine, order=dist)"},
		{orScan + ` ORDER BY dist`, "OrderByDist"},
		{orScan, "GatherMerge(shards=4, workers=4, merge=id)"},
		{orScan, "Scan(items, shard 0/4)"},
	} {
		plan, err := e.Execute(c.stmt)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(plan.Plan(), c.want) {
			t.Fatalf("%s: plan lacks %q:\n%s", c.stmt, c.want, plan.Plan())
		}
	}
}

func TestVecQueryErrors(t *testing.T) {
	e := vecEngine(t, 1, 1, vecRows(metric.Vector{0, 0}))
	for _, stmt := range []string{
		`SELECT id FROM items WHERE vec SIMILAR TO [1] WITHIN 1 USING nosuchmetric`,
		`SELECT id FROM items WHERE vec NEAREST 2 TO [1] USING nosuchmetric`,
		`SELECT id FROM items WHERE seq SIMILAR TO [1] WITHIN 1 USING l2`,
		`SELECT id FROM items WHERE vec SIMILAR TO PATTERN "a*" WITHIN 1 USING l2`,
		`SELECT id FROM items WHERE vec NEAREST 0 TO [1] USING l2`,
		`SELECT a.id FROM items a WHERE a.vec SIMILAR TO a.vec WITHIN 1 USING l2`,
	} {
		if _, err := e.Execute(stmt); err == nil {
			t.Errorf("%s: expected error, got none", stmt)
		}
	}
}

func TestVecPrepared(t *testing.T) {
	e := vecEngine(t, 1, 1, vecRows(
		metric.Vector{0, 0},
		metric.Vector{1, 0},
		metric.Vector{0, 3},
	))
	pq, err := e.Prepare(`SELECT id, dist FROM items WHERE vec SIMILAR TO ? WITHIN ? USING l2 ORDER BY dist`)
	if err != nil {
		t.Fatal(err)
	}
	// String parameters bound against the vec column parse as vector
	// literals.
	res, err := pq.Execute("[0,0]", 1.5)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{{"0", "0"}, {"1", "1"}}
	if fmt.Sprint(res.Rows) != fmt.Sprint(want) {
		t.Fatalf("rows = %v, want %v", res.Rows, want)
	}
	if _, err := pq.Execute("not a vector", 1.5); err == nil {
		t.Error("malformed vector parameter accepted")
	}

	near, err := e.Prepare(`SELECT id FROM items WHERE vec NEAREST 2 TO ? USING l2`)
	if err != nil {
		t.Fatal(err)
	}
	res, err = near.Execute("[0,0]")
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(res.Rows) != fmt.Sprint([][]string{{"0"}, {"1"}}) {
		t.Fatalf("prepared NEAREST rows = %v", res.Rows)
	}
}

func TestVecDML(t *testing.T) {
	e := vecEngine(t, 1, 1, nil)
	if _, err := e.Execute(`INSERT INTO items (vec) VALUES ([1, 2]), ([3, 4])`); err != nil {
		t.Fatal(err)
	}
	res, err := e.Execute(`SELECT vec FROM items WHERE id = "0"`)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(res.Rows) != fmt.Sprint([][]string{{"[1,2]"}}) {
		t.Fatalf("inserted vec = %v", res.Rows)
	}

	// UPDATE of an unrelated column carries the vector forward.
	if _, err := e.Execute(`UPDATE items SET tag = "x" WHERE id = "0"`); err != nil {
		t.Fatal(err)
	}
	res, err = e.Execute(`SELECT vec, tag FROM items WHERE tag = "x"`)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(res.Rows) != fmt.Sprint([][]string{{"[1,2]", "x"}}) {
		t.Fatalf("vec after attr update = %v", res.Rows)
	}

	// SET vec replaces it.
	if _, err := e.Execute(`UPDATE items SET vec = [9, 9] WHERE tag = "x"`); err != nil {
		t.Fatal(err)
	}
	res, err = e.Execute(`SELECT vec FROM items WHERE tag = "x"`)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(res.Rows) != fmt.Sprint([][]string{{"[9,9]"}}) {
		t.Fatalf("vec after SET vec = %v", res.Rows)
	}

	// A row needs a seq or a vec.
	if _, err := e.Execute(`INSERT INTO items (tag) VALUES ("y")`); err == nil {
		t.Error("INSERT without seq or vec accepted")
	}
}

// ----------------------------------------------------------- parity

// vecModelRow is the brute-force model's tuple.
type vecModelRow struct {
	id  int
	vec metric.Vector
}

// vecBruteNearest returns the engine's NEAREST result rows (id, dist)
// computed by exhaustive scan with the engine's (dist, id) total order
// — under ORDER BY dist DESC, a stable sort of that by descending
// distance.
func vecBruteNearest(rows []vecModelRow, m metric.Distance, q metric.Vector, k int, order OrderDir) [][]string {
	type cand struct {
		id int
		d  float64
	}
	var cands []cand
	for _, r := range rows {
		if r.vec == nil {
			continue
		}
		cands = append(cands, cand{r.id, m.Dist(q, r.vec)})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].d != cands[j].d {
			return cands[i].d < cands[j].d
		}
		return cands[i].id < cands[j].id
	})
	if len(cands) > k {
		cands = cands[:k]
	}
	if order == OrderDesc {
		sort.SliceStable(cands, func(i, j int) bool { return cands[i].d > cands[j].d })
	}
	out := make([][]string, len(cands))
	for i, c := range cands {
		out[i] = []string{fmt.Sprint(c.id), formatDist(c.d)}
	}
	return out
}

// vecBruteWithin returns the (id, dist) rows within radius in the
// engine's WITHIN reply order — ascending id (rows must be in id order)
// — or, for ORDER BY dist, a stable sort of that by distance.
func vecBruteWithin(rows []vecModelRow, m metric.Distance, q metric.Vector, radius float64, order OrderDir) [][]string {
	type hit struct {
		id int
		d  float64
	}
	var hits []hit
	for _, r := range rows {
		if r.vec == nil {
			continue
		}
		if d, ok := metric.Within(m, q, r.vec, radius); ok {
			hits = append(hits, hit{r.id, d})
		}
	}
	sort.SliceStable(hits, func(i, j int) bool {
		switch order {
		case OrderAsc:
			return hits[i].d < hits[j].d
		case OrderDesc:
			return hits[i].d > hits[j].d
		}
		return false
	})
	out := make([][]string, len(hits))
	for i, h := range hits {
		out[i] = []string{fmt.Sprint(h.id), formatDist(h.d)}
	}
	return out
}

func randVec(rng *rand.Rand, dim int) metric.Vector {
	v := make(metric.Vector, dim)
	for i := range v {
		v[i] = float32(rng.Float64()*2 - 1)
	}
	return v
}

// TestVecShardBatchOracleParity pins every execution strategy — block
// sizes {1, 5, 256}, serial and over {4, 7} parallel slices, vector view
// and scan access — byte-identical and positionally identical to the
// brute-force model, across dimensions, both metrics, k/radius/LIMIT
// sweeps, ORDER BY dist in both directions and interleaved INSERT
// batches. WITHIN replies come in ascending id order on every path, so
// a LIMIT keeps the smallest ids; under ORDER BY dist the view leaves
// sort themselves and the sliced scans of a conjunct under OR sort
// above the gather.
func TestVecShardBatchOracleParity(t *testing.T) {
	for _, dim := range []int{2, 8, 64} {
		dim := dim
		t.Run(fmt.Sprintf("dim=%d", dim), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000 + dim)))
			var rows []relation.InsertRow
			var model []vecModelRow
			for i := 0; i < 48; i++ {
				if i%8 == 7 {
					// Seq-only rows: every strategy must skip nil vectors.
					rows = append(rows, relation.InsertRow{Seq: fmt.Sprintf("s%d", i)})
					model = append(model, vecModelRow{id: i})
					continue
				}
				v := randVec(rng, dim)
				rows = append(rows, relation.InsertRow{Vec: v})
				model = append(model, vecModelRow{id: i, vec: v})
			}
			nextID := len(rows)

			type cfg struct {
				name   string
				slices int
				batch  int
			}
			var cfgs []cfg
			for _, slices := range []int{1, 4, 7} {
				for _, batch := range []int{1, 5, 256} {
					cfgs = append(cfgs, cfg{fmt.Sprintf("slices%d-block%d", slices, batch), slices, batch})
				}
			}
			engines := make([]*Engine, len(cfgs))
			for i, c := range cfgs {
				engines[i] = vecEngine(t, c.slices, c.batch, rows)
			}

			check := func() {
				t.Helper()
				for _, mname := range []string{"l2", "cosine"} {
					m, ok := metric.Lookup(mname)
					if !ok {
						t.Fatalf("metric %q not registered", mname)
					}
					q := randVec(rng, dim)
					lit := metric.Format(q)
					for _, k := range []int{1, 3, 10} {
						stmt := fmt.Sprintf(`SELECT id, dist FROM items WHERE vec NEAREST %d TO %s USING %s`, k, lit, mname)
						desc := vecBruteNearest(model, m, q, k, OrderDesc)
						for _, c := range []struct {
							suffix string
							want   [][]string
						}{
							{"", vecBruteNearest(model, m, q, k, OrderNone)},
							{" ORDER BY dist DESC", desc},
							{" ORDER BY dist DESC LIMIT 2", desc[:min(2, len(desc))]},
						} {
							want := fmt.Sprint(c.want)
							for i, e := range engines {
								res, err := e.Execute(stmt + c.suffix)
								if err != nil {
									t.Fatalf("%s/%s: %v", cfgs[i].name, stmt+c.suffix, err)
								}
								if got := fmt.Sprint(res.Rows); got != want {
									t.Fatalf("%s: NEAREST diverges for %s\ngot:  %s\nwant: %s\nplan:\n%s",
										cfgs[i].name, stmt+c.suffix, got, want, res.Plan())
								}
							}
						}
					}
					for _, radius := range []float64{0.1, 0.5, 1.5} {
						for _, order := range []OrderDir{OrderNone, OrderAsc, OrderDesc} {
							hits := vecBruteWithin(model, m, q, radius, order)
							// Under OR no view serves the conjunct: a scan,
							// sliced on the parallel engines.
							for _, or := range []string{"", ` OR seq = "#"`} {
								for _, limit := range []int{0, 1, 3} {
									stmt := fmt.Sprintf(`SELECT id, dist FROM items WHERE vec SIMILAR TO %s WITHIN %g USING %s%s`, lit, radius, mname, or)
									stmt += map[OrderDir]string{OrderAsc: " ORDER BY dist", OrderDesc: " ORDER BY dist DESC"}[order]
									want := hits
									if limit > 0 {
										stmt += fmt.Sprintf(" LIMIT %d", limit)
										want = want[:min(limit, len(want))]
									}
									for i, e := range engines {
										res, err := e.Execute(stmt)
										if err != nil {
											t.Fatalf("%s/%s: %v", cfgs[i].name, stmt, err)
										}
										if got := fmt.Sprint(res.Rows); got != fmt.Sprint(want) {
											t.Fatalf("%s: WITHIN diverges for %s\ngot:  %s\nwant: %s\nplan:\n%s",
												cfgs[i].name, stmt, got, fmt.Sprint(want), res.Plan())
										}
									}
								}
							}
						}
					}
				}
			}

			check()
			// Interleave an INSERT batch through the DML path and re-check:
			// the new rows land in the vector views' tails, ids stay
			// aligned across slice counts.
			for round := 0; round < 2; round++ {
				var lits []string
				for i := 0; i < 6; i++ {
					v := randVec(rng, dim)
					lits = append(lits, fmt.Sprintf("(%s)", metric.Format(v)))
					model = append(model, vecModelRow{id: nextID, vec: v})
					nextID++
				}
				stmt := fmt.Sprintf(`INSERT INTO items (vec) VALUES %s`, strings.Join(lits, ", "))
				for i, e := range engines {
					if _, err := e.Execute(stmt); err != nil {
						t.Fatalf("%s: %v", cfgs[i].name, err)
					}
				}
				check()
			}
		})
	}
}

// flatL1 is a registered metric with no pruning capability: the
// vector view over it is flat, one leaf whose every row is verified.
type flatL1 struct{}

func (flatL1) Name() string { return "test-flat-l1" }

func (flatL1) Dist(a, b metric.Vector) float64 {
	var s float64
	for i := 0; i < max(len(a), len(b)); i++ {
		var x, y float64
		if i < len(a) {
			x = float64(a[i])
		}
		if i < len(b) {
			y = float64(b[i])
		}
		s += math.Abs(x - y)
	}
	return s
}

// viewEdgeRows is clustered 8-dim data with the vectors that stress the
// cosine view's pruning mixed in: zero vectors of two lengths, opposite
// vectors, near duplicates one float32 ulp apart, scaled copies, exact
// duplicates, shorter and longer vectors, and rows with no vector.
func viewEdgeRows(rng *rand.Rand) ([]relation.InsertRow, []vecModelRow) {
	var vecs []metric.Vector
	centres := make([]metric.Vector, 6)
	for c := range centres {
		centres[c] = randVec(rng, 8)
	}
	for i := 0; i < 240; i++ {
		v := centres[i%len(centres)].Clone()
		for j := range v {
			v[j] += float32(rng.NormFloat64() * 0.05)
		}
		vecs = append(vecs, v)
	}
	for i := 0; i < 12; i++ {
		base := vecs[rng.Intn(240)]
		neg, near, scaled := base.Clone(), base.Clone(), base.Clone()
		for j := range base {
			neg[j], scaled[j] = -base[j], 3*base[j]
		}
		j := rng.Intn(len(near))
		near[j] = math.Nextafter32(near[j], float32(math.Inf(1)))
		long := append(base.Clone(), 0.25, -0.5)
		vecs = append(vecs, neg, near, scaled, base.Clone(), base[:5], long)
	}
	vecs = append(vecs, make(metric.Vector, 8), make(metric.Vector, 5), make(metric.Vector, 8))
	// Spread the edge rows over the partition's leaves.
	rng.Shuffle(len(vecs), func(i, j int) { vecs[i], vecs[j] = vecs[j], vecs[i] })
	var rows []relation.InsertRow
	var model []vecModelRow
	for i, v := range vecs {
		if i%23 == 22 {
			v = nil
		}
		rows = append(rows, relation.InsertRow{Vec: v})
		model = append(model, vecModelRow{id: i, vec: v})
	}
	return rows, model
}

// TestVecViewNoFalseDismissal: the vector view admits no false dismissal
// under the chord it prunes cosine by, nor under a metric it cannot
// prune for (the flat view). NEAREST k, WITHIN r and the join through
// the view return the ids and the dist bytes of a brute-force scan of
// the metric's own distance, at radii from exact matches (0) to past
// cosine's diameter (2), on targets among the edge rows, before and
// after an INSERT batch.
func TestVecViewNoFalseDismissal(t *testing.T) {
	if err := metric.Register(flatL1{}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(71))
	rows, model := viewEdgeRows(rng)
	e := vecEngine(t, 1, 256, rows)
	targets := []metric.Vector{model[0].vec, model[1].vec, make(metric.Vector, 8), randVec(rng, 8), randVec(rng, 5)}
	for _, row := range model[2:] {
		if len(targets) == 12 {
			break
		}
		if row.vec != nil {
			targets = append(targets, row.vec)
		}
	}
	for round := 0; round < 2; round++ {
		if round == 1 {
			// Rows inserted after the views were built widen their
			// intervals and land in leaf overflows.
			extra, _ := viewEdgeRows(rand.New(rand.NewSource(72)))
			var lits []string
			for _, r := range extra[:60] {
				if r.Vec != nil {
					lits = append(lits, "("+metric.Format(r.Vec)+")")
					model = append(model, vecModelRow{id: len(model), vec: r.Vec})
				}
			}
			if _, err := e.Execute(`INSERT INTO items (vec) VALUES ` + strings.Join(lits, ", ")); err != nil {
				t.Fatal(err)
			}
		}
		for _, c := range []struct {
			metric string
			radii  []float64
		}{
			{"cosine", []float64{0, 0.01, 1, 2, 2.5}},
			{"test-flat-l1", []float64{0, 0.5, 4, 100}},
		} {
			m, _ := metric.Lookup(c.metric)
			check := func(stmt, access string, want [][]string, sorted bool) {
				t.Helper()
				res, err := e.Execute(stmt)
				if err != nil {
					t.Fatalf("%s: %v", stmt, err)
				}
				got := &Result{Rows: res.Rows}
				wantRes := &Result{Rows: want}
				if !strings.Contains(res.Plan(), access) {
					t.Fatalf("%s does not plan %s:\n%s", stmt, access, res.Plan())
				}
				if sorted && canonical(got) != canonical(wantRes) || !sorted && positional(got) != positional(wantRes) {
					t.Fatalf("%s diverges from the brute-force scan\ngot:  %v\nwant: %v\nplan:\n%s", stmt, res.Rows, want, res.Plan())
				}
			}
			for _, q := range targets {
				lit := metric.Format(q)
				for _, k := range []int{1, 10, 60} {
					check(fmt.Sprintf(`SELECT id, dist FROM items WHERE vec NEAREST %d TO %s USING %s`, k, lit, c.metric),
						"VecNearestK(items via vecview", vecBruteNearest(model, m, q, k, OrderNone), false)
				}
				for _, r := range c.radii {
					check(fmt.Sprintf(`SELECT id, dist FROM items WHERE vec SIMILAR TO %s WITHIN %g USING %s`, lit, r, c.metric),
						"VecRange(items via vecview", vecBruteWithin(model, m, q, r, OrderNone), false)
				}
			}
			for _, r := range c.radii[:4] {
				var want [][]string
				for _, a := range model {
					if a.vec == nil {
						continue
					}
					for _, b := range model {
						if b.vec == nil {
							continue
						}
						if d, ok := metric.Within(m, a.vec, b.vec, r); ok {
							want = append(want, []string{fmt.Sprint(a.id), fmt.Sprint(b.id), formatDist(d)})
						}
					}
				}
				check(fmt.Sprintf(`SELECT a.id, b.id, dist FROM items a, items b ON dist(a.vec, b.vec) <= %g USING %s`, r, c.metric),
					"IndexJoin(probe a.vec into vecview(b)", want, true)
			}
		}
	}
}

// TestVecRangeDistIsFirstSimilarity: a row's dist is the distance
// of the first similarity predicate that matches it in evaluation order,
// whichever conjunct the access path serves. The vector conjunct comes
// second here; the planner serves it through the vector view at every
// radius, and a trailing OR conjunct that matches nothing forces the
// scan. dist must be the weighted edit distance of the first conjunct on
// both plans, serial and over four parallel slices, in id order and under
// ORDER BY dist.
func TestVecRangeDistIsFirstSimilarity(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	rows := make([]relation.InsertRow, 3000)
	for i := range rows {
		b := make([]byte, 3+rng.Intn(3))
		for j := range b {
			b[j] = "abcd"[rng.Intn(4)]
		}
		v := make(metric.Vector, 4)
		for j := range v {
			v[j] = float32(rng.NormFloat64())
		}
		rows[i] = relation.InsertRow{Seq: string(b), Vec: v}
	}
	var rules []rewrite.Rule
	for _, c := range []byte("abcd") {
		rules = append(rules, rewrite.Insert(c, 0.5), rewrite.Delete(c, 0.5))
		for _, d := range []byte("abcd") {
			if c != d {
				rules = append(rules, rewrite.Subst(c, d, 0.5))
			}
		}
	}
	half := rewrite.MustRuleSet("half", rules)
	calc, err := editdp.New(half)
	if err != nil {
		t.Fatal(err)
	}
	l2, _ := metric.Lookup("l2")
	origin := metric.Vector{0, 0, 0, 0}
	for _, r := range []float64{1, 2, 4, 8} {
		where := fmt.Sprintf(`seq SIMILAR TO "abcd" WITHIN 1 USING half AND vec SIMILAR TO [0, 0, 0, 0] WITHIN %g USING l2`, r)
		type hit struct {
			id int
			d  float64
		}
		var hits []hit
		for id, row := range rows {
			d := calc.Distance(row.Seq, "abcd")
			if _, ok := metric.Within(l2, origin, row.Vec, r); ok && d <= 1 {
				hits = append(hits, hit{id, d})
			}
		}
		render := func(hs []hit) string {
			lines := make([]string, len(hs))
			for i, h := range hs {
				lines[i] = fmt.Sprintf("%d\x1f%s", h.id, formatDist(h.d))
			}
			return strings.Join(lines, "\n")
		}
		byDist := slices.Clone(hits)
		sort.SliceStable(byDist, func(i, j int) bool { return byDist[i].d < byDist[j].d })
		for _, slices := range []int{1, 4} {
			e := vecEngine(t, slices, 256, rows)
			if err := e.RegisterRuleSet(half); err != nil {
				t.Fatal(err)
			}
			for _, p := range []struct{ stmt, access string }{
				{`SELECT id, dist FROM items WHERE ` + where, "VecRange(items via vecview"},
				{`SELECT id, dist FROM items WHERE (` + where + `) OR seq = "#"`, "Scan(items)"},
			} {
				for _, c := range []struct{ suffix, want string }{
					{"", render(hits)},
					{" ORDER BY dist", render(byDist)},
				} {
					res, err := e.Execute(p.stmt + c.suffix)
					if err != nil {
						t.Fatal(err)
					}
					if got := positional(res); got != c.want {
						t.Fatalf("slices=%d %s%s: dist is not the first conjunct's:\ngot:\n%s\nwant:\n%s\nplan:\n%s",
							slices, p.stmt, c.suffix, got, c.want, res.Plan())
					}
					if slices == 1 && c.suffix == "" && !strings.Contains(res.Plan(), p.access) {
						t.Fatalf("r=%g %s no longer plans %s:\n%s", r, p.stmt, p.access, res.Plan())
					}
				}
			}
		}
	}
}

// TestDistBeforeServedConjunct: a conjunct that reads dist ahead of the
// conjunct an access path serves finds no distance on any plan, as in
// the model's in-order evaluation — the vector view's range at a small
// and at a wide radius and the scan a cosine range under OR takes, each
// literal or bound through WITHIN ?, and the string band walk, serial and
// over four parallel slices. Every statement has rows for the access path to reach.
func TestDistBeforeServedConjunct(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	rows := make([]relation.InsertRow, 3000)
	model := &oracleDB{}
	for i := range rows {
		rows[i] = relation.InsertRow{Seq: randOracleSeq(rng), Vec: randVec(rng, 8)}
		model.insert(rows[i].Seq, "")
	}
	vecStmt := `SELECT id, dist FROM items WHERE dist = "0" AND vec SIMILAR TO ` + metric.Format(rows[0].Vec) + ` WITHIN %s USING l2`
	cosStmt := `SELECT id, dist FROM items WHERE dist = "0" AND (vec SIMILAR TO ` + metric.Format(rows[0].Vec) + ` WITHIN %s USING cosine OR seq = "#")`
	strStmt := fmt.Sprintf(`SELECT id, dist FROM items WHERE dist = "0" AND seq SIMILAR TO %q WITHIN 1 USING edits`, rows[0].Seq)

	q, err := Parse(strings.Replace(strStmt, "items", "words", 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := model.query(q); err != errUnmodeled {
		t.Fatalf("the model evaluates %q without error: %v", strStmt, err)
	}
	for _, slices := range []int{1, 4} {
		e := vecEngine(t, slices, 256, rows)
		if err := e.RegisterRuleSet(rewrite.MustRuleSet("edits", rewrite.UnitEdits(oracleAlphabet).Rules())); err != nil {
			t.Fatal(err)
		}
		// Each vector case also runs prepared with a bound radius: the
		// same leaf must raise the same error.
		prepare := func(tmpl string) *PreparedQuery {
			pq, err := e.Prepare(fmt.Sprintf(tmpl, "?"))
			if err != nil {
				t.Fatal(err)
			}
			return pq
		}
		vecPrepared, cosPrepared := prepare(vecStmt), prepare(cosStmt)
		for _, c := range []struct {
			radius   float64
			stmt     string
			prepared *PreparedQuery
			access   string
		}{
			{0.5, fmt.Sprintf(vecStmt, "0.5"), vecPrepared, "VecRange(items via vecview"},
			{8, fmt.Sprintf(vecStmt, "8"), vecPrepared, "VecRange(items via vecview"},
			{0.5, fmt.Sprintf(cosStmt, "0.5"), cosPrepared, "Scan(items"},
			{1, strStmt, nil, "IndexRange(items via lengthview"},
		} {
			res, err := e.Execute("EXPLAIN " + c.stmt)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(res.Plan(), c.access) {
				t.Fatalf("slices=%d %s no longer plans %s:\n%s", slices, c.stmt, c.access, res.Plan())
			}
			if res, err := e.Execute(c.stmt); !errors.Is(err, errNoDist) {
				t.Fatalf("slices=%d %s: want %v, got %v, reply %v", slices, c.stmt, errNoDist, err, res)
			}
			if c.prepared == nil {
				continue
			}
			if plan, err := c.prepared.Explain(c.radius); err != nil || !strings.Contains(plan, c.access) {
				t.Fatalf("slices=%d prepared at WITHIN %g no longer plans %s (%v):\n%s", slices, c.radius, c.access, err, plan)
			}
			if res, err := c.prepared.Execute(c.radius); !errors.Is(err, errNoDist) {
				t.Fatalf("slices=%d prepared %s at WITHIN %g: want %v, got %v, reply %v", slices, c.access, c.radius, errNoDist, err, res)
			}
		}
	}
}

// TestVecConcurrentInsertQuery exercises snapshot isolation under the
// race detector: writers append vector rows through the DML path while
// readers run NEAREST and WITHIN against whatever snapshot they catch.
func TestVecConcurrentInsertQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var rows []relation.InsertRow
	for i := 0; i < 32; i++ {
		rows = append(rows, relation.InsertRow{Vec: randVec(rng, 8)})
	}
	// shards=N: the slice count of the engine's vector filter scans,
	// which the conjunct under OR takes.
	for _, shards := range []int{1, 4} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			e := vecEngine(t, shards, 5, rows)
			var wg sync.WaitGroup
			wg.Add(3)
			go func() {
				defer wg.Done()
				r := rand.New(rand.NewSource(11))
				for i := 0; i < 20; i++ {
					stmt := fmt.Sprintf(`INSERT INTO items (vec) VALUES (%s)`, metric.Format(randVec(r, 8)))
					if _, err := e.Execute(stmt); err != nil {
						t.Error(err)
						return
					}
				}
			}()
			for g := 0; g < 2; g++ {
				g := g
				go func() {
					defer wg.Done()
					r := rand.New(rand.NewSource(int64(23 + g)))
					for i := 0; i < 20; i++ {
						lit := metric.Format(randVec(r, 8))
						if _, err := e.Execute(fmt.Sprintf(`SELECT id, dist FROM items WHERE vec NEAREST 3 TO %s USING l2`, lit)); err != nil {
							t.Error(err)
							return
						}
						for _, or := range []string{"", ` OR seq = "#"`} {
							if _, err := e.Execute(fmt.Sprintf(`SELECT id FROM items WHERE vec SIMILAR TO %s WITHIN 1.0 USING cosine%s`, lit, or)); err != nil {
								t.Error(err)
								return
							}
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}

// scaledL2 is a registered metric k times l2, which prunes by itself.
// Its slice field makes it incomparable, so nothing may compare it
// with ==.
type scaledL2 struct{ k []float64 }

func (scaledL2) Name() string { return "test-scaled-l2" }

func (s scaledL2) Dist(a, b metric.Vector) float64 { return s.k[0] * metric.L2{}.Dist(a, b) }

func (s scaledL2) Pruning() metric.Distance { return s }

func (scaledL2) Reach(r float64) float64 { return r }

// TestVecViewFollowsRegister: once metric.Register replaces a metric,
// NEAREST and WITHIN through the vector view answer under the new one,
// exactly as the same predicate under OR, a scan, does, and so does the
// join, whose edge no OR can take off the view: it must equal every
// pair within the radius under the registered metric.
func TestVecViewFollowsRegister(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	rows := make([]relation.InsertRow, 400)
	for i := range rows {
		rows[i] = relation.InsertRow{Vec: randVec(rng, 4)}
	}
	e := vecEngine(t, 1, 256, rows)
	q := metric.Format(rows[7].Vec)
	for _, k := range []float64{1, 2} {
		if err := metric.Register(scaledL2{[]float64{k}}); err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct{ view, access, scan string }{
			{`SELECT id, dist FROM items WHERE vec NEAREST 5 TO ` + q + ` USING test-scaled-l2`,
				"VecNearestK(items via vecview",
				`SELECT id, dist FROM items WHERE vec SIMILAR TO ` + q + ` WITHIN 1e300 USING test-scaled-l2 OR seq = "#" ORDER BY dist LIMIT 5`},
			{`SELECT id, dist FROM items WHERE vec SIMILAR TO ` + q + ` WITHIN 1.5 USING test-scaled-l2`,
				"VecRange(items via vecview",
				`SELECT id, dist FROM items WHERE vec SIMILAR TO ` + q + ` WITHIN 1.5 USING test-scaled-l2 OR seq = "#"`},
			{`SELECT a.id, b.id, dist FROM items a, items b ON dist(a.vec, b.vec) <= 0.3 USING test-scaled-l2`,
				"IndexJoin(probe a.vec into vecview(b)", ""},
		} {
			got, err := e.Execute(c.view)
			if err != nil {
				t.Fatalf("%s: %v", c.view, err)
			}
			if !strings.Contains(got.Plan(), c.access) {
				t.Fatalf("%s does not plan %s:\n%s", c.view, c.access, got.Plan())
			}
			want := &Result{}
			if c.scan == "" {
				m, _ := metric.Lookup("test-scaled-l2")
				for a := range rows {
					for b := range rows {
						if d, ok := metric.Within(m, rows[a].Vec, rows[b].Vec, 0.3); ok {
							want.Rows = append(want.Rows, []string{fmt.Sprint(a), fmt.Sprint(b), formatDist(d)})
						}
					}
				}
			} else if want, err = e.Execute(c.scan); err != nil {
				t.Fatalf("%s: %v", c.scan, err)
			} else if strings.Contains(want.Plan(), "vecview") {
				t.Fatalf("%s is no scan:\n%s", c.scan, want.Plan())
			}
			if len(want.Rows) < 2 || canonical(got) != canonical(want) {
				t.Fatalf("metric ×%g: %s\ngot  %v\nthe scan's %v", k, c.view, got.Rows, want.Rows)
			}
		}
	}
}
