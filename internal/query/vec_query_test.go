package query

// Vector query tests: basic NEAREST/WITHIN execution over the vec
// column, EXPLAIN surface (access path, metric, batch kernel labels),
// prepared-statement binding, vec DML, and the parity oracle pinning
// block-size × shard-count results byte-identical to a brute-force
// model across dimensions, metrics and k/radius sweeps.

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/metric"
	"repro/internal/relation"
)

// vecEngine builds an engine over an "items" relation preloaded with
// rows (ids are assigned 0..n-1 in order, identically for sharded and
// unsharded relations — the parity tests depend on that).
func vecEngine(t testing.TB, shards, batchSize int, rows []relation.InsertRow) *Engine {
	t.Helper()
	var tab relation.Table
	if shards > 1 {
		s := relation.NewSharded("items", shards)
		s.InsertBatch(rows)
		tab = s
	} else {
		r := relation.New("items")
		r.InsertBatch(rows)
		tab = r
	}
	cat := relation.NewCatalog()
	cat.Add(tab)
	return NewEngine(cat, WithBatchSize(batchSize))
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
	// VP-tree; the plan says so, names the metric, and prunes.
	plan, err := e.Execute(`EXPLAIN SELECT id FROM items WHERE vec NEAREST 2 TO [0, 0] USING l2`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan.Plan, "VecNearestK(items via vptree, k=2, metric=l2)") {
		t.Fatalf("l2 NEAREST plan:\n%s", plan.Plan)
	}

	// Cosine has no triangle inequality: NEAREST must fall back to scan.
	plan, err = e.Execute(`EXPLAIN SELECT id FROM items WHERE vec NEAREST 2 TO [1, 1] USING cosine`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan.Plan, "VecNearestK(items via scan, k=2, metric=cosine)") {
		t.Fatalf("cosine NEAREST plan:\n%s", plan.Plan)
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
	if !strings.Contains(plan.Plan, "VecRange(items via vptree, radius=1.5, metric=l2)") {
		t.Fatalf("l2 WITHIN plan:\n%s", plan.Plan)
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
		if !strings.Contains(res.Plan, "("+tc.want+")") {
			t.Errorf("%s:\nplan %q lacks %q", tc.stmt, res.Plan, tc.want)
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
	plan, err := e.Execute(`EXPLAIN SELECT id FROM items WHERE vec NEAREST 2 TO [0, 0] USING l2`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan.Plan, "ShardVecNearestK(items, shard 0/4, via vptree, k=2, metric=l2)") {
		t.Fatalf("sharded NEAREST plan:\n%s", plan.Plan)
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
// computed by exhaustive scan with the engine's (dist, id) total order.
func vecBruteNearest(rows []vecModelRow, m metric.Distance, q metric.Vector, k int) [][]string {
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
	out := make([][]string, len(cands))
	for i, c := range cands {
		out[i] = []string{fmt.Sprint(c.id), formatDist(c.d)}
	}
	return out
}

// vecBruteWithin returns the ids within radius in ascending id order,
// the engine's WITHIN reply order (rows must be in id order).
func vecBruteWithin(rows []vecModelRow, m metric.Distance, q metric.Vector, radius float64) []string {
	var ids []string
	for _, r := range rows {
		if r.vec == nil {
			continue
		}
		if _, ok := metric.Within(m, q, r.vec, radius); ok {
			ids = append(ids, fmt.Sprint(r.id))
		}
	}
	return ids
}

func randVec(rng *rand.Rand, dim int) metric.Vector {
	v := make(metric.Vector, dim)
	for i := range v {
		v[i] = float32(rng.Float64()*2 - 1)
	}
	return v
}

// TestVecShardBatchOracleParity pins every execution strategy — block
// sizes {1, 5, 256}, unsharded and {4, 7}-shard relations, VP-tree and
// scan access — byte-identical and positionally identical to the
// brute-force model, across dimensions, both metrics, k/radius/LIMIT
// sweeps and interleaved INSERT batches. WITHIN replies come in
// ascending id order on every path, so a LIMIT keeps the smallest ids.
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
				shards int
				batch  int
			}
			var cfgs []cfg
			for _, shards := range []int{1, 4, 7} {
				for _, batch := range []int{1, 5, 256} {
					cfgs = append(cfgs, cfg{fmt.Sprintf("shards%d-block%d", shards, batch), shards, batch})
				}
			}
			engines := make([]*Engine, len(cfgs))
			for i, c := range cfgs {
				engines[i] = vecEngine(t, c.shards, c.batch, rows)
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
						want := fmt.Sprint(vecBruteNearest(model, m, q, k))
						for i, e := range engines {
							res, err := e.Execute(stmt)
							if err != nil {
								t.Fatalf("%s/%s: %v", cfgs[i].name, stmt, err)
							}
							if got := fmt.Sprint(res.Rows); got != want {
								t.Fatalf("%s: NEAREST diverges for %s\ngot:  %s\nwant: %s\nplan:\n%s",
									cfgs[i].name, stmt, got, want, res.Plan)
							}
						}
					}
					for _, radius := range []float64{0.1, 0.5, 1.5} {
						ids := vecBruteWithin(model, m, q, radius)
						for _, limit := range []int{0, 1, 3} {
							stmt := fmt.Sprintf(`SELECT id FROM items WHERE vec SIMILAR TO %s WITHIN %g USING %s`, lit, radius, mname)
							wantIDs := ids
							if limit > 0 {
								stmt += fmt.Sprintf(" LIMIT %d", limit)
								wantIDs = wantIDs[:min(limit, len(wantIDs))]
							}
							want := strings.Join(wantIDs, "\n")
							for i, e := range engines {
								res, err := e.Execute(stmt)
								if err != nil {
									t.Fatalf("%s/%s: %v", cfgs[i].name, stmt, err)
								}
								if got := positional(res); got != want {
									t.Fatalf("%s: WITHIN diverges for %s\ngot:  %q\nwant: %q\nplan:\n%s",
										cfgs[i].name, stmt, got, want, res.Plan)
								}
							}
						}
					}
				}
			}

			check()
			// Interleave an INSERT batch through the DML path and re-check:
			// the head VP-trees are invalidated and rebuilt, ids stay
			// aligned across shard counts.
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

// TestVecConcurrentInsertQuery exercises snapshot isolation under the
// race detector: writers append vector rows through the DML path while
// readers run NEAREST and WITHIN against whatever snapshot they catch.
func TestVecConcurrentInsertQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var rows []relation.InsertRow
	for i := 0; i < 32; i++ {
		rows = append(rows, relation.InsertRow{Vec: randVec(rng, 8)})
	}
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
						if _, err := e.Execute(fmt.Sprintf(`SELECT id FROM items WHERE vec SIMILAR TO %s WITHIN 1.0 USING cosine`, lit)); err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}
