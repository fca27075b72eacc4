// Benchmarks, one per reproduced experiment (see EXPERIMENTS.md).
// `go test -bench=. -benchmem` reports per-operation costs; the figure
// series themselves (parameter sweeps) are regenerated by cmd/simbench.
package repro

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/editdp"
	"repro/internal/index"
	"repro/internal/metric"
	"repro/internal/patdist"
	"repro/internal/pattern"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/rewrite"
	"repro/internal/seq"
	"repro/internal/stock"
	"repro/internal/transform"
	"repro/internal/tsdb"
)

func randomPair(seed int64, n, edits int) (string, string) {
	a := seq.MustAlphabet("abcd")
	rng := rand.New(rand.NewSource(seed))
	x := a.Random(rng, n)
	return x, a.RandomEdits(rng, x, edits)
}

// BenchmarkF1GeneralVsEditDP — F1: the general engine and the DP on the
// same pairs.
func BenchmarkF1GeneralVsEditDP(b *testing.B) {
	rs := rewrite.UnitEdits("abcd")
	eng, err := transform.NewEngine(rs)
	if err != nil {
		b.Fatal(err)
	}
	calc, err := editdp.New(rs)
	if err != nil {
		b.Fatal(err)
	}
	x, y := randomPair(1, 6, 2)
	b.Run("general-search", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := eng.Distance(x, y, 6); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("edit-dp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			calc.Distance(x, y)
		}
	})
}

// BenchmarkF2BudgetGrowth — F2: search effort vs cost budget.
func BenchmarkF2BudgetGrowth(b *testing.B) {
	rules := append([]rewrite.Rule{
		rewrite.Swap('a', 'b', 1), rewrite.Swap('b', 'a', 1),
	}, rewrite.UnitEdits("ab").Rules()...)
	rs := rewrite.MustRuleSet("swap+edits", rules)
	eng, err := transform.NewEngine(rs, transform.WithoutHeuristic())
	if err != nil {
		b.Fatal(err)
	}
	for _, budget := range []float64{1, 2, 3, 4} {
		b.Run(fmt.Sprintf("budget-%g", budget), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := eng.Distance("abababab", "bbbbaaaa", budget); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkF3BandedDP — F3: full vs banded DP across lengths.
func BenchmarkF3BandedDP(b *testing.B) {
	calc, err := editdp.New(rewrite.UnitEdits("abcd"))
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{64, 256, 1024} {
		x, y := randomPair(int64(n), n, 4)
		b.Run(fmt.Sprintf("full-n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				calc.Distance(x, y)
			}
		})
		b.Run(fmt.Sprintf("banded-n%d-k4", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				calc.Within(x, y, 4)
			}
		})
	}
}

// BenchmarkF4PatternDistance — F4: product search vs enumerate+DP.
func BenchmarkF4PatternDistance(b *testing.B) {
	calc, err := editdp.New(rewrite.UnitEdits("abcd"))
	if err != nil {
		b.Fatal(err)
	}
	p := pattern.MustCompile("a(b|c)*d")
	x, _ := randomPair(4, 8, 0)
	b.Run("product-search", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			patdist.Distance(calc, x, p)
		}
	})
	b.Run("enumerate-dp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			patdist.EnumerateAndDP(calc, x, p, 12, 1<<20, math.Inf(1))
		}
	})
}

func benchDictionary(seed int64, n int) []index.Entry {
	a := seq.MustAlphabet("abcdefghij")
	rng := rand.New(rand.NewSource(seed))
	out := make([]index.Entry, 0, n)
	for i := 0; i < n; i++ {
		var s string
		if i > 0 && rng.Intn(4) == 0 {
			s = a.RandomEdits(rng, out[rng.Intn(i)].S, 1)
		} else {
			s = a.Random(rng, 4+rng.Intn(11))
		}
		out = append(out, index.Entry{ID: i, S: s})
	}
	return out
}

// BenchmarkF5RangeStrategies — F5: range-query strategies at radius 1.
func BenchmarkF5RangeStrategies(b *testing.B) {
	entries := benchDictionary(5, 20000)
	bk := index.NewBKTree()
	tr := index.NewTrie()
	qg := index.NewQGramIndex(2)
	li := index.NewLengthIndex()
	for _, e := range entries {
		bk.Insert(e.ID, e.S)
		tr.Insert(e.ID, e.S)
		qg.Insert(e.ID, e.S)
		li.Insert(e.ID, e.S)
	}
	query := entries[77].S
	b.Run("scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			index.Scan(entries, query, 1, index.UnitVerifier)
		}
	})
	b.Run("length", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			li.Range(query, 1, index.UnitVerifier)
		}
	})
	b.Run("qgram", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			qg.Range(query, 1, index.UnitVerifier)
		}
	})
	b.Run("bktree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bk.Range(query, 1)
		}
	})
	b.Run("trie", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr.Range(query, 1)
		}
	})
}

// BenchmarkF6JoinStrategies — F6: self-join strategies at radius 1.
func BenchmarkF6JoinStrategies(b *testing.B) {
	entries := benchDictionary(6, 1200)
	bk := index.NewBKTree()
	for _, e := range entries {
		bk.Insert(e.ID, e.S)
	}
	b.Run("nested-loop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			n := 0
			for x := 0; x < len(entries); x++ {
				for y := x + 1; y < len(entries); y++ {
					if _, ok := editdp.LevenshteinWithin(entries[x].S, entries[y].S, 1); ok {
						n++
					}
				}
			}
			_ = n
		}
	})
	b.Run("bktree-probe", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			n := 0
			for _, e := range entries {
				for _, m := range bk.Range(e.S, 1) {
					if m.ID > e.ID {
						n++
					}
				}
			}
			_ = n
		}
	})
}

// benchQueryEngine loads a dictionary relation into a query engine with
// unit and weighted rule sets registered.
func benchQueryEngine(b *testing.B, n int, opts ...EngineOption) *QueryEngine {
	b.Helper()
	rel := NewRelation("dict")
	for _, e := range benchDictionary(7, n) {
		rel.Insert(e.S, nil)
	}
	cat := NewCatalog()
	cat.Add(rel)
	eng := NewQueryEngine(cat, opts...)
	if err := eng.RegisterRuleSet(UnitEdits("abcdefghij")); err != nil {
		b.Fatal(err)
	}
	alpha := []byte("abcdefghij")
	var rules []Rule
	for _, c := range alpha {
		rules = append(rules, Insert(c, 0.5), Delete(c, 0.5))
		for _, d := range alpha {
			if c != d {
				rules = append(rules, Subst(c, d, 0.5))
			}
		}
	}
	if err := eng.RegisterRuleSet(MustRuleSet("half", rules)); err != nil {
		b.Fatal(err)
	}
	return eng
}

// BenchmarkQ1SerialVsParallelScan — the serial plan against the
// parallel one, a GatherMerge over GOMAXPROCS id-range slices of the
// relation's snapshot, on a scan-heavy weighted range query.
func BenchmarkQ1SerialVsParallelScan(b *testing.B) {
	const stmt = `SELECT seq, dist FROM dict WHERE seq SIMILAR TO "abcdefgh" WITHIN 2 USING half`
	b.Run("serial", func(b *testing.B) {
		eng := benchQueryEngine(b, 20000, WithParallelism(1))
		for i := 0; i < b.N; i++ {
			if _, err := eng.Execute(stmt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		eng := benchQueryEngine(b, 20000, WithParallelism(runtime.GOMAXPROCS(0)), WithParallelMinRows(1))
		for i := 0; i < b.N; i++ {
			if _, err := eng.Execute(stmt); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkQ2JoinOperators measures each probe of the join operator on
// a statement the planner routes to it, pinned via EXPLAIN so a planner
// change fails loudly. The weighted edge takes the scan that verifies
// every pair; the unit radius-1 self-join over seq the band walk of the
// inner length view; a unit edge onto another attribute the
// length-banded scan, here a one-row probe relation joined at radius 1
// to 600 two-to-three-letter words held in attribute w; an l2 self-join
// over 600 64-dim vectors from 16 Gaussian clusters (datagen's recipe)
// the inner vector view.
func BenchmarkQ2JoinOperators(b *testing.B) {
	eng := benchQueryEngine(b, 600, WithParallelism(1))
	rng := rand.New(rand.NewSource(7))
	short, probe, vecs := NewRelation("short"), NewRelation("probe"), NewRelation("vecs")
	for i := 0; i < 600; i++ {
		w := make([]byte, 2+rng.Intn(2))
		for j := range w {
			w[j] = "abcdefghij"[rng.Intn(10)]
		}
		short.Insert("", map[string]string{"w": string(w)})
	}
	probe.Insert("abc", nil)
	centroids := make([][]float64, 16)
	for i := range centroids {
		centroids[i] = make([]float64, 64)
		for j := range centroids[i] {
			centroids[i][j] = rng.Float64()*2 - 1
		}
	}
	for i := 0; i < 600; i++ {
		v := make(Vector, 64)
		for j, c := range centroids[rng.Intn(len(centroids))] {
			v[j] = float32(c + rng.NormFloat64()*0.1)
		}
		vecs.InsertOne(relation.InsertRow{Vec: v})
	}
	eng.Catalog().Add(short)
	eng.Catalog().Add(probe)
	eng.Catalog().Add(vecs)
	for _, c := range []struct{ name, stmt, wantOp string }{
		{"nested-loop", `SELECT a.id, b.id FROM dict a, dict b WHERE a.seq SIMILAR TO b.seq WITHIN 0.5 USING half AND a.id != b.id`,
			"NestedLoopJoin(b, on"},
		{"index-join", `SELECT a.id, b.id FROM dict a, dict b WHERE a.seq SIMILAR TO b.seq WITHIN 1 USING unit-edits AND a.id != b.id`,
			"IndexJoin("},
		{"banded", `SELECT p.id, s.id FROM probe p, short s ON dist(p.seq, s.w) <= 1 USING unit-edits`,
			"NestedLoopJoin(s[length-banded]"},
		{"vec-index", `SELECT a.id, b.id FROM vecs a, vecs b ON dist(a.vec, b.vec) <= 1 USING l2 WHERE a.id != b.id`,
			"IndexJoin(probe a.vec into vecview("},
	} {
		b.Run(c.name, func(b *testing.B) {
			res, err := eng.Execute("EXPLAIN " + c.stmt)
			if err != nil {
				b.Fatal(err)
			}
			if plan := res.Rows[0][0]; !strings.Contains(plan, c.wantOp) {
				b.Fatalf("expected %s in the plan:\n%s", c.wantOp, plan)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Execute(c.stmt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkJoinDict — the band-walk index join on the committed
// 600-row self-join (radius 1.5: unit-cost distances are integral, so
// d <= 1.5 iff d <= 1 and the walk floors the radius). An informational
// absolute entry in BENCH_baseline.json; the join_dict workload of
// BENCHMARK.json guards the same operator end to end. The plan shape is
// pinned — a silent planner change must fail the benchmark, not quietly
// re-label the number.
func BenchmarkJoinDict(b *testing.B) {
	const stmt = `SELECT a.id, b.id FROM dict a, dict b ON dist(a.seq, b.seq) <= 1.5 USING unit-edits WHERE a.id != b.id`
	eng := benchQueryEngine(b, 600, WithParallelism(1))
	res, err := eng.Execute("EXPLAIN " + stmt)
	if err != nil {
		b.Fatal(err)
	}
	if plan := res.Rows[0][0]; !strings.Contains(plan, "IndexJoin(") {
		b.Fatalf("expected IndexJoin( in the plan:\n%s", plan)
	}
	if _, err := eng.Execute(stmt); err != nil { // warm the statement cache
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Execute(stmt); err != nil {
			b.Fatal(err)
		}
	}
}

// mixedWorkload is the committed scan/filter-heavy statement mix the
// block-256-vs-block-1 CI gate runs: a weighted range scan (banded-DP
// verification per tuple), a residual-filter scan over the same
// predicate, and a pure equality-filter scan — the exact per-tuple
// loops block execution exists to accelerate. All three plan as
// Scan -> Filter (the "half" rule set is edit-like but not unit-cost,
// so the metric indexes are off the table).
var mixedWorkload = []string{
	`SELECT seq, dist FROM dict WHERE seq SIMILAR TO "abcdefg" WITHIN 0.5 USING half`,
	`SELECT seq, dist FROM dict WHERE seq SIMILAR TO "bacdefg" WITHIN 1 USING half AND seq != "bacdefg"`,
	`SELECT id FROM dict WHERE seq = "abcdefgzz"`,
}

// runMixed drives the committed mixed workload through an engine over
// 20 000 dictionary rows, pinned to one worker: the gates measure the
// pipeline, not the scheduler.
func runMixed(b *testing.B, opts ...EngineOption) {
	b.Helper()
	eng := benchQueryEngine(b, 20000, append(opts, WithParallelism(1))...)
	for _, stmt := range mixedWorkload {
		if _, err := eng.Execute(stmt); err != nil { // warm the statement cache
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Execute(mixedWorkload[i%len(mixedWorkload)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBlock1Mixed — the mixed workload at block size 1, the
// row-at-a-time case of the pipeline. Reference side of the CI-gated
// VectorizedMixed ratio.
func BenchmarkBlock1Mixed(b *testing.B) {
	runMixed(b, WithBatchSize(1))
}

// BenchmarkVectorizedMixed — the same workload at the default block
// size. BENCH_baseline.json gates its ratio to Block1Mixed with a hard
// (zero-tolerance) ceiling of 1.0: blocks of 256 must never be slower
// than one-row blocks on scan/filter-heavy work (measured ~0.85; see
// EXPERIMENTS.md for why this is not the old 1/1.3).
func BenchmarkVectorizedMixed(b *testing.B) {
	runMixed(b)
}

// BenchmarkTracingOffMixed / BenchmarkTracingOnMixed — the
// instrumentation-overhead pair: the committed mixed workload through
// the serving-default engine with engine-wide span collection off and
// on (what -slow-query-ms enables in cmd/simqd). BENCH_baseline.json
// gates the on/off ratio at 1.05 — tracing an entire production
// workload must cost at most 5%. The batch pipeline keeps this cheap by
// construction: span wrappers time per block, not per row, and the
// untraced build returns every operator unwrapped.
func BenchmarkTracingOffMixed(b *testing.B) {
	runMixed(b)
}

// BenchmarkTracingOnMixed — see BenchmarkTracingOffMixed.
func BenchmarkTracingOnMixed(b *testing.B) {
	runMixed(b, WithTracing(true))
}

// BenchmarkVectorizedMixedBatchSize — the block-size sweep behind the
// EXPERIMENTS.md table (1 / 64 / 256 / 1024).
func BenchmarkVectorizedMixedBatchSize(b *testing.B) {
	for _, size := range []int{1, 64, 256, 1024} {
		b.Run(fmt.Sprintf("batch=%d", size), func(b *testing.B) {
			runMixed(b, WithBatchSize(size))
		})
	}
}

// BenchmarkServingColdParsePlan — the per-statement cost with the
// statement cache disabled: every execution pays lex+parse, then plans
// and runs like any other. The query itself is an indexed LIMIT 1
// probe; one execution before the timer builds the relation's length
// view, so the timed loop measures lex+parse plus plan and band walk,
// of which the serving benchmarks below skip only lex+parse.
func BenchmarkServingColdParsePlan(b *testing.B) {
	const stmt = `SELECT seq FROM dict WHERE seq SIMILAR TO "abcdefgh" WITHIN 1 USING unit-edits LIMIT 1`
	eng := benchQueryEngine(b, 20000, WithPlanCacheSize(0))
	if _, err := eng.Execute(stmt); err != nil { // build the length view
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Execute(stmt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServingCacheHit — the same statement through a warm
// statement cache: lex+parse are skipped, planning is not. This is the
// CI-gated serving latency (see BENCH_baseline.json: its ratio to
// ServingColdParsePlan must not regress past the tolerance).
func BenchmarkServingCacheHit(b *testing.B) {
	const stmt = `SELECT seq FROM dict WHERE seq SIMILAR TO "abcdefgh" WITHIN 1 USING unit-edits LIMIT 1`
	eng := benchQueryEngine(b, 20000)
	if _, err := eng.Execute(stmt); err != nil { // warm the cache
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eng.Execute(stmt)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Stats.PlanCacheHit {
			b.Fatal("execution missed the statement cache")
		}
	}
}

// BenchmarkServingPrepared — the prepared-statement path: bind two
// parameters to the parsed template, plan and execute.
func BenchmarkServingPrepared(b *testing.B) {
	eng := benchQueryEngine(b, 20000)
	pq, err := eng.Prepare(`SELECT seq FROM dict WHERE seq SIMILAR TO ? WITHIN ? USING unit-edits LIMIT 1`)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := pq.Execute("abcdefgh", 1); err != nil { // warm the length view
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pq.Execute("abcdefgh", 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServingPreparedConcurrent — N goroutines sharing one
// PreparedQuery, the simqd serving pattern.
func BenchmarkServingPreparedConcurrent(b *testing.B) {
	eng := benchQueryEngine(b, 20000)
	pq, err := eng.Prepare(`SELECT seq FROM dict WHERE seq SIMILAR TO ? WITHIN ? USING unit-edits LIMIT 1`)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := pq.Execute("abcdefgh", 1); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := pq.Execute("abcdefgh", 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkF7ZeroClosure — F7: zero-cost closure computation.
func BenchmarkF7ZeroClosure(b *testing.B) {
	rs := rewrite.MustRuleSet("case-fold", []rewrite.Rule{
		{LHS: "a", RHS: "A", Cost: 0}, {LHS: "A", RHS: "a", Cost: 0},
	})
	for i := 0; i < b.N; i++ {
		if _, err := transform.ZeroClosure(rs, "aaaaaaaaaa", 0); err != nil {
			b.Fatal(err)
		}
	}
}

func benchTSDB(b *testing.B, count, length int) *tsdb.DB {
	b.Helper()
	return benchTSDBSeed(b, 99, count, length)
}

func benchTSDBSeed(b *testing.B, seed int64, count, length int) *tsdb.DB {
	b.Helper()
	db, err := tsdb.New(2)
	if err != nil {
		b.Fatal(err)
	}
	for _, s := range stock.Walks(seed, count, length) {
		if _, err := db.Add(s); err != nil {
			b.Fatal(err)
		}
	}
	if err := db.Build(); err != nil {
		b.Fatal(err)
	}
	return db
}

// BenchmarkC8LenIndexVsIndex — companion Fig. 8: plain vs
// identity-transformed index queries across sequence lengths.
func BenchmarkC8LenIndexVsIndex(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		db := benchTSDB(b, 1000, n)
		q := stock.Walk(rand.New(rand.NewSource(8)), n)
		ident := tsdb.Identity(n)
		b.Run(fmt.Sprintf("plain-n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := db.RangeIndex(q, nil, 0.5); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("identityT-n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := db.RangeIndex(q, ident, 0.5); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkC9CountIndexVsIndex — companion Fig. 9: the same pair across
// relation sizes.
func BenchmarkC9CountIndexVsIndex(b *testing.B) {
	for _, count := range []int{500, 2000, 8000} {
		db := benchTSDB(b, count, 128)
		q := stock.Walk(rand.New(rand.NewSource(9)), 128)
		ident := tsdb.Identity(128)
		b.Run(fmt.Sprintf("plain-%d", count), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := db.RangeIndex(q, nil, 0.5); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("identityT-%d", count), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := db.RangeIndex(q, ident, 0.5); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkC10LenIndexVsScan — companion Fig. 10: index vs scan with a
// moving-average transformation across sequence lengths.
func BenchmarkC10LenIndexVsScan(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		db := benchTSDB(b, 1000, n)
		q := stock.Walk(rand.New(rand.NewSource(10)), n)
		mavg, err := tsdb.MovingAvg(n, 20)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("index-n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := db.RangeIndex(q, mavg, 0.5); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("scan-n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := db.RangeScan(q, mavg, 0.5); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkC11CountIndexVsScan — companion Fig. 11: index vs scan
// across relation sizes.
func BenchmarkC11CountIndexVsScan(b *testing.B) {
	mavg, err := tsdb.MovingAvg(128, 20)
	if err != nil {
		b.Fatal(err)
	}
	for _, count := range []int{500, 2000, 8000} {
		db := benchTSDB(b, count, 128)
		q := stock.Walk(rand.New(rand.NewSource(11)), 128)
		b.Run(fmt.Sprintf("index-%d", count), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := db.RangeIndex(q, mavg, 0.5); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("scan-%d", count), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := db.RangeScan(q, mavg, 0.5); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkC12AnswerSetSize — companion Fig. 12: threshold sweep on the
// 1067-series relation.
func BenchmarkC12AnswerSetSize(b *testing.B) {
	db := benchTSDB(b, 1067, 128)
	q := stock.Walk(rand.New(rand.NewSource(12)), 128)
	for _, eps := range []float64{1, 8, 14} {
		b.Run(fmt.Sprintf("index-eps%g", eps), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := db.RangeIndex(q, nil, eps); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("scan-eps%g", eps), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := db.RangeScan(q, nil, eps); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCT1JoinMethods — companion Table 1: the four self-join
// methods (reduced population so method a stays benchable).
func BenchmarkCT1JoinMethods(b *testing.B) {
	db := benchTSDB(b, 300, 128)
	mavg, err := tsdb.MovingAvg(128, 20)
	if err != nil {
		b.Fatal(err)
	}
	const eps = 1.4
	for _, m := range []tsdb.JoinMethod{tsdb.JoinScanFull, tsdb.JoinScanAbort, tsdb.JoinIndex, tsdb.JoinIndexT} {
		t := mavg
		if m == tsdb.JoinIndex {
			t = nil
		}
		b.Run(m.String()[:1], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := db.SelfJoin(m, t, eps); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// tsRangeBench is the ts_range workload of bench/ in miniature: 12 000
// random walks of 128 points under the 20-day moving average, k = 2,
// eps = 2.0, and as queries the smoothed, lightly perturbed walks
// themselves (every 60th).
func tsRangeBench(b *testing.B) (*tsdb.DB, [][]float64, *tsdb.Transform) {
	b.Helper()
	db := benchTSDBSeed(b, 1, 12000, 128)
	mavg, err := tsdb.MovingAvg(128, 20)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	var queries [][]float64
	for i := 0; i < db.Len(); i += 60 {
		series, err := db.Series(i)
		if err != nil {
			b.Fatal(err)
		}
		q := make([]float64, 128)
		for j, x := range series {
			q[j] = x + rng.NormFloat64()*0.01
		}
		if q, err = tsdb.MovingAverage(q, 20); err != nil {
			b.Fatal(err)
		}
		queries = append(queries, q)
	}
	return db, queries, mavg
}

const tsRangeEps = 2.0

// BenchmarkTSRangeIndex and BenchmarkTSRangeScan are the paper's headline
// pair — a transformed range query through the k-index against the
// early-abort sequential scan — on the ts_range shape. BENCH_baseline.json
// gates Index at half of Scan.
func BenchmarkTSRangeIndex(b *testing.B) {
	db, queries, mavg := tsRangeBench(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := db.RangeIndex(queries[i%len(queries)], mavg, tsRangeEps); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTSRangeBuild times packing the k-index over the 12 000
// feature points of the ts_range shape; the feature points themselves
// (Add, FeaturePoint) are computed once, outside the timing.
func BenchmarkTSRangeBuild(b *testing.B) {
	db, _, _ := tsRangeBench(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.Build(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTSRangeScan is the scan side of BenchmarkTSRangeIndex.
func BenchmarkTSRangeScan(b *testing.B) {
	db, queries, mavg := tsRangeBench(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := db.RangeScan(queries[i%len(queries)], mavg, tsRangeEps); err != nil {
			b.Fatal(err)
		}
	}
}

// nearestWordsBench is the words_nearest workload of bench/ in
// miniature: the 20 000 words of `datagen -kind words -seed 1` and 256
// targets, each a random row perturbed by 0-2 edits.
func nearestWordsBench(b *testing.B) (*relation.Relation, []string) {
	b.Helper()
	a := seq.MustAlphabet("abcdefghij")
	made := a.PlantedWords(rand.New(rand.NewSource(1)), 20000)
	rel := relation.New("words")
	for _, w := range made {
		rel.Insert(w, nil)
	}
	rng := rand.New(rand.NewSource(2))
	var targets []string
	for len(targets) < 256 {
		if w := a.RandomEdits(rng, made[rng.Intn(len(made))], rng.Intn(3)); w != "" {
			targets = append(targets, w)
		}
	}
	return rel, targets
}

// preparedWords prepares stmt over the words of nearestWordsBench and
// runs it once, which builds the access structure.
func preparedWords(b *testing.B, stmt string) (*query.PreparedQuery, *query.Result, []string) {
	b.Helper()
	rel, targets := nearestWordsBench(b)
	cat := relation.NewCatalog()
	cat.Add(rel)
	eng := query.NewEngine(cat)
	if err := eng.RegisterRuleSet(rewrite.MustRuleSet("edits", rewrite.UnitEdits("abcdefghijklmnopqrstuvwxyz").Rules())); err != nil {
		b.Fatal(err)
	}
	pq, err := eng.Prepare(stmt)
	if err != nil {
		b.Fatal(err)
	}
	res, err := pq.Execute(targets[0])
	if err != nil {
		b.Fatal(err)
	}
	return pq, res, targets
}

// BenchmarkNearestWords and BenchmarkDistanceAllWords are the top-k
// floor: a prepared NEAREST 10 may prune rows and abandon distances, so
// it must not cost more than computing every distance once.
// BENCH_baseline.json gates NearestWords at 1.0 x DistanceAllWords.
func BenchmarkNearestWords(b *testing.B) {
	pq, _, targets := preparedWords(b, `SELECT id, seq, dist FROM words WHERE seq NEAREST 10 TO ? USING edits`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := pq.Execute(targets[i%len(targets)])
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 10 {
			b.Fatalf("%d rows, want 10", len(res.Rows))
		}
	}
}

// BenchmarkWideWords is the words_wide workload in miniature: a
// prepared WITHIN 5 ... ORDER BY dist over the same words and targets,
// about 1 950 rows per reply. The band-walk leaf sorts its matches by
// (dist, id) itself, so the plan is pinned to an IndexRange carrying
// order=dist with no OrderByDist above it; what is left per reply is
// the walk, one sort and the projection. Informational in
// BENCH_baseline.json; the words_wide workload guards it end to end.
func BenchmarkWideWords(b *testing.B) {
	pq, res, targets := preparedWords(b, `SELECT id, seq, dist FROM words WHERE seq SIMILAR TO ? WITHIN 5 USING edits ORDER BY dist`)
	if !strings.Contains(res.Plan(), "order=dist)") || strings.Contains(res.Plan(), "OrderByDist") {
		b.Fatalf("expected a leaf-ordered IndexRange and no OrderByDist:\n%s", res.Plan())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pq.Execute(targets[i%len(targets)]); err != nil {
			b.Fatal(err)
		}
	}
}

var distanceAllSink int

// BenchmarkDistanceAllWords is the unpruned side of BenchmarkNearestWords:
// one exact Myers distance per visible row of the same snapshot, read
// through the block cursor, nothing kept.
func BenchmarkDistanceAllWords(b *testing.B) {
	rel, targets := nearestWordsBench(b)
	snap := rel.Snapshot()
	var blk relation.Block
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dp := editdp.NewQueryDP(targets[i%len(targets)])
		cur := snap.Shard(0, 1)
		sum := 0
		for n := cur.NextBlock(&blk, 256); n > 0; n = cur.NextBlock(&blk, 256) {
			for _, s := range blk.Seqs[:n] {
				sum += dp.Distance(s)
			}
		}
		distanceAllSink = sum
	}
}

// nearestVecsBench is the vec_nearest workload of bench/ in miniature:
// the 20 000 64-dim vectors of `datagen -kind vectors -seed 1` (16
// Gaussian clusters, N(0, 0.1) per component) and 256 targets, each a
// random row perturbed by N(0, 0.02) per component.
func nearestVecsBench(b *testing.B) (*relation.Relation, []metric.Vector) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	centroids := make([][]float64, 16)
	for i := range centroids {
		centroids[i] = make([]float64, 64)
		for j := range centroids[i] {
			centroids[i][j] = rng.Float64()*2 - 1
		}
	}
	rel := relation.New("vecs")
	for i := 0; i < 20000; i++ {
		c := centroids[rng.Intn(len(centroids))]
		v := make(metric.Vector, len(c))
		for j := range v {
			v[j] = float32(c[j] + rng.NormFloat64()*0.1)
		}
		rel.InsertOne(relation.InsertRow{Vec: v})
	}
	rows := rel.Tuples()
	rng = rand.New(rand.NewSource(2))
	targets := make([]metric.Vector, 256)
	for i := range targets {
		base := rows[rng.Intn(len(rows))].Vec
		v := make(metric.Vector, len(base))
		for j, x := range base {
			v[j] = x + float32(rng.NormFloat64()*0.02)
		}
		targets[i] = v
	}
	return rel, targets
}

// BenchmarkNearestVecs and BenchmarkDistanceAllVecs are the vector
// top-k floor, the twins of NearestWords and DistanceAllWords: a
// prepared NEAREST 10 walks the vector view and may prune whole
// subtrees, so it must cost well under one distance per row.
// BENCH_baseline.json gates the ratio. The plan is pinned to the view.
func BenchmarkNearestVecs(b *testing.B) { benchNearestVecs(b, "l2") }

// BenchmarkNearestVecsCosine and BenchmarkDistanceAllVecsCosine are the
// same floor under cosine, whose view prunes by the chord.
func BenchmarkNearestVecsCosine(b *testing.B) { benchNearestVecs(b, "cosine") }

func benchNearestVecs(b *testing.B, metricName string) {
	rel, targets := nearestVecsBench(b)
	cat := relation.NewCatalog()
	cat.Add(rel)
	pq, err := query.NewEngine(cat).Prepare(`SELECT id, dist FROM vecs WHERE vec NEAREST 10 TO ? USING ` + metricName)
	if err != nil {
		b.Fatal(err)
	}
	res, err := pq.Execute(metric.Format(targets[0]))
	if err != nil {
		b.Fatal(err)
	}
	if !strings.Contains(res.Plan(), "VecNearestK(vecs via vecview") {
		b.Fatalf("expected the vector view's VecNearestK:\n%s", res.Plan())
	}
	args := make([]string, len(targets))
	for i, v := range targets {
		args[i] = metric.Format(v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := pq.Execute(args[i%len(args)])
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 10 {
			b.Fatalf("%d rows, want 10", len(res.Rows))
		}
	}
}

// BenchmarkVecRangeAll walks the vector view of the same vectors at a
// radius past the data's diameter, so every leaf is verified and every
// row matches: the view's worst case. BENCH_baseline.json gates it at
// 1.1x DistanceAllVecs — a fully visited view must stay a scan.
func BenchmarkVecRangeAll(b *testing.B) {
	rel, targets := nearestVecsBench(b)
	l2, _ := metric.Lookup("l2")
	rel.VecView(l2)
	snap := rel.Snapshot()
	runtime.GC() // the set-up's garbage is not the walk's
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		r := math.MaxFloat64
		snap.VecWalk(context.Background(), l2, targets[i%len(targets)], &r, func(rows []*relation.Row, _ []float64) { n += len(rows) })
		if n != snap.Len() {
			b.Fatalf("%d rows within the diameter, want %d", n, snap.Len())
		}
		distanceAllSink = n
	}
}

// BenchmarkDistanceAllVecs is the unpruned side of NearestVecs and
// VecRangeAll: one DistBatch over the snapshot's vector column, nothing
// kept.
func BenchmarkDistanceAllVecs(b *testing.B) { benchDistanceAllVecs(b, "l2") }

// BenchmarkDistanceAllVecsCosine is the unpruned side of
// NearestVecsCosine: one cosine DistBatch over the same column.
func BenchmarkDistanceAllVecsCosine(b *testing.B) { benchDistanceAllVecs(b, "cosine") }

func benchDistanceAllVecs(b *testing.B, metricName string) {
	rel, targets := nearestVecsBench(b)
	m, _ := metric.Lookup(metricName)
	var col []metric.Vector
	for _, t := range rel.Tuples() {
		col = append(col, t.Vec)
	}
	out := make([]float64, len(col))
	runtime.GC() // as in BenchmarkVecRangeAll
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		metric.DistBatch(m, targets[i%len(targets)], col, out)
		distanceAllSink = int(out[0])
	}
}

// BenchmarkLoadWords times relation.Load of the Store text of the
// 20 000 NearestWords words, the set-up every `simqd -load` of a word
// file pays before it serves.
func BenchmarkLoadWords(b *testing.B) {
	rel, _ := nearestWordsBench(b)
	benchLoad(b, rel)
}

// BenchmarkLoadVecs times relation.Load of the Store text of the
// 20 000 x 64-dim NearestVecs vectors.
func BenchmarkLoadVecs(b *testing.B) {
	rel, _ := nearestVecsBench(b)
	benchLoad(b, rel)
}

func benchLoad(b *testing.B, rel *relation.Relation) {
	var text strings.Builder
	if err := rel.Store(&text); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(text.Len()))
	b.ReportAllocs()
	runtime.GC()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := relation.Load("r", strings.NewReader(text.String()))
		if err != nil {
			b.Fatal(err)
		}
		if got.Len() != rel.Len() {
			b.Fatalf("loaded %d rows, want %d", got.Len(), rel.Len())
		}
	}
}

// BenchmarkBuildVecView times the first-use build of the l2 vector view
// over the 20 000 x 64-dim NearestVecs vectors, the rest of a vector
// relation's set-up before its first answer.
func BenchmarkBuildVecView(b *testing.B) {
	rel, _ := nearestVecsBench(b)
	rows, next := rel.DumpState()
	l2, _ := metric.Lookup("l2")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fresh := relation.Rebuild("vecs", rows, next)
		runtime.GC()
		b.StartTimer()
		fresh.VecView(l2)
	}
}
