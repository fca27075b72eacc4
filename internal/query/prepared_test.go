package query

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/rewrite"
)

// freshEngine returns a new engine over e's catalog with e's rule sets
// and configuration: what a just-started process would plan.
func freshEngine(t testing.TB, e *Engine) *Engine {
	t.Helper()
	f := NewEngine(e.catalog, WithBatchSize(e.batchSize), WithParallelism(e.parallelism),
		WithParallelMinRows(e.parallelMinRows))
	e.mu.RLock()
	defer e.mu.RUnlock()
	for _, ent := range e.rules {
		if err := f.RegisterRuleSet(ent.rs); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

// checkLikeFresh executes and explains src bound to args through e's
// statement and through a fresh engine's, and requires the same EXPLAIN,
// the same executed plan and the same rows. It returns e's result.
func checkLikeFresh(t *testing.T, e *Engine, src string, args ...any) *Result {
	t.Helper()
	run := func(e *Engine) (*Result, string) {
		t.Helper()
		pq, err := e.Prepare(src)
		if err != nil {
			t.Fatal(err)
		}
		res, err := pq.Execute(args...)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := pq.Explain(args...)
		if err != nil {
			t.Fatal(err)
		}
		return res, plan
	}
	got, gotPlan := run(e)
	want, wantPlan := run(freshEngine(t, e))
	if gotPlan != wantPlan || got.Plan() != want.Plan() {
		t.Fatalf("%s %v: EXPLAIN differs from a fresh engine's:\n%s\nfresh:\n%s", src, args, gotPlan, wantPlan)
	}
	if !reflect.DeepEqual(got.Rows, want.Rows) {
		t.Fatalf("%s %v: rows %v, a fresh engine's %v", src, args, got.Rows, want.Rows)
	}
	return got
}

func TestParseParameters(t *testing.T) {
	q, err := Parse(`SELECT seq FROM words WHERE seq SIMILAR TO ? WITHIN ? USING unit-edits LIMIT ?`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Params) != 3 {
		t.Fatalf("params = %v, want 3 positional", q.Params)
	}
	for i, p := range q.Params {
		if p.Idx != i || p.Name != "" {
			t.Errorf("param %d = %+v, want positional index %d", i, p, i)
		}
	}
	if q.LimitParam == nil || q.Limit != 0 {
		t.Errorf("LIMIT parameter not captured: limit=%d param=%v", q.Limit, q.LimitParam)
	}
	sim, ok := q.Where.(SimExpr)
	if !ok {
		t.Fatalf("where = %T", q.Where)
	}
	if sim.Target.Param == nil || sim.RadiusParam == nil {
		t.Errorf("sim params not captured: %+v", sim)
	}

	named, err := Parse(`SELECT seq FROM words WHERE seq SIMILAR TO :target WITHIN :radius USING unit-edits`)
	if err != nil {
		t.Fatal(err)
	}
	if len(named.Params) != 2 || named.Params[0].Name != "target" || named.Params[1].Name != "radius" {
		t.Fatalf("named params = %v", named.Params)
	}

	if _, err := Parse(`SELECT seq FROM words WHERE seq SIMILAR TO ? WITHIN :radius USING unit-edits`); err == nil {
		t.Error("mixing positional and named parameters parsed")
	}
	if _, err := Parse(`SELECT seq FROM words WHERE seq SIMILAR TO "x" WITHIN : USING unit-edits`); err == nil {
		t.Error("bare ':' lexed")
	}
}

func TestExecuteRejectsUnboundParameters(t *testing.T) {
	e := testEngine(t)
	_, err := e.Execute(`SELECT seq FROM words WHERE seq SIMILAR TO ? WITHIN 1 USING unit-edits`)
	if err == nil || !strings.Contains(err.Error(), "Prepare") {
		t.Errorf("Execute on parameterized statement: err = %v, want prepare hint", err)
	}
}

func TestPreparedPositional(t *testing.T) {
	e := testEngine(t)
	pq, err := e.Prepare(`SELECT seq, dist FROM words WHERE seq SIMILAR TO ? WITHIN ? USING unit-edits ORDER BY dist LIMIT ?`)
	if err != nil {
		t.Fatal(err)
	}
	if n := pq.NumParams(); n != 3 {
		t.Fatalf("NumParams = %d, want 3", n)
	}
	res, err := pq.Execute("color", 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := e.Execute(`SELECT seq, dist FROM words WHERE seq SIMILAR TO "color" WITHIN 1 USING unit-edits ORDER BY dist LIMIT 10`)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Rows, direct.Rows) {
		t.Errorf("prepared rows %v != direct rows %v", res.Rows, direct.Rows)
	}

	// JSON-style float arguments must bind too.
	res2, err := pq.Execute("color", 1.0, 10.0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res2.Rows, res.Rows) {
		t.Errorf("float-bound rows differ: %v vs %v", res2.Rows, res.Rows)
	}

	if _, err := pq.Execute("color"); err == nil {
		t.Error("missing arguments accepted")
	}
	if _, err := pq.Execute("color", -1, 10); err == nil {
		t.Error("negative radius accepted")
	}
	if _, err := pq.Execute("color", 1, -2); err == nil {
		t.Error("negative limit accepted")
	}
	// The planner reads Limit == 0 as "no limit": a bound 0 used to stream
	// the whole relation.
	if _, err := pq.Execute("color", 1, 0); err == nil || !strings.Contains(err.Error(), "bad LIMIT argument") {
		t.Errorf("LIMIT ? = 0: err = %v, want a bad LIMIT argument error", err)
	}
	if _, err := pq.ExecuteNamed(map[string]any{"x": 1}); err == nil {
		t.Error("ExecuteNamed on positional statement accepted")
	}
}

func TestPreparedNamed(t *testing.T) {
	e := testEngine(t)
	pq, err := e.Prepare(`SELECT seq FROM words WHERE seq SIMILAR TO :target WITHIN :radius USING unit-edits`)
	if err != nil {
		t.Fatal(err)
	}
	if names := pq.ParamNames(); !reflect.DeepEqual(names, []string{"target", "radius"}) {
		t.Fatalf("ParamNames = %v", names)
	}
	res, err := pq.ExecuteNamed(map[string]any{"target": "color", "radius": 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Error("no rows")
	}
	if _, err := pq.ExecuteNamed(map[string]any{"target": "color"}); err == nil {
		t.Error("missing named argument accepted")
	}
	if _, err := pq.Execute("color", 1); err == nil {
		t.Error("positional Execute on named statement accepted")
	}
}

// TestPreparedSkipsReplanning: re-executing a prepared statement skips
// the parser but never the planner — after same-radius rebinds, a radius
// change and a catalog mutation, each execution's EXPLAIN and rows equal
// a fresh engine's.
func TestPreparedSkipsReplanning(t *testing.T) {
	e := bigEngine(t)
	const stmt = `SELECT seq FROM dict WHERE seq SIMILAR TO ? WITHIN ? USING unit-edits`
	for i := 0; i < 5; i++ {
		checkLikeFresh(t, e, stmt, fmt.Sprintf("word%02d", i), 1)
	}
	checkLikeFresh(t, e, stmt, "wordxx", 2)

	rel, _ := e.Catalog().Lookup("dict")
	rel.Insert("wordyy", nil)
	if res := checkLikeFresh(t, e, stmt, "wordyy", 1); !reflect.DeepEqual(res.Rows, [][]string{{"wordyy"}}) {
		t.Errorf("after catalog mutation: rows %v, want the inserted wordyy", res.Rows)
	}
}

// TestPreparedConcurrent exercises N goroutines sharing one
// PreparedQuery (run under -race in CI) while one writer commits words
// farther than the radius from the target and another re-registers the
// statement's rule set with the same rules: every execution plans
// afresh against both, and every reader still sees exactly the answer.
func TestPreparedConcurrent(t *testing.T) {
	e := bigEngine(t)
	pq, err := e.Prepare(`SELECT seq, dist FROM dict WHERE seq SIMILAR TO ? WITHIN ? USING unit-edits ORDER BY dist`)
	if err != nil {
		t.Fatal(err)
	}
	want, err := pq.Execute("abcdef", 2)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	const iters = 20
	stop := make(chan struct{})
	var writers sync.WaitGroup
	writers.Add(2)
	go func() {
		defer writers.Done()
		rel, _ := e.Catalog().Lookup("dict")
		for i := 0; i < 20000; i++ { // bounded: the relation stays small
			select {
			case <-stop:
				return
			default:
			}
			// Three letters longer than the target: at least 3 edits away.
			rel.Insert("abcdef"+strings.Repeat(string(rune('a'+i%26)), 3), nil)
		}
	}()
	go func() {
		defer writers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := e.RegisterRuleSet(rewrite.UnitEdits("abcdefghijklmnopqrstuvwxyz")); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				res, err := pq.Execute("abcdef", 2)
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(res.Rows, want.Rows) {
					errs <- fmt.Errorf("rows diverged: %v vs %v", res.Rows, want.Rows)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	writers.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestPlanCacheHitSkipsParse: the second Execute of the same statement
// must be served from the plan cache, observable through Result.Stats
// and Engine.CacheStats, and must return identical rows.
func TestPlanCacheHitSkipsParse(t *testing.T) {
	e := testEngine(t)
	const stmt = `SELECT seq FROM words WHERE seq SIMILAR TO "color" WITHIN 1 USING unit-edits`
	first, err := e.Execute(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.PlanCacheHit {
		t.Error("first execution reported a cache hit")
	}
	// Whitespace differences normalize to the same key.
	second, err := e.Execute("SELECT seq  FROM words\n WHERE seq SIMILAR TO \"color\" WITHIN 1 USING unit-edits")
	if err != nil {
		t.Fatal(err)
	}
	if !second.Stats.PlanCacheHit {
		t.Error("second execution missed the plan cache")
	}
	if !reflect.DeepEqual(first.Rows, second.Rows) {
		t.Errorf("cached rows differ: %v vs %v", first.Rows, second.Rows)
	}
	cs := e.CacheStats()
	if cs.Hits != 1 || cs.Misses < 1 || cs.Entries < 1 {
		t.Errorf("CacheStats = %+v, want 1 hit and >=1 miss/entry", cs)
	}
}

// TestPrepareSharesStatementPerText: every statement is one
// PreparedQuery per normalized text — Prepare hands out the same one for
// whitespace variants (and Execute runs it), a different one for texts
// that differ inside a literal, and a fresh one per call with the cache
// disabled.
func TestPrepareSharesStatementPerText(t *testing.T) {
	e := testEngine(t)
	const stmt = `SELECT seq FROM words WHERE seq SIMILAR TO ? WITHIN 1 USING unit-edits`
	a, err := e.Prepare(stmt)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{
		"SELECT seq  FROM words\n\tWHERE seq SIMILAR TO ? WITHIN 1 USING unit-edits",
		"  \r\nSELECT seq FROM words WHERE seq SIMILAR TO ?\tWITHIN 1 USING unit-edits \n",
	} {
		b, err := e.Prepare(v)
		if err != nil {
			t.Fatal(err)
		}
		if b != a {
			t.Errorf("Prepare(%q) returned a second statement for one normalized text", v)
		}
	}
	one, err := e.Prepare(`SELECT seq FROM words WHERE seq = "a b"`)
	if err != nil {
		t.Fatal(err)
	}
	two, err := e.Prepare(`SELECT seq FROM words WHERE seq = "a  b"`)
	if err != nil {
		t.Fatal(err)
	}
	if one == two {
		t.Error("texts that differ inside a literal share a statement")
	}
	if _, err := a.Execute("color"); err != nil {
		t.Fatal(err)
	}
	if res, err := e.Execute(`SELECT seq FROM words WHERE seq = "a b"`); err != nil {
		t.Fatal(err)
	} else if !res.Stats.PlanCacheHit {
		t.Error("Execute of a prepared text parsed it again instead of running its statement")
	}

	off := testEngine(t, WithPlanCacheSize(0))
	x, err := off.Prepare(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if y, err := off.Prepare(stmt); err != nil || y == x {
		t.Errorf("with the cache disabled Prepare reused a statement (err %v)", err)
	}
}

// TestPlanCacheLiteralWhitespaceDistinct: normalization must never
// collapse whitespace inside string literals — two statements that
// differ only there are different queries and must not share a cache
// entry.
func TestPlanCacheLiteralWhitespaceDistinct(t *testing.T) {
	e := testEngine(t)
	rel, _ := e.Catalog().Lookup("words")
	rel.Insert("a b", nil)
	rel.Insert("a  b", nil)
	one, err := e.Execute(`SELECT seq FROM words WHERE seq = "a b"`)
	if err != nil {
		t.Fatal(err)
	}
	two, err := e.Execute(`SELECT seq FROM words WHERE seq = "a  b"`)
	if err != nil {
		t.Fatal(err)
	}
	if two.Stats.PlanCacheHit {
		t.Error("statements differing inside a literal shared a cache entry")
	}
	if len(one.Rows) != 1 || one.Rows[0][0] != "a b" {
		t.Errorf("single-space query rows = %v", one.Rows)
	}
	if len(two.Rows) != 1 || two.Rows[0][0] != "a  b" {
		t.Errorf("double-space query rows = %v", two.Rows)
	}
	// Escaped quotes inside literals must not derail the scanner.
	esc, err := e.Execute("SELECT seq FROM words WHERE seq = \"a\\\"  b\"")
	if err != nil {
		t.Fatal(err)
	}
	if len(esc.Rows) != 0 {
		t.Errorf("escaped-quote query rows = %v, want none", esc.Rows)
	}
}

// TestPlanCacheHitErrorNotRetried: once a cached plan builds, a runtime
// error is final — the engine must not fall back and execute the whole
// statement a second time.
func TestPlanCacheHitErrorNotRetried(t *testing.T) {
	e := testEngine(t)
	// dist is unavailable without a similarity predicate, so this errors
	// during execution (not planning) on the first matching row.
	const stmt = `SELECT dist FROM words WHERE lang = "en"`
	if _, err := e.Execute(stmt); err == nil {
		t.Fatal("statement unexpectedly succeeded")
	}
	before, err := e.Execute(`SELECT seq FROM words LIMIT 1`)
	if err != nil {
		t.Fatal(err)
	}
	_ = before
	base := e.CacheStats()
	if _, err := e.Execute(stmt); err == nil {
		t.Fatal("cached statement unexpectedly succeeded")
	}
	after := e.CacheStats()
	if hits := after.Hits - base.Hits; hits != 1 {
		t.Errorf("cache hits for erroring statement = %d, want exactly 1 (no fall-through retry)", hits)
	}
	if misses := after.Misses - base.Misses; misses != 0 {
		t.Errorf("cache misses after hit = %d, want 0 (error must not re-enter the uncached path)", misses)
	}
}

// TestPlanCacheInvalidation: a catalog mutation or a rule-set
// registration evicts nothing from the statement cache — the statement
// stays a cache hit — yet the next execution plans against the new
// state: its EXPLAIN and rows equal a fresh engine's.
func TestPlanCacheInvalidation(t *testing.T) {
	e := testEngine(t)
	const stmt = `SELECT seq FROM words WHERE seq SIMILAR TO "zzzap" WITHIN 0 USING unit-edits`
	if _, err := e.Execute(stmt); err != nil {
		t.Fatal(err)
	}
	rel, _ := e.Catalog().Lookup("words")
	rel.Insert("zzzap", nil)
	res, err := e.Execute(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.PlanCacheHit {
		t.Error("a catalog mutation evicted the statement")
	}
	if len(res.Rows) != 1 {
		t.Errorf("rows = %v, want the freshly inserted tuple", res.Rows)
	}
	checkLikeFresh(t, e, stmt)

	if err := e.RegisterRuleSet(rewrite.UnitEdits("xyz")); err != nil {
		t.Fatal(err)
	}
	res, err = e.Execute(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.PlanCacheHit {
		t.Error("a rule-set registration evicted the statement")
	}
	checkLikeFresh(t, e, stmt)
}

// TestReregisteredRuleSetReplans: the registry decides once, at
// registration, whether a rule set is unit-cost. Re-registering
// unit-edits as a weighted set under the same name must turn the cached
// band-walk plan into a scan with the weighted distances, so a flag that
// outlived its rule set fails here.
func TestReregisteredRuleSetReplans(t *testing.T) {
	e := testEngine(t)
	const stmt = `SELECT seq, dist FROM words WHERE seq SIMILAR TO "color" WITHIN 1 USING unit-edits`
	for i := 0; i < 2; i++ {
		res, err := e.Execute(stmt)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(res.Plan(), "IndexRange(words via lengthview") || len(res.Rows) < 2 || res.Stats.PlanCacheHit != (i == 1) {
			t.Fatalf("run %d: want the band walk with several matches, cached on the second run:\n%s\n%v", i, res.Plan(), res.Rows)
		}
	}
	var doubled []rewrite.Rule
	for _, r := range rewrite.UnitEdits("abcdefghijklmnopqrstuvwxyz").Rules() {
		r.Cost = 2
		doubled = append(doubled, r)
	}
	if err := e.RegisterRuleSet(rewrite.MustRuleSet("unit-edits", doubled)); err != nil {
		t.Fatal(err)
	}
	res := checkLikeFresh(t, e, stmt)
	if !strings.Contains(res.Plan(), "Scan(words)") || strings.Contains(res.Plan(), "IndexRange") {
		t.Fatalf("a weighted unit-edits still plans the band walk:\n%s", res.Plan())
	}
	// Every edit now costs 2, so only the exact match is within 1.
	if len(res.Rows) != 1 || res.Rows[0][0] != "color" || res.Rows[0][1] != "0" {
		t.Fatalf("rows = %v, want only color at distance 0", res.Rows)
	}
}

// TestPlanCacheDisabled: WithPlanCacheSize(0) must turn caching off.
func TestPlanCacheDisabled(t *testing.T) {
	e := testEngine(t, WithPlanCacheSize(0))
	const stmt = `SELECT seq FROM words`
	for i := 0; i < 3; i++ {
		res, err := e.Execute(stmt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.PlanCacheHit {
			t.Error("cache hit with caching disabled")
		}
	}
	if cs := e.CacheStats(); cs != (CacheStats{}) {
		t.Errorf("CacheStats with caching disabled = %+v, want zero", cs)
	}
}

// TestPlanCacheLRUEviction: a capacity-1 cache must evict, and a put
// racing an earlier one for the same text keeps the first statement.
func TestPlanCacheLRUEviction(t *testing.T) {
	c := newPlanCache(1)
	a, b := &PreparedQuery{}, &PreparedQuery{}
	// Find two keys in the same shard so the per-shard capacity bites.
	keyA := "a"
	keyB := ""
	for i := 0; ; i++ {
		k := fmt.Sprintf("b%d", i)
		if c.shard(k) == c.shard(keyA) {
			keyB = k
			break
		}
	}
	if got := c.put(keyA, a); got != a {
		t.Error("put into an empty cache did not return its statement")
	}
	if got := c.put(keyA, b); got != a {
		t.Error("a second put for one text replaced the first statement")
	}
	c.put(keyB, b)
	if _, ok := c.get(keyA); ok {
		t.Error("LRU entry survived eviction")
	}
	if got, ok := c.get(keyB); !ok || got != b {
		t.Error("fresh entry evicted")
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
}

// TestWithParallelismClamps is the regression test for non-positive
// worker counts: they must clamp to 1, not be stored verbatim.
func TestWithParallelismClamps(t *testing.T) {
	for _, n := range []int{0, -1, -100} {
		if w := testEngine(t, WithParallelism(n)).parallelism; w != 1 {
			t.Errorf("WithParallelism(%d) stored %d, want clamp to 1", n, w)
		}
	}
	if w := testEngine(t, WithParallelism(4)).parallelism; w != 4 {
		t.Errorf("WithParallelism(4) stored %d", w)
	}
}

// TestPreparedExplain: the prepared path supports EXPLAIN with bound
// values.
func TestPreparedExplain(t *testing.T) {
	e := testEngine(t)
	pq, err := e.Prepare(`SELECT seq FROM words WHERE seq SIMILAR TO ? WITHIN ? USING unit-edits`)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := pq.Explain("color", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "IndexRange") {
		t.Errorf("plan = %q, want IndexRange", plan)
	}
}

// TestPrepareValidatesEagerly: unknown relations and rule sets fail at
// Prepare, not at first execution.
func TestPrepareValidatesEagerly(t *testing.T) {
	e := testEngine(t)
	if _, err := e.Prepare(`SELECT seq FROM nosuch WHERE seq SIMILAR TO ? WITHIN 1 USING unit-edits`); err == nil {
		t.Error("unknown relation prepared")
	}
	if _, err := e.Prepare(`SELECT seq FROM words WHERE seq SIMILAR TO ? WITHIN 1 USING nosuch`); err == nil {
		t.Error("unknown rule set prepared")
	}
}

// TestPreparedKernelFollowsBinding: the distance kernel a prepared
// plan names follows each binding — Myers for a target inside the rule
// alphabet, TargetDP for one outside it — in EXPLAIN, equal to the
// literal statement's, and in simq_kernel_dispatch_total, for WITHIN
// and NEAREST alike.
func TestPreparedKernelFollowsBinding(t *testing.T) {
	e := testEngine(t)
	dispatched := func(kernel string) int64 {
		return obs.Default.Counter(`simq_kernel_dispatch_total{kernel="`+kernel+`"}`,
			"Plan executions dispatched to a distance kernel.").Value()
	}
	for _, stmt := range []string{
		`SELECT seq FROM words WHERE seq SIMILAR TO ? WITHIN 1 USING unit-edits`,
		`SELECT seq FROM words WHERE seq NEAREST 3 TO ? USING unit-edits`,
	} {
		pq, err := e.Prepare(stmt)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct{ target, kernel string }{
			{"color", "myers"}, {"c0lor", "targetdp"}, {"color", "myers"},
		} {
			plan, err := pq.Explain(c.target)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.HasSuffix(plan, "(kernel="+c.kernel+")") {
				t.Errorf("%s bound to %q: plan names the wrong kernel, want %s:\n%s", stmt, c.target, c.kernel, plan)
			}
			literal, err := e.Execute("EXPLAIN " + strings.Replace(stmt, "?", strconv.Quote(c.target), 1))
			if err != nil {
				t.Fatal(err)
			}
			if literal.Plan() != plan {
				t.Errorf("%s bound to %q:\n%s\nthe literal statement plans:\n%s", stmt, c.target, plan, literal.Plan())
			}
			before := dispatched(c.kernel)
			if _, err := pq.Execute(c.target); err != nil {
				t.Fatal(err)
			}
			if n := dispatched(c.kernel) - before; n != 1 {
				t.Errorf("%s bound to %q: %s dispatch count moved by %d, want 1", stmt, c.target, c.kernel, n)
			}
		}
	}
}

// TestPreparedJoinAndNearest: parameters work beyond the single-table
// range path.
func TestPreparedJoinAndNearest(t *testing.T) {
	e := testEngine(t)
	join, err := e.Prepare(`SELECT a.seq, b.seq FROM words a, words b WHERE a.seq SIMILAR TO b.seq WITHIN ? USING unit-edits AND a.id != b.id`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := join.Execute(1)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := e.Execute(`SELECT a.seq, b.seq FROM words a, words b WHERE a.seq SIMILAR TO b.seq WITHIN 1 USING unit-edits AND a.id != b.id`)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Rows, direct.Rows) {
		t.Errorf("prepared join rows differ: %v vs %v", res.Rows, direct.Rows)
	}

	near, err := e.Prepare(`SELECT seq FROM words WHERE seq NEAREST 3 TO ? USING unit-edits`)
	if err != nil {
		t.Fatal(err)
	}
	nres, err := near.Execute("color")
	if err != nil {
		t.Fatal(err)
	}
	if len(nres.Rows) != 3 {
		t.Errorf("nearest rows = %d, want 3", len(nres.Rows))
	}
}

// TestConcurrentExecuteSharedEngine: the Execute plan-cache path under
// concurrency (run with -race); results must match the serial answer.
func TestConcurrentExecuteSharedEngine(t *testing.T) {
	e := bigEngine(t)
	const stmt = `SELECT seq, dist FROM dict WHERE seq SIMILAR TO "abcdef" WITHIN 2 USING unit-edits ORDER BY dist`
	want, err := e.Execute(stmt)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				res, err := e.Execute(stmt)
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(res.Rows, want.Rows) {
					errs <- fmt.Errorf("rows diverged under concurrency")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if cs := e.CacheStats(); cs.Hits == 0 {
		t.Error("no cache hits across 80 identical executions")
	}
}

// TestBindQueryDoesNotMutateTemplate: binding must leave the template
// reusable.
func TestBindQueryDoesNotMutateTemplate(t *testing.T) {
	e := testEngine(t)
	pq, err := e.Prepare(`SELECT seq FROM words WHERE seq SIMILAR TO ? WITHIN ? USING unit-edits LIMIT ?`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pq.Execute("color", 1, 2); err != nil {
		t.Fatal(err)
	}
	sim := pq.tmpl.Where.(SimExpr)
	if sim.Target.Param == nil || sim.RadiusParam == nil || pq.tmpl.LimitParam == nil {
		t.Error("template parameters were overwritten by binding")
	}
	// And a second execution with different values sees them.
	res, err := pq.Execute("velour", 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != "velour" {
		t.Errorf("rebind rows = %v, want velour only", res.Rows)
	}
}

// TestExecuteToStreamsBlocks: ExecuteTo hands the rows to its sink one
// block at a time, in Execute's order, and leaves Result.Rows to the
// sink; a sink error stops the execution at that block and is what
// ExecuteTo returns.
func TestExecuteToStreamsBlocks(t *testing.T) {
	e := testEngine(t, WithBatchSize(2))
	pq, err := e.Prepare(`SELECT id, seq, dist FROM words WHERE seq SIMILAR TO ? WITHIN 3 USING unit-edits ORDER BY dist`)
	if err != nil {
		t.Fatal(err)
	}
	want, err := pq.Execute("color")
	if err != nil {
		t.Fatal(err)
	}
	var blocks int
	var got [][]string
	res, err := pq.ExecuteTo(context.Background(), func(cols []string, rows [][]string) error {
		if !reflect.DeepEqual(cols, want.Columns) || len(rows) == 0 || len(rows) > 2 {
			t.Fatalf("block %d: columns %v, %d rows", blocks, cols, len(rows))
		}
		blocks++
		for _, r := range rows {
			got = append(got, append([]string(nil), r...))
		}
		return nil
	}, "color")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != nil || !reflect.DeepEqual(got, want.Rows) || blocks != (len(want.Rows)+1)/2 {
		t.Fatalf("streamed %d blocks %v (Result.Rows %v), Execute %v", blocks, got, res.Rows, want.Rows)
	}

	stop := fmt.Errorf("sink full")
	calls := 0
	_, err = pq.ExecuteTo(context.Background(), func([]string, [][]string) error {
		calls++
		if calls == 2 {
			return stop
		}
		return nil
	}, "color")
	if !errors.Is(err, stop) || calls != 2 {
		t.Fatalf("sink error: ExecuteTo returned %v after %d calls, want %v after 2", err, calls, stop)
	}
}
