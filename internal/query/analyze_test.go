package query

// The EXPLAIN ANALYZE oracle: for every plan shape (block size 1 and 4,
// serial and over parallel slices), `EXPLAIN ANALYZE <stmt>` must
// execute the statement and return byte-identical columns and rows to
// the plain statement — tracing is an observer, never a participant —
// while the span tree it renders must carry an estimate on every access
// path, a kernel label on every distance-computing operator, and
// per-slice timings on every gather. A second oracle pins Result.Stats
// parity across block sizes: the work counters are part of the engine's
// observable contract, so the same physical decision must report the
// same candidate/verification/abandon totals whatever the block size.

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/editdp"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/rewrite"
)

// analyzeWords is the analyzeEngine dataset, in id order.
var analyzeWords = []struct {
	s    string
	lang string
}{
	{"color", "en"}, {"colour", "uk"}, {"colon", "en"}, {"cool", "en"},
	{"dolor", "la"}, {"velour", "fr"}, {"clamor", "en"},
}

// analyzeEngine builds the testEngine word database with the requested
// block size (1 = row-at-a-time), serial for slices 1, otherwise running
// every scan and join it may as that many parallel slices.
func analyzeEngine(t *testing.T, slices, batchSize int) *Engine {
	t.Helper()
	tab := relation.New("words")
	for _, w := range analyzeWords {
		tab.Insert(w.s, map[string]string{"lang": w.lang})
	}
	cat := relation.NewCatalog()
	cat.Add(tab)
	e := NewEngine(cat, WithBatchSize(batchSize), WithParallelism(slices), WithParallelMinRows(1))
	if err := e.RegisterRuleSet(rewrite.UnitEdits("abcdefghijklmnopqrstuvwxyz")); err != nil {
		t.Fatal(err)
	}
	weighted := rewrite.MustRuleSet("cheap_vowels", []rewrite.Rule{
		rewrite.Subst('o', 'u', 0.1), rewrite.Subst('u', 'o', 0.1),
		rewrite.Insert('u', 0.2), rewrite.Delete('u', 0.2),
	})
	if err := e.RegisterRuleSet(weighted); err != nil {
		t.Fatal(err)
	}
	return e
}

// analyzeStmts is the statement mix the oracle drives through every
// plan shape: index range, filtered range, weighted scan range,
// nearest-k (metric index), weighted nearest (scan), bare scan + limit.
var analyzeStmts = []struct {
	stmt      string
	hasKernel bool // a distance kernel participates
}{
	{`SELECT * FROM words WHERE seq SIMILAR TO "color" WITHIN 1 USING unit-edits`, true},
	{`SELECT * FROM words WHERE seq SIMILAR TO "color" WITHIN 2 USING unit-edits AND lang = "en"`, true},
	{`SELECT * FROM words WHERE seq SIMILAR TO "color" WITHIN 0.3 USING cheap_vowels`, true},
	{`SELECT seq, dist FROM words WHERE seq NEAREST 3 TO "color" USING unit-edits`, true},
	{`SELECT seq, dist FROM words WHERE seq NEAREST 2 TO "color" USING cheap_vowels`, true},
	{`SELECT * FROM words LIMIT 3`, false},
	// A weighted rule set: the scan probe, verifying every pair.
	{`SELECT a.seq, b.seq FROM words a, words b ON dist(a.seq, b.seq) <= 0.3 USING cheap_vowels AND a.id != b.id`, true},
}

// analyzeJoinStmts are the unit-cost join shapes over seq (the
// length-view index probe), each with the pairs or triples of
// analyzeWords ids a brute-force loop over Levenshtein distance 1
// yields.
var analyzeJoinStmts = []struct {
	stmt string
	ways int
}{
	{`SELECT a.id, b.id FROM words a, words b ON dist(a.seq, b.seq) <= 1 USING unit-edits`, 2},
	{`SELECT a.id, b.id, c.id FROM words a, words b, words c ON dist(a.seq, b.seq) <= 1 USING unit-edits AND dist(b.seq, c.seq) <= 1 USING unit-edits`, 3},
}

// flattenSpans returns the span tree in preorder.
func flattenSpans(s *obs.Span) []*obs.Span {
	if s == nil {
		return nil
	}
	out := []*obs.Span{s}
	for _, c := range s.Children {
		out = append(out, flattenSpans(c)...)
	}
	return out
}

// checkAnalyzeOracle runs one statement plainly and under EXPLAIN
// ANALYZE and pins result identity plus trace shape: on an engine of
// slices > 1, a gathered plan must carry one timing and one merged
// instance per slice. It reports whether the plan gathered.
func checkAnalyzeOracle(t *testing.T, e *Engine, stmt string, hasKernel bool, slices int) (gathered bool) {
	t.Helper()
	plain, err := e.Execute(stmt)
	if err != nil {
		t.Fatalf("%q: %v", stmt, err)
	}
	an, err := e.Execute("EXPLAIN ANALYZE " + stmt)
	if err != nil {
		t.Fatalf("EXPLAIN ANALYZE %q: %v", stmt, err)
	}
	if strings.Join(plain.Columns, "\x1f") != strings.Join(an.Columns, "\x1f") {
		t.Fatalf("%q: columns diverge under ANALYZE: %v vs %v", stmt, plain.Columns, an.Columns)
	}
	if positional(plain) != positional(an) {
		t.Fatalf("%q: rows diverge under ANALYZE:\nplain:\n%s\nanalyze:\n%s", stmt, positional(plain), positional(an))
	}
	if an.Trace == nil {
		t.Fatalf("%q: ANALYZE returned no trace", stmt)
	}
	if an.Plan() == "" || !strings.Contains(an.Plan(), "rows=") || !strings.Contains(an.Plan(), "time=") {
		t.Fatalf("%q: ANALYZE plan lacks actuals:\n%s", stmt, an.Plan())
	}
	if plain.Trace != nil {
		t.Fatalf("%q: untraced execution leaked a trace", stmt)
	}

	all := flattenSpans(an.Trace)
	var sawEst, sawKernel bool
	for _, s := range all {
		if s.Op == "" {
			t.Fatalf("%q: span with empty operator label:\n%s", stmt, an.Plan())
		}
		if s.EstRows >= 0 {
			sawEst = true
		}
		if s.Kernel != "" {
			sawKernel = true
		}
		// Every leaf is an access path and must carry a planner estimate
		// (est-vs-actual is the whole point of ANALYZE).
		if len(s.Children) == 0 && s.EstRows < 0 {
			t.Fatalf("%q: leaf span %s has no estimate:\n%s", stmt, s.Op, an.Plan())
		}
	}
	if !sawEst {
		t.Fatalf("%q: no span carries an estimate:\n%s", stmt, an.Plan())
	}
	if sawKernel != hasKernel {
		t.Fatalf("%q: kernel label presence = %v, want %v:\n%s", stmt, sawKernel, hasKernel, an.Plan())
	}
	if hasKernel && !strings.Contains(an.Plan(), "kernel=") {
		t.Fatalf("%q: rendered plan lacks kernel label:\n%s", stmt, an.Plan())
	}

	// The root span's row count is the statement's result cardinality.
	if an.Trace.Rows != int64(len(plain.Rows)) {
		t.Fatalf("%q: root span rows=%d, result has %d:\n%s", stmt, an.Trace.Rows, len(plain.Rows), an.Plan())
	}

	if !strings.Contains(an.Plan(), "GatherMerge(") {
		return false
	}
	if slices < 2 {
		t.Fatalf("%q: a serial engine planned a gather:\n%s", stmt, an.Plan())
	}
	var gather *obs.Span
	for _, s := range all {
		if len(s.Shards) > 0 {
			gather = s
			break
		}
	}
	if gather == nil {
		t.Fatalf("%q: gathered trace has no shard timings:\n%s", stmt, an.Plan())
	}
	if len(gather.Shards) != slices {
		t.Fatalf("%q: gather has %d shard timings, want %d:\n%s", stmt, len(gather.Shards), slices, an.Plan())
	}
	for i, sh := range gather.Shards {
		if sh.Shard != i {
			t.Fatalf("%q: shard timing %d labeled shard %d", stmt, i, sh.Shard)
		}
	}
	// The fan-out below the gather merges one span per slice instance.
	for _, c := range gather.Children {
		if c.Instances != slices {
			t.Fatalf("%q: merged child %s has %d instances, want %d:\n%s", stmt, c.Op, c.Instances, slices, an.Plan())
		}
	}
	return true
}

func TestAnalyzeOracleBlock1(t *testing.T) {
	e := analyzeEngine(t, 1, 1)
	for _, c := range analyzeStmts {
		checkAnalyzeOracle(t, e, c.stmt, c.hasKernel, 1)
	}
}

func TestAnalyzeOracleBatch(t *testing.T) {
	e := analyzeEngine(t, 1, 4)
	for _, c := range analyzeStmts {
		checkAnalyzeOracle(t, e, c.stmt, c.hasKernel, 1)
	}
}

// TestAnalyzeOracleShardedBlock1 and TestAnalyzeOracleShardedBatch run
// the oracle on an engine of three parallel slices, where the weighted
// scan range and the weighted self-join gather.
func TestAnalyzeOracleShardedBlock1(t *testing.T) { analyzeOracleParallel(t, 1) }

func TestAnalyzeOracleShardedBatch(t *testing.T) { analyzeOracleParallel(t, 4) }

func analyzeOracleParallel(t *testing.T, batchSize int) {
	e := analyzeEngine(t, 3, batchSize)
	gathered := 0
	for _, c := range analyzeStmts {
		if checkAnalyzeOracle(t, e, c.stmt, c.hasKernel, 3) {
			gathered++
		}
	}
	if gathered < 2 {
		t.Fatalf("%d statements planned a gather, want at least 2", gathered)
	}
}

// TestAnalyzeJoinOracle drives the unit-cost join shapes through every
// plan family — block sizes 1 and 4, serial and over three parallel
// slices: each must satisfy the ANALYZE contract (result identity,
// estimates on leaves, kernel labels, per-slice gather timings), return
// the same rows in the same order at both block sizes, and return the
// rows of a brute-force loop over the data.
func TestAnalyzeJoinOracle(t *testing.T) {
	near := func(i, j int) bool {
		return editdp.Levenshtein(analyzeWords[i].s, analyzeWords[j].s) <= 1
	}
	for _, c := range analyzeJoinStmts {
		var want []string
		for i := range analyzeWords {
			for j := range analyzeWords {
				if !near(i, j) {
					continue
				}
				if c.ways == 2 {
					want = append(want, fmt.Sprintf("%d\x1f%d", i, j))
					continue
				}
				for k := range analyzeWords {
					if near(j, k) {
						want = append(want, fmt.Sprintf("%d\x1f%d\x1f%d", i, j, k))
					}
				}
			}
		}
		sort.Strings(want)
		for _, slices := range []int{1, 3} {
			var first *Result
			for _, batch := range []int{1, 4} {
				e := analyzeEngine(t, slices, batch)
				if gathered := checkAnalyzeOracle(t, e, c.stmt, true, slices); gathered != (slices > 1) {
					t.Fatalf("slices=%d %q: gathered = %v", slices, c.stmt, gathered)
				}
				res, err := e.Execute(c.stmt)
				if err != nil {
					t.Fatal(err)
				}
				if got := canonical(res); got != strings.Join(want, "\n") {
					t.Fatalf("slices=%d block=%d %q diverges from brute force:\ngot:\n%s\nwant:\n%s",
						slices, batch, c.stmt, got, strings.Join(want, "\n"))
				}
				if first == nil {
					first = res
				} else if positional(first) != positional(res) {
					t.Fatalf("slices=%d %q: block 1 and block 4 diverge:\n%s\nvs\n%s",
						slices, c.stmt, positional(first), positional(res))
				}
			}
		}
	}
}

// TestAnalyzeStatsParityAcrossBlockSizes pins Result.Stats consistency
// across block sizes at the same slice count: the same physical
// decision must report the same work counters.
func TestAnalyzeStatsParityAcrossBlockSizes(t *testing.T) {
	for _, slices := range []int{1, 3} {
		row := analyzeEngine(t, slices, 1)
		batch := analyzeEngine(t, slices, 4)
		for _, c := range analyzeStmts {
			r, err := row.Execute(c.stmt)
			if err != nil {
				t.Fatalf("slices=%d %q: %v", slices, c.stmt, err)
			}
			b, err := batch.Execute(c.stmt)
			if err != nil {
				t.Fatalf("slices=%d %q: %v", slices, c.stmt, err)
			}
			if r.Stats.Candidates != b.Stats.Candidates ||
				r.Stats.Verifications != b.Stats.Verifications ||
				r.Stats.Abandoned != b.Stats.Abandoned {
				t.Errorf("slices=%d %q: stats diverge:\nblock 1: %+v\nblock 4: %+v",
					slices, c.stmt, r.Stats, b.Stats)
			}
		}
	}
}

// TestAnalyzeTracingToggle pins the SetTracing contract: traces appear
// only while the flag is on, and a traced plain execution keeps the
// static plan rendering (only ANALYZE swaps in the actuals).
func TestAnalyzeTracingToggle(t *testing.T) {
	e := analyzeEngine(t, 1, 1)
	const stmt = `SELECT * FROM words WHERE seq SIMILAR TO "color" WITHIN 1 USING unit-edits`

	res, err := e.Execute(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil {
		t.Fatal("trace collected with tracing off")
	}

	e.SetTracing(true)
	if !e.Tracing() {
		t.Fatal("Tracing() = false after SetTracing(true)")
	}
	res, err = e.Execute(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil {
		t.Fatal("no trace with tracing on")
	}
	if strings.Contains(res.Plan(), "rows=") {
		t.Fatalf("plain traced execution rendered actuals into Plan:\n%s", res.Plan())
	}

	e.SetTracing(false)
	res, err = e.Execute(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil {
		t.Fatal("trace collected after SetTracing(false)")
	}
}

// TestAnalyzeDMLRejected pins the parser guard: EXPLAIN ANALYZE
// executes its statement, so analyzed DML would commit as a side effect
// of asking for a plan — it must be rejected up front.
func TestAnalyzeDMLRejected(t *testing.T) {
	e := analyzeEngine(t, 1, 1)
	for _, stmt := range []string{
		`EXPLAIN ANALYZE INSERT INTO words (seq, lang) VALUES ("x", "en")`,
		`EXPLAIN ANALYZE DELETE FROM words WHERE lang = "en"`,
		`EXPLAIN ANALYZE UPDATE words SET seq = "y" WHERE lang = "en"`,
	} {
		if _, err := e.Execute(stmt); err == nil {
			t.Errorf("%q succeeded, want error", stmt)
		} else if !strings.Contains(err.Error(), "DML") {
			t.Errorf("%q: error %q does not name DML", stmt, err)
		}
	}
}

// TestAnalyzeGatherParallel: a parallel plan runs its id-range slices
// under the gather. EXPLAIN ANALYZE
// of a parallel scan and of a parallel join must return the serial
// plan's rows, count the same candidates and verifications across its
// spans, merge the streams' pipelines into one child of instances=4 and
// record one shard timing per stream.
func TestAnalyzeGatherParallel(t *testing.T) {
	serial := bigEngine(t, WithParallelism(1))
	parallel := bigEngine(t, WithParallelism(4), WithParallelMinRows(1))
	totals := func(s *obs.Span) (cand, verif int64) {
		for _, sp := range flattenSpans(s) {
			cand += sp.Candidates
			verif += sp.Verifications
		}
		return cand, verif
	}
	for _, stmt := range []string{
		`SELECT seq, dist FROM dict WHERE seq SIMILAR TO "aaaaaaa" WITHIN 4 USING half`,
		`SELECT a.seq, b.seq, dist FROM dna a, dna b WHERE a.seq SIMILAR TO b.seq WITHIN 2 USING unit-edits AND a.id != b.id`,
	} {
		want, err := serial.Execute("EXPLAIN ANALYZE " + stmt)
		if err != nil {
			t.Fatalf("serial %q: %v", stmt, err)
		}
		got, err := parallel.Execute("EXPLAIN ANALYZE " + stmt)
		if err != nil {
			t.Fatalf("parallel %q: %v", stmt, err)
		}
		if len(want.Rows) == 0 || positional(want) != positional(got) {
			t.Fatalf("%q: parallel rows diverge from serial (%d vs %d rows)", stmt, len(got.Rows), len(want.Rows))
		}
		if want.Stats.Candidates != got.Stats.Candidates || want.Stats.Verifications != got.Stats.Verifications {
			t.Fatalf("%q: stats diverge:\nserial %+v\nparallel %+v", stmt, want.Stats, got.Stats)
		}
		wc, wv := totals(want.Trace)
		gc, gv := totals(got.Trace)
		if wc != gc || wv != gv || gc != int64(got.Stats.Candidates) || gv != int64(got.Stats.Verifications) {
			t.Fatalf("%q: span totals cand=%d verif=%d, serial cand=%d verif=%d, stats %+v:\n%s",
				stmt, gc, gv, wc, wv, got.Stats, got.Plan())
		}
		var gather *obs.Span
		for _, s := range flattenSpans(got.Trace) {
			if strings.HasPrefix(s.Op, "GatherMerge(shards=4, workers=4, merge=id)") {
				gather = s
			}
		}
		if gather == nil || len(gather.Children) != 1 {
			t.Fatalf("%q: no gather with one merged child:\n%s", stmt, got.Plan())
		}
		if c := gather.Children[0]; c.Instances != 4 || !strings.Contains(got.Plan(), "instances=4") {
			t.Fatalf("%q: merged child %s has %d instances, want 4:\n%s", stmt, c.Op, c.Instances, got.Plan())
		}
		if len(gather.Shards) != 4 {
			t.Fatalf("%q: gather has %d shard timings, want 4:\n%s", stmt, len(gather.Shards), got.Plan())
		}
		var rows int64
		for i, sh := range gather.Shards {
			if sh.Shard != i {
				t.Fatalf("%q: shard timing %d labeled shard %d", stmt, i, sh.Shard)
			}
			rows += sh.Rows
		}
		if rows != gather.Rows {
			t.Fatalf("%q: stream rows add up to %d, the gather emitted %d:\n%s", stmt, rows, gather.Rows, got.Plan())
		}
	}
}
