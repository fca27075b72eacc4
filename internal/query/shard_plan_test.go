package query

// Planner and statement-cache behaviour of parallel plans, whose
// slices EXPLAIN labels as shards: EXPLAIN shapes, re-planning after the
// catalog or a commit moves a table across the parallel threshold,
// LIMIT staying serial, and join chains probing the whole inner side.

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/relation"
	"repro/internal/rewrite"
)

// wordsRel returns a relation "words" of n distinct-enough rows.
func wordsRel(n int) *relation.Relation {
	r := relation.New("words")
	ins := make([]relation.InsertRow, n)
	for i := range ins {
		ins[i] = relation.InsertRow{
			Seq:   fmt.Sprintf("%c%c%c%c", 'a'+i%7, 'a'+(i/7)%7, 'a'+(i/49)%7, 'a'+i%5),
			Attrs: map[string]string{"tag": fmt.Sprint(i % 3)},
		}
	}
	r.InsertBatch(ins)
	return r
}

// shardTestEngine builds an engine over wordsRel(rows) that runs scans
// and joins over at least minRows outer rows as `slices` parallel
// slices.
func shardTestEngine(t *testing.T, slices, rows, minRows int) *Engine {
	t.Helper()
	cat := relation.NewCatalog()
	cat.Add(wordsRel(rows))
	e := NewEngine(cat, WithParallelism(slices), WithParallelMinRows(minRows))
	rs := rewrite.MustRuleSet("edits", rewrite.UnitEdits("abcdefghij").Rules())
	if err := e.RegisterRuleSet(rs); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestShardedExplainShapes: a scan with per-row work plans under a
// GatherMerge root with shard-labelled leaves, an ORDER BY dist sorts
// above the gather, and the band walks and a LIMIT without ORDER BY
// stay serial.
func TestShardedExplainShapes(t *testing.T) {
	e := shardTestEngine(t, 4, 200, 1)
	cases := []struct {
		stmt       string
		want, lack []string
	}{
		{
			`EXPLAIN SELECT * FROM words WHERE tag = "1"`,
			[]string{"GatherMerge(shards=4, workers=4, merge=id)", "Scan(words, shard 0/4)", "Filter("}, nil,
		},
		{
			`EXPLAIN SELECT * FROM words WHERE seq SIMILAR TO "abcd" WITHIN 1 USING edits OR tag = "9" ORDER BY dist`,
			[]string{"OrderByDist", "GatherMerge(shards=4", "Scan(words, shard 0/4)"}, nil,
		},
		{
			`EXPLAIN SELECT * FROM words WHERE seq NEAREST 3 TO "abc" USING edits`,
			[]string{"NearestK(words, k=3, ruleset=edits"}, []string{"GatherMerge", "shard "},
		},
		{
			`EXPLAIN SELECT * FROM words WHERE seq SIMILAR TO "abcd" WITHIN 1 USING edits`,
			[]string{"IndexRange(words via lengthview, target=abcd"}, []string{"GatherMerge", "shard "},
		},
		{
			`EXPLAIN SELECT * FROM words WHERE tag = "1" LIMIT 5`,
			[]string{"Scan(words)"}, []string{"GatherMerge"},
		},
	}
	for _, c := range cases {
		res, err := e.Execute(c.stmt)
		if err != nil {
			t.Fatalf("%s: %v", c.stmt, err)
		}
		plan := res.Rows[0][0]
		for _, frag := range c.want {
			if !strings.Contains(plan, frag) {
				t.Errorf("%s:\nplan lacks %q:\n%s", c.stmt, frag, plan)
			}
		}
		for _, frag := range c.lack {
			if strings.Contains(plan, frag) {
				t.Errorf("%s:\nplan has %q:\n%s", c.stmt, frag, plan)
			}
		}
		if i := strings.Index(plan, "OrderByDist"); i >= 0 && i > strings.Index(plan, "GatherMerge") {
			t.Errorf("%s: OrderByDist below the gather:\n%s", c.stmt, plan)
		}
	}
}

// TestShardedJoinBroadcast: a parallel join runs one chain per slice of
// the outer relation, each probing the whole inner snapshot, and returns
// the serial plan's rows in the serial order; a start relation under
// the parallel threshold runs one chain without a gather.
func TestShardedJoinBroadcast(t *testing.T) {
	e := shardTestEngine(t, 2, 50, 10)
	serial := shardTestEngine(t, 1, 50, 10)
	for _, eng := range []*Engine{e, serial} {
		other := relation.New("other")
		other.Insert("aaab", map[string]string{"tag": "0"})
		eng.Catalog().Add(other)
	}
	for _, c := range []struct {
		stmt   string
		gather bool
	}{
		// The 1-row relation wins the start slot and is under the
		// threshold: one chain probing every row of words.
		{`SELECT a.seq, b.seq FROM words a, other b WHERE a.seq SIMILAR TO b.seq WITHIN 1 USING edits`, false},
		// A self-join over words fans out one chain per outer slice.
		{`SELECT a.id, b.id FROM words a, words b WHERE a.seq SIMILAR TO b.seq WITHIN 1 USING edits`, true},
	} {
		got, err := e.Execute(c.stmt)
		if err != nil {
			t.Fatalf("%s: %v", c.stmt, err)
		}
		if strings.Contains(got.Plan(), "GatherMerge(shards=2") != c.gather || !strings.Contains(got.Plan(), "IndexJoin(") {
			t.Fatalf("%s: want gather %v over an IndexJoin chain:\n%s", c.stmt, c.gather, got.Plan())
		}
		want, err := serial.Execute(c.stmt)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Rows) == 0 || positional(got) != positional(want) {
			t.Fatalf("%s: parallel rows diverge from serial:\n%s\nvs\n%s", c.stmt, positional(got), positional(want))
		}
	}
}

// TestShardedLimitPushdown: with LIMIT and no ORDER BY a scan stays
// serial even on a parallel engine, so the pipeline stops at the limit
// instead of draining every slice into the gather for a 2-row answer.
func TestShardedLimitPushdown(t *testing.T) {
	e := shardTestEngine(t, 4, 2000, 1)
	res, err := e.Execute(`SELECT * FROM words WHERE tag != "9" LIMIT 2`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("LIMIT 2 returned %d rows", len(res.Rows))
	}
	if strings.Contains(res.Plan(), "GatherMerge") {
		t.Fatalf("LIMIT without ORDER BY runs under a gather:\n%s", res.Plan())
	}
	// Every tuple matches the filter: the scan should touch far fewer
	// than all rows.
	if res.Stats.Candidates > 100 {
		t.Fatalf("LIMIT 2 scanned %d candidates; the limit was not pushed down", res.Stats.Candidates)
	}
}

// TestPlanCacheShardCountChange pins the regression: a plan for one
// slice count must never run over another, even though the statement
// stays cached — the executions after a table crosses the parallel
// threshold plan for the new size, as a fresh engine does.
func TestPlanCacheShardCountChange(t *testing.T) {
	e := shardTestEngine(t, 2, 100, 150)
	stmt := `SELECT * FROM words WHERE tag = "1"`

	if _, err := e.Execute(stmt); err != nil {
		t.Fatal(err)
	}
	res, err := e.Execute(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.PlanCacheHit {
		t.Fatal("second execution should hit the plan cache")
	}
	if strings.Contains(res.Plan(), "GatherMerge") {
		t.Fatalf("a table under the threshold runs a gather plan:\n%s", res.Plan())
	}

	// Re-register the name with a table past the threshold: the very
	// next execution plans two slices.
	e.Catalog().Add(wordsRel(200))
	res = checkLikeFresh(t, e, stmt)
	if !strings.Contains(res.Plan(), "GatherMerge(shards=2") {
		t.Fatalf("re-planned query did not adopt the larger table:\n%s", res.Plan())
	}

	// Going back under the threshold plans serially again.
	e.Catalog().Add(wordsRel(100))
	res = checkLikeFresh(t, e, stmt)
	if strings.Contains(res.Plan(), "GatherMerge") {
		t.Fatalf("a table under the threshold still executes a gather plan:\n%s", res.Plan())
	}
}

// TestPlanCacheShardedMutationChange: DML that grows a table past the
// parallel threshold is visible to the next execution of a cached
// statement, whose EXPLAIN and rows equal a fresh engine's.
func TestPlanCacheShardedMutationChange(t *testing.T) {
	e := shardTestEngine(t, 4, 100, 101)
	stmt := `SELECT * FROM words WHERE tag = "1"`
	if _, err := e.Execute(stmt); err != nil {
		t.Fatal(err)
	}
	res, err := e.Execute(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.PlanCacheHit || strings.Contains(res.Plan(), "GatherMerge") {
		t.Fatalf("warm execution: cache hit %v, plan:\n%s", res.Stats.PlanCacheHit, res.Plan())
	}
	before := len(res.Rows)
	if _, err := e.Execute(`INSERT INTO words (seq, tag) VALUES ("abcj", "1")`); err != nil {
		t.Fatal(err)
	}
	res = checkLikeFresh(t, e, stmt)
	if len(res.Rows) != before+1 || !strings.Contains(res.Plan(), "GatherMerge(shards=4") {
		t.Fatalf("after the insert: %d rows (want %d), plan:\n%s", len(res.Rows), before+1, res.Plan())
	}
}

// TestPreparedShardedRedecision: a prepared query executed after its
// table crossed the parallel threshold plans a gather, as a fresh
// engine does.
func TestPreparedShardedRedecision(t *testing.T) {
	e := shardTestEngine(t, 2, 100, 150)
	pq, err := e.Prepare(`SELECT seq, dist FROM words WHERE seq SIMILAR TO ? WITHIN ? USING edits OR tag = "9"`)
	if err != nil {
		t.Fatal(err)
	}
	checkLikeFresh(t, e, pq.Text(), "abcd", 1)
	checkLikeFresh(t, e, pq.Text(), "abce", 1)

	e.Catalog().Add(wordsRel(200))
	plan, err := pq.Explain("abcd", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "GatherMerge(shards=2") {
		t.Fatalf("prepared plan did not adopt the larger table:\n%s", plan)
	}
	checkLikeFresh(t, e, pq.Text(), "abcd", 1)
}
