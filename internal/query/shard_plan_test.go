package query

// Planner and statement-cache behaviour over sharded relations: EXPLAIN
// shapes, re-planning after a reshard or a commit, per-shard LIMIT
// pushdown and the sharded broadcast join.

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/relation"
	"repro/internal/rewrite"
)

// shardTestEngine builds an engine over one sharded relation "words"
// holding enough distinct rows to exercise every access path.
func shardTestEngine(t *testing.T, shards, rows int) *Engine {
	t.Helper()
	cat := relation.NewCatalog()
	sh := relation.NewSharded("words", shards)
	ins := make([]relation.InsertRow, rows)
	for i := range ins {
		ins[i] = relation.InsertRow{
			Seq:   fmt.Sprintf("%c%c%c%c", 'a'+i%7, 'a'+(i/7)%7, 'a'+(i/49)%7, 'a'+i%5),
			Attrs: map[string]string{"tag": fmt.Sprint(i % 3)},
		}
	}
	sh.InsertBatch(ins)
	cat.Add(sh)
	e := NewEngine(cat)
	rs := rewrite.MustRuleSet("edits", rewrite.UnitEdits("abcdefghij").Rules())
	if err := e.RegisterRuleSet(rs); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestShardedExplainShapes: every sharded access path plans under a
// GatherMerge root with shard-labelled leaves.
func TestShardedExplainShapes(t *testing.T) {
	e := shardTestEngine(t, 4, 200)
	cases := []struct {
		stmt string
		want []string
	}{
		{
			`EXPLAIN SELECT * FROM words WHERE tag = "1"`,
			[]string{"GatherMerge(shards=4", "merge=id", "Scan(words, shard 0/4)", "Filter("},
		},
		{
			`EXPLAIN SELECT * FROM words WHERE seq NEAREST 3 TO "abc" USING edits`,
			[]string{"GatherMerge(shards=4", "merge=bestk k=3", "NearestK(words, shard 0/4, k=3, ruleset=edits)"},
		},
		{
			`EXPLAIN SELECT * FROM words WHERE seq SIMILAR TO "abcd" WITHIN 1 USING edits`,
			[]string{"GatherMerge(shards=4", "merge=id", "IndexRange(words via lengthview, shard 0/4, target=abcd"},
		},
	}
	for _, c := range cases {
		res, err := e.Execute(c.stmt)
		if err != nil {
			t.Fatalf("%s: %v", c.stmt, err)
		}
		for _, frag := range c.want {
			if !strings.Contains(res.Plan, frag) {
				t.Errorf("%s:\nplan lacks %q:\n%s", c.stmt, frag, res.Plan)
			}
		}
	}
}

// TestShardedJoinBroadcast: joins over sharded relations execute as
// one chain per outer stream against a broadcast inner side, merged
// under GatherMerge when the outer relation is sharded (the full parity
// oracle lives in join_oracle_test.go).
func TestShardedJoinBroadcast(t *testing.T) {
	e := shardTestEngine(t, 2, 50)
	other := relation.New("other")
	other.Insert("aaab", map[string]string{"tag": "0"})
	e.Catalog().Add(other)
	res, err := e.Execute(`EXPLAIN SELECT a.seq, b.seq FROM words a, other b WHERE a.seq SIMILAR TO b.seq WITHIN 1 USING edits`)
	if err != nil {
		t.Fatalf("sharded join: %v", err)
	}
	// The 1-row plain relation wins the start slot, so the sharded side
	// is the broadcast inner: all its shard snapshots probed by the one
	// chain, which needs no gather.
	plan := res.Rows[0][0]
	if strings.Contains(plan, "GatherMerge(") || !strings.Contains(plan, "x2 shards") {
		t.Fatalf("sharded join plan from a plain start is not one chain over a broadcast inner:\n%s", plan)
	}
	// A self-join over the sharded relation fans out one chain per
	// outer shard.
	res, err = e.Execute(`EXPLAIN SELECT a.seq, b.seq FROM words a, words b WHERE a.seq SIMILAR TO b.seq WITHIN 1 USING edits`)
	if err != nil {
		t.Fatalf("sharded self-join: %v", err)
	}
	plan = res.Rows[0][0]
	if !strings.Contains(plan, "GatherMerge(shards=2") || !strings.Contains(plan, "x2 shards") {
		t.Fatalf("sharded self-join plan lacks per-shard fan-out + broadcast inner:\n%s", plan)
	}
	got, err := e.Execute(`SELECT a.seq, b.seq FROM words a, other b WHERE a.seq SIMILAR TO b.seq WITHIN 1 USING edits`)
	if err != nil {
		t.Fatalf("sharded join: %v", err)
	}
	if len(got.Rows) == 0 {
		t.Fatal(`sharded join found no matches, expected at least "aaaa" ~ "aaab"`)
	}
	for _, row := range got.Rows {
		if row[1] != "aaab" {
			t.Fatalf("inner side produced %q, want aaab", row[1])
		}
	}
}

// TestShardedLimitPushdown: with LIMIT and no ORDER BY, each shard
// subplan stops at the limit — the scatter never drains whole shards
// for a 2-row answer.
func TestShardedLimitPushdown(t *testing.T) {
	e := shardTestEngine(t, 4, 2000)
	res, err := e.Execute(`SELECT * FROM words WHERE tag != "9" LIMIT 2`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("LIMIT 2 returned %d rows", len(res.Rows))
	}
	// Every tuple matches the filter, so each of the 4 shards buffers at
	// most 2 bindings: the scan should touch far fewer than all rows.
	if res.Stats.Candidates > 100 {
		t.Fatalf("LIMIT 2 scanned %d candidates; per-shard limit not pushed down", res.Stats.Candidates)
	}
}

// TestPlanCacheShardCountChange pins the regression: a plan for one
// shard count must never run over another, even though the statement
// stays cached — the executions after each reshard plan for the new
// topology, as a fresh engine does.
func TestPlanCacheShardCountChange(t *testing.T) {
	e := shardTestEngine(t, 2, 100)
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
	if !strings.Contains(res.Plan, "GatherMerge(shards=2") {
		t.Fatalf("cached plan is not the 2-shard plan:\n%s", res.Plan)
	}

	// Re-register the same name with a different shard count. The old
	// 2-shard plan must not be served: the very next execution re-plans
	// against the new topology.
	old, _ := e.Catalog().Lookup("words")
	resharded := relation.NewSharded("words", 4)
	rows := make([]relation.InsertRow, 0, old.Len())
	for _, tup := range old.Tuples() {
		rows = append(rows, relation.InsertRow{Seq: tup.Seq, Attrs: tup.Attrs})
	}
	resharded.InsertBatch(rows)
	e.Catalog().Add(resharded)

	res = checkLikeFresh(t, e, stmt)
	if !strings.Contains(res.Plan, "GatherMerge(shards=4") {
		t.Fatalf("re-planned query did not adopt the new topology:\n%s", res.Plan)
	}

	// Going back to unsharded must also start a fresh key space.
	plain := relation.New("words")
	for _, tup := range resharded.Tuples() {
		plain.Insert(tup.Seq, tup.Attrs)
	}
	e.Catalog().Add(plain)
	res = checkLikeFresh(t, e, stmt)
	if strings.Contains(res.Plan, "GatherMerge") {
		t.Fatalf("unsharded relation still executes a gather plan:\n%s", res.Plan)
	}
}

// TestPlanCacheShardedMutationChange: DML against a sharded
// relation is visible to the next execution of a cached statement,
// whose EXPLAIN and rows equal a fresh engine's.
func TestPlanCacheShardedMutationChange(t *testing.T) {
	e := shardTestEngine(t, 4, 100)
	stmt := `SELECT * FROM words WHERE tag = "1"`
	if _, err := e.Execute(stmt); err != nil {
		t.Fatal(err)
	}
	res, err := e.Execute(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.PlanCacheHit {
		t.Fatal("warm execution should hit the plan cache")
	}
	before := len(res.Rows)
	if _, err := e.Execute(`INSERT INTO words (seq, tag) VALUES ("abcj", "1")`); err != nil {
		t.Fatal(err)
	}
	if res := checkLikeFresh(t, e, stmt); len(res.Rows) != before+1 {
		t.Fatalf("after the insert: %d rows, want %d", len(res.Rows), before+1)
	}
}

// TestPreparedShardedRedecision: a prepared query executed after a
// reshard plans gather plans for the new topology, as a fresh engine
// does.
func TestPreparedShardedRedecision(t *testing.T) {
	e := shardTestEngine(t, 2, 100)
	pq, err := e.Prepare(`SELECT seq, dist FROM words WHERE seq SIMILAR TO ? WITHIN ? USING edits`)
	if err != nil {
		t.Fatal(err)
	}
	checkLikeFresh(t, e, pq.Text(), "abcd", 1)
	checkLikeFresh(t, e, pq.Text(), "abce", 1)

	resharded := relation.NewSharded("words", 4)
	old, _ := e.Catalog().Lookup("words")
	rows := make([]relation.InsertRow, 0, old.Len())
	for _, tup := range old.Tuples() {
		rows = append(rows, relation.InsertRow{Seq: tup.Seq, Attrs: tup.Attrs})
	}
	resharded.InsertBatch(rows)
	e.Catalog().Add(resharded)

	plan, err := pq.Explain("abcd", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "shards=4") && !strings.Contains(plan, "GatherMerge") {
		t.Fatalf("prepared plan did not adopt the new topology:\n%s", plan)
	}
	checkLikeFresh(t, e, pq.Text(), "abcd", 1)
}
