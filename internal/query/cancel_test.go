package query

// Cancellation tests. A read whose context is done stops at its next
// cancellation point — a block of the scan or of the run loop, a band
// of a band walk, a node of the vector-view walk, an outer row of a
// join — returns the context's error, and counts only the work it did;
// a live context changes nothing of a reply.

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/metric"
	"repro/internal/relation"
	"repro/internal/rewrite"
)

// cancelEngine serves 6 000 planted words and 3 000 vectors, serially
// or, with slices > 1, with every scan split into that many slices.
func cancelEngine(t *testing.T, slices int) *Engine {
	t.Helper()
	rng := rand.New(rand.NewSource(48))
	items := relation.New("items")
	rows := make([]relation.InsertRow, 3000)
	for i := range rows {
		rows[i] = relation.InsertRow{Vec: randVec(rng, 8)}
	}
	items.InsertBatch(rows)
	// Each word carries itself as attribute alt, which a join edge onto
	// b.alt probes by scanning b's length band.
	words := relation.New("words")
	for _, t := range datagenWords("words", 1, 6000).Snapshot().Tuples() {
		words.Insert(t.Seq, map[string]string{"alt": t.Seq})
	}
	cat := relation.NewCatalog()
	cat.Add(words)
	cat.Add(items)
	e := NewEngine(cat, WithParallelism(slices), WithParallelMinRows(1))
	if err := e.RegisterRuleSet(rewrite.MustRuleSet("edits", rewrite.UnitEdits("abcdefghij").Rules())); err != nil {
		t.Fatal(err)
	}
	return e
}

// runUnder plans stmt and runs it under ctx into sink, returning the
// run's error and the work its operators counted, which a failed run
// flushes too.
func runUnder(t *testing.T, e *Engine, ctx context.Context, stmt string, sink RowSink) (ExecStats, error) {
	t.Helper()
	pq, err := e.Prepare(stmt)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := e.planQuery(pq.tmpl)
	if err != nil {
		t.Fatal(err)
	}
	_, err = plan.run(ctx, sink)
	return plan.ctx.snapshot(), err
}

// TestCancelStopsEveryRead: for a read through each cancellation point,
// a context done before the run stops it at its first point with the
// context's error and no work counted, and a live context answers
// exactly what Execute does.
func TestCancelStopsEveryRead(t *testing.T) {
	target := metric.Format(randVec(rand.New(rand.NewSource(1)), 8))
	cases := []struct {
		name   string
		slices int
		stmt   string
		plan   string // a line the plan must hold
	}{
		{"band walk", 1, `SELECT id, dist FROM words WHERE seq SIMILAR TO "abcdef" WITHIN 100 USING edits`,
			"IndexRange(words via lengthview"},
		// k covers every row, so the bound stays +Inf for the whole walk.
		{"unbounded band walk", 1, `SELECT id, dist FROM words WHERE seq NEAREST 6000 TO "abcdef" USING edits`,
			"NearestK(words"},
		{"vector view", 1, fmt.Sprintf(`SELECT id, dist FROM items WHERE vec NEAREST 3000 TO %s USING l2`, target),
			"VecNearestK(items via vecview"},
		{"pattern scan", 1, `SELECT id, seq FROM words WHERE seq SIMILAR TO PATTERN "(a|b|c|d|e)*" WITHIN 2 USING edits`,
			"Scan(words)"},
		{"gather", 2, `SELECT id, seq FROM words WHERE seq SIMILAR TO PATTERN "(a|b|c|d|e)*" WITHIN 2 USING edits`,
			"GatherMerge(shards=2"},
		{"symmetric join", 1, `SELECT a.id, b.id, dist FROM words a, words b ON dist(a.seq, b.seq) <= 1 USING edits WHERE a.id != b.id`,
			", symmetric)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := cancelEngine(t, tc.slices)
			want, err := e.Execute(tc.stmt)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(want.Plan(), tc.plan) || len(want.Rows) < 2*defaultBatchSize {
				t.Fatalf("%d rows, plan:\n%s\nthe case no longer tests what it says", len(want.Rows), want.Plan())
			}
			full := want.Stats

			// A live context: the same rows, counters and plan.
			live, stop := context.WithCancel(context.Background())
			defer stop()
			pq, _ := e.Prepare(tc.stmt)
			var c collector
			got, err := c.result(pq.ExecuteTo(live, c.add))
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) || got.Plan() != want.Plan() ||
				got.Stats.Candidates != full.Candidates || got.Stats.Verifications != full.Verifications {
				t.Fatalf("under a live context the reply differs:\n%v %+v\n%s\nwant\n%v %+v\n%s",
					got.Rows, got.Stats, got.Plan(), want.Rows, full, want.Plan())
			}

			// A context done before the run: its error, no work.
			done, cancel := context.WithCancel(context.Background())
			cancel()
			st, err := runUnder(t, e, done, tc.stmt, func([]string, [][]string) error {
				t.Fatal("a cancelled run handed over rows")
				return nil
			})
			if err != context.Canceled || st.Candidates != 0 || st.Verifications != 0 {
				t.Fatalf("pre-cancelled run: %v after %+v, want %v before any work", err, st, context.Canceled)
			}
			if res, err := pq.ExecuteTo(done, discardRows); res != nil || err != context.Canceled {
				t.Fatalf("ExecuteTo under a done context: %v, %v", res, err)
			}
		})
	}
}

// cancelAtFirstBlock runs stmt with a sink that cancels the context at
// the first block and keeps that block's rows; the run must fail with
// the context's error without handing over a second block.
func cancelAtFirstBlock(t *testing.T, e *Engine, stmt string) (ExecStats, [][]string) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var first [][]string
	st, err := runUnder(t, e, ctx, stmt, func(_ []string, rows [][]string) error {
		if first != nil {
			t.Fatal("a second block after the cancel")
		}
		for _, r := range rows {
			first = append(first, slices.Clone(r))
		}
		cancel()
		return nil
	})
	if err != context.Canceled || first == nil {
		t.Fatalf("cancelled at the first block: %v", err)
	}
	return st, first
}

// TestCancelScanWithinOneBlock: a filtered scan cancelled when its
// first block is handed over reads no further block: its candidates are
// exactly the blocks up to the one the first rows came from.
func TestCancelScanWithinOneBlock(t *testing.T) {
	e := cancelEngine(t, 1)
	st, first := cancelAtFirstBlock(t, e, `SELECT id FROM words WHERE seq SIMILAR TO PATTERN "(a|b|c|d|e)*" WITHIN 2 USING edits`)
	last, _ := strconv.Atoi(first[len(first)-1][0])
	if want := (last/defaultBatchSize + 1) * defaultBatchSize; st.Candidates != want {
		t.Fatalf("cancelled scan read %d rows, want the %d up to the first block's last row %d", st.Candidates, want, last)
	}
}

// TestCancelJoinWithinOneOuterRow: a join cancelled when its first
// block is handed over probes no further outer row: it counts the work
// of the same join cut off by a LIMIT of one block. The symmetric
// self-join's walk also stops per band; the banded scan of the inner
// rows has only the join's own check.
func TestCancelJoinWithinOneOuterRow(t *testing.T) {
	e := cancelEngine(t, 1)
	for _, tc := range []struct{ stmt, plan string }{
		{`SELECT a.id, b.id, dist FROM words a, words b ON dist(a.seq, b.seq) <= 1 USING edits WHERE a.id != b.id`, ", symmetric)"},
		{`SELECT a.id, b.id, dist FROM words a, words b ON dist(a.seq, b.alt) <= 1 USING edits`, "NestedLoopJoin(b[length-banded]"},
	} {
		stmt := tc.stmt
		st, first := cancelAtFirstBlock(t, e, stmt)
		limited, err := e.Execute(fmt.Sprintf("%s LIMIT %d", stmt, defaultBatchSize))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(limited.Plan(), tc.plan) {
			t.Fatalf("plan lacks %q:\n%s", tc.plan, limited.Plan())
		}
		if len(first) != defaultBatchSize || st.Candidates != limited.Stats.Candidates || st.Verifications != limited.Stats.Verifications {
			t.Fatalf("%s\ncancelled: %d rows, %+v; cut off by its LIMIT: %+v\n%s", stmt, len(first), st, limited.Stats, limited.Plan())
		}
	}
}

// TestCancelRunWithinOneBlock: a leaf that found all its matches before
// the first block hands them over a block at a time, and the run loop
// stops at the next block once the context is done.
func TestCancelRunWithinOneBlock(t *testing.T) {
	e := cancelEngine(t, 1)
	// cancelAtFirstBlock fails on a second block.
	cancelAtFirstBlock(t, e, `SELECT id, dist FROM words WHERE seq SIMILAR TO "abcdef" WITHIN 100 USING edits`)
}

// TestCancelBandWalkWithinOneBand: a band walk whose context is
// cancelled while it verifies the target's own band verifies no other
// band.
func TestCancelBandWalkWithinOneBand(t *testing.T) {
	e := cancelEngine(t, 1)
	rel, _ := e.Catalog().Lookup("words")
	ent, _ := e.rule("edits")
	snap := rel.Snapshot()
	const target = "abcdef"
	bands := snap.LengthView().Bands(len(target))
	first, _ := bands.Next()
	w := newBandWalk(ent.calc, ent.unit, target)
	w.setBound(100)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ec := e.newExecCtx(&Query{})
	ec.ctx = ctx
	st, err := w.walk(ec, snap, covers(ent.calc, snap), func(*relation.Row, float64) { cancel() })
	if err != context.Canceled || st.Candidates != len(first.Ents) || len(first.Ents) == snap.Len() {
		t.Fatalf("walk cancelled in its first band of %d rows: %v after %d candidates of %d", len(first.Ents), err, st.Candidates, snap.Len())
	}
}

// TestCancelLeavesDMLAlone: a DML statement runs to completion under a
// done context, so its result always says whether it committed.
func TestCancelLeavesDMLAlone(t *testing.T) {
	e := cancelEngine(t, 1)
	before, _ := e.Catalog().Lookup("words")
	n := before.Len()
	pq, err := e.Prepare(fmt.Sprintf(`DELETE FROM words WHERE seq SIMILAR TO %q WITHIN 1 USING edits`, before.Snapshot().Tuples()[0].Seq))
	if err != nil {
		t.Fatal(err)
	}
	done, cancel := context.WithCancel(context.Background())
	cancel()
	var c collector
	res, err := c.result(pq.ExecuteTo(done, c.add))
	if err != nil {
		t.Fatal(err)
	}
	deleted := count(t, res)
	if deleted == 0 || before.Len() != n-deleted {
		t.Fatalf("DELETE under a done context reported %d rows and left %d of %d", deleted, before.Len(), n)
	}
}
