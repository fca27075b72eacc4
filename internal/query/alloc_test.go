//go:build !race

package query

// Allocation-count tests. Under the race detector sync.Pool discards a
// share of what is put back, so pooled batches are reallocated and the
// counts below do not hold.

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/relation"
	"repro/internal/rewrite"
)

// TestIndexJoinAllocsFlatInOuterRows: the seq IndexJoin keeps one band
// walk per operator and retargets it per outer row, so an execution
// whose probes all come back empty allocates the same whether the outer
// side holds 100 rows or 400 — nothing per probe.
func TestIndexJoinAllocsFlatInOuterRows(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	word := func(alpha string) string {
		b := make([]byte, 6)
		for i := range b {
			b[i] = alpha[rng.Intn(len(alpha))]
		}
		return string(b)
	}
	// Disjoint alphabets: every pair is 6 edits apart, so no probe matches.
	inner := relation.New("dict")
	for i := 0; i < 1000; i++ {
		inner.Insert(word("nopqrstuvwxyz"), nil)
	}
	const stmt = `SELECT o.id, d.id FROM probes o, dict d ON dist(o.seq, d.seq) <= 1 USING unit-edits`
	allocs := func(outerRows int) float64 {
		outer := relation.New("probes")
		for i := 0; i < outerRows; i++ {
			outer.Insert(word("abcdefghijklm"), nil)
		}
		cat := relation.NewCatalog()
		cat.Add(inner)
		cat.Add(outer)
		e := NewEngine(cat, WithParallelism(1))
		if err := e.RegisterRuleSet(rewrite.UnitEdits("abcdefghijklmnopqrstuvwxyz")); err != nil {
			t.Fatal(err)
		}
		res, err := e.Execute(stmt)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 0 {
			t.Fatalf("%d outer rows: %d matches; the case no longer tests what it says", outerRows, len(res.Rows))
		}
		if want := "IndexJoin(probe o.seq into lengthview(d)"; !strings.Contains(res.Plan(), want) {
			t.Fatalf("%d outer rows: plan lacks %q:\n%s", outerRows, want, res.Plan())
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := e.Execute(stmt); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(100), allocs(400)
	if large > small+2 {
		t.Errorf("allocations per execution grow with outer rows: %v at 100, %v at 400", small, large)
	}
	t.Logf("allocations per execution: %v at 100 outer rows, %v at 400", small, large)
}

// TestJoinEmitAllocsPerBlock: a join appends each matching pair to its
// one output batch — a copy of the outer row's slots plus the inner
// tuple — and the residual a.id != b.id compiles to an id comparison,
// so a matching self-join's allocations per execution grow with the
// blocks it emits (Project's cells and numbers, the collected rows),
// not with its pairs: four times the pairs costs a handful of
// allocations per extra block, where one per pair would be thousands.
func TestJoinEmitAllocsPerBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const stmt = `SELECT a.id, b.id, dist FROM words a, words b ON dist(a.seq, b.seq) <= 0 USING unit-edits WHERE a.id != b.id`
	allocs := func(words int) (float64, int) {
		// Every word four times: each row matches the three other copies.
		rel := relation.New("words")
		for i := 0; i < words; i++ {
			w := make([]byte, 8)
			for j := range w {
				w[j] = byte('a' + rng.Intn(26))
			}
			for c := 0; c < 4; c++ {
				rel.Insert(string(w), nil)
			}
		}
		cat := relation.NewCatalog()
		cat.Add(rel)
		e := NewEngine(cat, WithParallelism(1))
		if err := e.RegisterRuleSet(rewrite.UnitEdits("abcdefghijklmnopqrstuvwxyz")); err != nil {
			t.Fatal(err)
		}
		res, err := e.Execute(stmt)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 12*words || !strings.Contains(res.Plan(), "IndexJoin(probe a.seq into lengthview(b)") {
			t.Fatalf("%d words: %d pairs, plan:\n%s\nthe case no longer tests what it says", words, len(res.Rows), res.Plan())
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := e.Execute(stmt); err != nil {
				t.Fatal(err)
			}
		}), len(res.Rows)
	}
	a, small := allocs(64)
	b, large := allocs(256)
	if extraBlocks := (large - small) / defaultBatchSize; b-a > float64(4*extraBlocks) {
		t.Errorf("allocations per execution grow with pairs: %v at %d pairs, %v at %d", a, small, b, large)
	}
	t.Logf("allocations per execution: %v at %d pairs, %v at %d", a, small, b, large)
}

// TestRangeProjectAllocsPerBlock: a prepared WITHIN ... ORDER BY dist is
// served by a leaf that sorts its own matches, and Project formats each
// block into one cell array and one string, so allocations per execution
// grow with the blocks of the reply (and logarithmically with the
// growth of its buffers), not with its rows: four times the rows costs
// a handful of allocations per extra block, where one per cell would be
// thousands.
func TestRangeProjectAllocsPerBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	allocs := func(rows int) float64 {
		rel := relation.New("words")
		for i := 0; i < rows; i++ {
			// "ab" + two letters: every row is within 2 edits of "abcd".
			rel.Insert("ab"+string(rune('a'+rng.Intn(26)))+string(rune('a'+rng.Intn(26))), nil)
		}
		cat := relation.NewCatalog()
		cat.Add(rel)
		e := NewEngine(cat)
		if err := e.RegisterRuleSet(rewrite.UnitEdits("abcdefghijklmnopqrstuvwxyz")); err != nil {
			t.Fatal(err)
		}
		pq, err := e.Prepare(`SELECT id, seq, dist FROM words WHERE seq SIMILAR TO ? WITHIN 2 USING unit-edits ORDER BY dist`)
		if err != nil {
			t.Fatal(err)
		}
		res, err := pq.Execute("abcd")
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != rows || strings.Contains(res.Plan(), "OrderByDist") {
			t.Fatalf("%d rows: %d matches, plan:\n%s\nthe case no longer tests what it says", rows, len(res.Rows), res.Plan())
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := pq.Execute("abcd"); err != nil {
				t.Fatal(err)
			}
		})
	}
	const small, large = 2 * defaultBatchSize, 8 * defaultBatchSize
	a, b := allocs(small), allocs(large)
	if extraBlocks := (large - small) / defaultBatchSize; b-a > float64(4*extraBlocks) {
		t.Errorf("allocations per execution grow with rows: %v at %d rows, %v at %d", a, small, b, large)
	}
	t.Logf("allocations per execution: %v at %d rows, %v at %d", a, small, b, large)
}

// TestRangeProjectStreamAllocs is TestRangeProjectAllocsPerBlock
// through ExecuteTo, the path simqd streams replies on: Project reuses
// its cell array across blocks, the leaf's match list comes from a
// pool, and no sink keeps the rows, so an execution allocates the same
// at 512 rows as at 2 048 up to the one string per block that carries
// the block's formatted numbers.
func TestRangeProjectStreamAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	allocs := func(rows int) float64 {
		rel := relation.New("words")
		for i := 0; i < rows; i++ {
			rel.Insert("ab"+string(rune('a'+rng.Intn(26)))+string(rune('a'+rng.Intn(26))), nil)
		}
		cat := relation.NewCatalog()
		cat.Add(rel)
		e := NewEngine(cat)
		if err := e.RegisterRuleSet(rewrite.UnitEdits("abcdefghijklmnopqrstuvwxyz")); err != nil {
			t.Fatal(err)
		}
		pq, err := e.Prepare(`SELECT id, seq, dist FROM words WHERE seq SIMILAR TO ? WITHIN 2 USING unit-edits ORDER BY dist`)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		count := func(_ []string, rows [][]string) error { n += len(rows); return nil }
		if _, err := pq.ExecuteTo(context.Background(), count, "abcd"); err != nil || n != rows {
			t.Fatalf("%d rows: %d streamed, %v", rows, n, err)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := pq.ExecuteTo(context.Background(), count, "abcd"); err != nil {
				t.Fatal(err)
			}
		})
	}
	const small, large = 2 * defaultBatchSize, 8 * defaultBatchSize
	a, b := allocs(small), allocs(large)
	if extraBlocks := (large - small) / defaultBatchSize; b-a > float64(extraBlocks) {
		t.Errorf("streamed allocations grow with rows: %v at %d rows, %v at %d", a, small, b, large)
	}
	t.Logf("allocations per streamed execution: %v at %d rows, %v at %d", a, small, b, large)
}

// TestServingAllocsPinned pins the allocations of the two serving
// paths, each an indexed WITHIN with LIMIT 1 answering one row: a
// statement-cache hit through Engine.Execute, and a prepared ExecuteTo
// into a sink that keeps nothing: 19 and 18. Rendering the plan text on
// every execution costs 18 more, so putting any of it back on the hot
// path fails here.
func TestServingAllocsPinned(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rel := relation.New("dict")
	for i := 0; i < 20000; i++ {
		w := make([]byte, 4+rng.Intn(8))
		for j := range w {
			w[j] = byte('a' + rng.Intn(26))
		}
		rel.Insert(string(w), nil)
	}
	rel.Insert("abcdefgh", nil)
	cat := relation.NewCatalog()
	cat.Add(rel)
	e := NewEngine(cat)
	if err := e.RegisterRuleSet(rewrite.UnitEdits("abcdefghijklmnopqrstuvwxyz")); err != nil {
		t.Fatal(err)
	}
	const stmt = `SELECT seq FROM dict WHERE seq SIMILAR TO "abcdefgh" WITHIN 1 USING unit-edits LIMIT 1`
	pq, err := e.Prepare(`SELECT seq FROM dict WHERE seq SIMILAR TO ? WITHIN ? USING unit-edits LIMIT 1`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Execute(stmt) // builds the length view, fills the cache
	if err != nil || len(res.Rows) != 1 || !strings.Contains(res.Plan(), "IndexRange(dict via lengthview") {
		t.Fatalf("%v, %v; the case no longer tests what it says", res, err)
	}
	ctx := context.Background()
	keep := func([]string, [][]string) error { return nil }
	for _, c := range []struct {
		name string
		pin  float64
		run  func() error
	}{
		{"Engine.Execute, cache hit", 19, func() error { _, err := e.Execute(stmt); return err }},
		{"PreparedQuery.ExecuteTo", 18, func() error { _, err := pq.ExecuteTo(ctx, keep, "abcdefgh", 1); return err }},
	} {
		got := testing.AllocsPerRun(200, func() {
			if err := c.run(); err != nil {
				t.Fatal(err)
			}
		})
		if got > c.pin {
			t.Errorf("%s: %v allocations per execution, pinned at %v", c.name, got, c.pin)
		}
		t.Logf("%s: %v allocations per execution", c.name, got)
	}
}
