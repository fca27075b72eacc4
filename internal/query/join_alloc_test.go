//go:build !race

package query

// Under the race detector sync.Pool discards a share of what is put back,
// so pooled batches are reallocated and the counts below do not hold.

import (
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
		if want := "IndexJoin(probe o.seq into lengthview(d)"; !strings.Contains(res.Plan, want) {
			t.Fatalf("%d outer rows: plan lacks %q:\n%s", outerRows, want, res.Plan)
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
