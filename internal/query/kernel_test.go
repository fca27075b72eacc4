package query

import (
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/rewrite"
)

// TestExplainShowsKernelDispatch pins the plan-decision kernel record:
// unit-cost conjuncts dispatch to the bit-parallel Myers kernel, on the
// band walk and in the scan filter alike, weighted rule sets stay on
// TargetDP, and targets outside the rule alphabet fall back to
// TargetDP.
func TestExplainShowsKernelDispatch(t *testing.T) {
	e := testEngine(t)
	for _, tc := range []struct{ stmt, op, kernel string }{
		// The band walk serves unit-cost WITHIN at any radius.
		{`SELECT * FROM words WHERE seq SIMILAR TO "color" WITHIN 1 USING unit-edits`, "IndexRange", "myers"},
		{`SELECT * FROM words WHERE seq SIMILAR TO "color" WITHIN 1.5 USING unit-edits`, "IndexRange", "myers"},
		// The OR conjunct forces a scan; the compiled filter serves it.
		{`SELECT * FROM words WHERE seq SIMILAR TO "color" WITHIN 1.5 USING unit-edits OR lang = "xx"`, "Scan(", "myers"},
		// Weighted rule set: the vectorized weighted kernel serves it.
		{`SELECT * FROM words WHERE seq SIMILAR TO "color" WITHIN 1.5 USING cheap_vowels`, "Scan(", "targetdp"},
		// Target byte outside the rule alphabet: +Inf costs under the
		// rule set's semantics, so Myers must not serve it.
		{`SELECT * FROM words WHERE seq SIMILAR TO "c0lor" WITHIN 1.5 USING unit-edits`, "IndexRange", "targetdp"},
		{`SELECT * FROM words WHERE seq SIMILAR TO "c0lor" WITHIN 1.5 USING unit-edits OR lang = "xx"`, "Scan(", "targetdp"},
		{`SELECT * FROM words WHERE seq NEAREST 2 TO "color" USING unit-edits`, "NearestK", "myers"},
		{`SELECT * FROM words WHERE seq NEAREST 2 TO "c0lor" USING unit-edits`, "NearestK", "targetdp"},
	} {
		res, err := e.Execute("EXPLAIN " + tc.stmt)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(res.Plan(), tc.op) || !strings.Contains(res.Plan(), "kernel="+tc.kernel) {
			t.Errorf("%s: want %s with kernel=%s:\n%s", tc.stmt, tc.op, tc.kernel, res.Plan())
		}
	}
}

// TestRuleAlphabetOneDistance: editing a byte outside the rule alphabet
// costs +Inf under the rule set's own semantics, and every access path
// must agree — the band walk (WITHIN at an integral, a fractional and a
// huge radius, NEAREST), the scan filter and the index join, serial
// and over 4 parallel slices. Plain Levenshtein would admit caZ, ca-t and Cat at
// distance 1 from cat.
func TestRuleAlphabetOneDistance(t *testing.T) {
	for _, slices := range []int{1, 4} {
		w := relation.New("w")
		for _, s := range []string{"cat", "caZ", "cot", "dog", "ca-t", "Cat"} {
			w.Insert(s, nil)
		}
		q := relation.New("q")
		q.Insert("cat", nil)
		q.Insert("caZ", nil)
		cat := relation.NewCatalog()
		cat.Add(w)
		cat.Add(q)
		e := NewEngine(cat, WithParallelism(slices), WithParallelMinRows(1))
		if err := e.RegisterRuleSet(rewrite.UnitEdits("abcdefghijklmnopqrstuvwxyz")); err != nil {
			t.Fatal(err)
		}
		const (
			catNear = "cat\x1f0\ncot\x1f1"
			caZNear = "caZ\x1f0"
		)
		for _, tc := range []struct{ stmt, op, want string }{
			{`SELECT seq, dist FROM w WHERE seq SIMILAR TO "cat" WITHIN 1 USING unit-edits`, "IndexRange", catNear},
			{`SELECT seq, dist FROM w WHERE seq SIMILAR TO "cat" WITHIN 1.5 USING unit-edits`, "IndexRange", catNear},
			{`SELECT seq, dist FROM w WHERE seq SIMILAR TO "cat" WITHIN 1 USING unit-edits OR seq = "#"`, "Scan", catNear},
			{`SELECT seq, dist FROM w WHERE seq NEAREST 6 TO "cat" USING unit-edits`, "NearestK", catNear + "\ndog\x1f3"},
			// A radius past the int range: every finite distance qualifies.
			{`SELECT seq, dist FROM w WHERE seq SIMILAR TO "cat" WITHIN 1e300 USING unit-edits`, "IndexRange", catNear + "\ndog\x1f3"},
			{`SELECT seq, dist FROM w WHERE seq SIMILAR TO "cat" WITHIN 1e300 USING unit-edits OR seq = "#"`, "Scan", catNear + "\ndog\x1f3"},
			{`SELECT b.seq, dist FROM q a, w b ON dist(a.seq, b.seq) <= 1 USING unit-edits WHERE a.seq = "cat"`, "IndexJoin", catNear},
			{`SELECT seq, dist FROM w WHERE seq SIMILAR TO "caZ" WITHIN 1 USING unit-edits`, "IndexRange", caZNear},
			{`SELECT seq, dist FROM w WHERE seq SIMILAR TO "caZ" WITHIN 1 USING unit-edits OR seq = "#"`, "Scan", caZNear},
			{`SELECT seq, dist FROM w WHERE seq NEAREST 6 TO "caZ" USING unit-edits`, "NearestK", caZNear},
			{`SELECT b.seq, dist FROM q a, w b ON dist(a.seq, b.seq) <= 1 USING unit-edits WHERE a.seq = "caZ"`, "IndexJoin", caZNear},
		} {
			res, err := e.Execute(tc.stmt)
			if err != nil {
				t.Fatalf("slices=%d %s: %v", slices, tc.stmt, err)
			}
			if got := positional(res); got != tc.want || !strings.Contains(res.Plan(), tc.op) {
				t.Errorf("slices=%d %s:\ngot:\n%s\nwant (%s):\n%s\nplan:\n%s", slices, tc.stmt, got, tc.op, tc.want, res.Plan())
			}
		}
	}
}

// TestProbeStepKernels: in a join whose edges are of two domains, each
// step's operator names its own probe's kernel, and the plan's dispatch
// counter counts the first step's, whichever edge comes first in WHERE.
func TestProbeStepKernels(t *testing.T) {
	_, e, _ := fuzzParityEngines()
	dispatched := func(kernel string) int64 {
		return obs.Default.Counter(`simq_kernel_dispatch_total{kernel="`+kernel+`"}`,
			"Plan executions dispatched to a distance kernel.").Value()
	}
	const from = `SELECT a.id, b.id, c.id FROM words a, words b, words c WHERE `
	for _, c := range []struct {
		stmt, first string
		lines       map[string]string // operator -> kernel
	}{
		{from + `a.seq SIMILAR TO b.seq WITHIN 1 USING edits AND b.vec SIMILAR TO c.vec WITHIN 1 USING l2`, "myers",
			map[string]string{"IndexJoin(probe a.seq into lengthview(b)": "myers", "IndexJoin(probe b.vec into vecview(c)": "vec-l2"}},
		{from + `b.seq SIMILAR TO c.seq WITHIN 1 USING edits AND a.vec SIMILAR TO b.vec WITHIN 1 USING l2`, "vec-l2",
			map[string]string{"IndexJoin(probe a.vec into vecview(b)": "vec-l2", "IndexJoin(probe b.seq into lengthview(c)": "myers"}},
		{from + `a.vec SIMILAR TO b.vec WITHIN 0.01 USING cosine AND b.tag SIMILAR TO c.tag WITHIN 1 USING edits`, "vec-cosine",
			map[string]string{"IndexJoin(probe a.vec into vecview(b)": "vec-cosine", "NestedLoopJoin(c[length-banded], on b.tag": "myers"}},
	} {
		before := dispatched(c.first)
		res, err := e.Execute(c.stmt)
		if err != nil {
			t.Fatal(err)
		}
		if n := dispatched(c.first) - before; n != 1 {
			t.Errorf("%s: %s dispatch count moved by %d, want 1", c.stmt, c.first, n)
		}
		for op, kernel := range c.lines {
			found := false
			for _, line := range strings.Split(res.Plan(), "\n") {
				if strings.Contains(line, op) {
					found = true
					if !strings.HasSuffix(line, "(kernel="+kernel+")") {
						t.Errorf("%s: %s does not run %s:\n%s", c.stmt, op, kernel, res.Plan())
					}
				}
			}
			if !found {
				t.Errorf("%s: no %s in the plan:\n%s", c.stmt, op, res.Plan())
			}
		}
	}
}
