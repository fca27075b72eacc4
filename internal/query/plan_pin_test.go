package query

// Plan pins. The repo benchmark (BENCHMARK.json) measures six statement
// shapes over simqd on default flags; which operators serve them is a
// cost decision, so a planner side effect would otherwise first show as
// a benchmark regression. TestBenchmarkPlanSkeletons fails instead. The
// other tests reach the join probes no benchmark workload is routed to —
// the vector view probe and the scan — next to the length-view probe
// join_dict takes, and pin that an edge's probe follows from what its
// inner side offers, not from the size of its outer side.

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/editdp"
	"repro/internal/metric"
	"repro/internal/relation"
	"repro/internal/rewrite"
	"repro/internal/seq"
)

// datagenWords is the relation `datagen -kind words` emits: the
// planner's choices depend on the relation statistics, and the
// benchmark's come from these rows.
func datagenWords(name string, seed int64, count int) *relation.Relation {
	rel := relation.New(name)
	for _, w := range seq.MustAlphabet("abcdefghij").PlantedWords(rand.New(rand.NewSource(seed)), count) {
		rel.Insert(w, nil)
	}
	return rel
}

// planSkeleton reduces a rendered plan to its operator names, root
// first. GatherMerge is dropped: over the plain relations here it only
// marks a parallel plan, and whether a scan is split across workers
// depends on GOMAXPROCS, not on the plan the benchmark depends on.
func planSkeleton(plan string) []string {
	var names []string
	for _, line := range strings.Split(plan, "\n") {
		line = strings.TrimLeft(line, " │├└─")
		if name := line[:strings.IndexByte(line, '(')]; name != "GatherMerge" {
			names = append(names, name)
		}
	}
	return names
}

func TestBenchmarkPlanSkeletons(t *testing.T) {
	// bench/data.go: 20000 words (seed 1), a 600-word dict (seed 2) and
	// 64-dim vectors (the vector plan does not depend on their count).
	cat := relation.NewCatalog()
	cat.Add(datagenWords("words", 1, 20000))
	cat.Add(datagenWords("dict", 2, 600))
	vecs := relation.New("vecs")
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 64; i++ {
		vecs.InsertOne(relation.InsertRow{Vec: randVec(rng, 64)})
	}
	cat.Add(vecs)
	e := NewEngine(cat)
	if err := e.RegisterRuleSet(rewrite.MustRuleSet("edits", rewrite.UnitEdits("abcdefghij").Rules())); err != nil {
		t.Fatal(err)
	}
	vec := metric.Format(randVec(rng, 64))
	// The statements of bench/workloads.go with their parameters bound.
	cases := []struct {
		workload string
		stmt     string
		skeleton string
		want     string // a fragment the access path must render
	}{
		{"words_nearest", `SELECT id, seq, dist FROM words WHERE seq NEAREST 10 TO "egaebcjebf" USING edits`,
			"Project NearestK", "NearestK(words, k=10, ruleset=edits)  (kernel=myers)"},
		{"words_adhoc", `SELECT id, seq, dist FROM words WHERE seq SIMILAR TO "egaebcjebf" WITHIN 1 USING edits LIMIT 20`,
			"Limit Project IndexRange", "IndexRange(words via lengthview, target=egaebcjebf, radius=1, ruleset=edits)  (kernel=myers)"},
		{"words_wide", `SELECT id, seq, dist FROM words WHERE seq SIMILAR TO "egaebcjebf" WITHIN 5 USING edits ORDER BY dist`,
			"Project IndexRange", "IndexRange(words via lengthview, target=egaebcjebf, radius=5, ruleset=edits, order=dist)  (kernel=myers)"},
		{"vec_nearest", `SELECT id, dist FROM vecs WHERE vec NEAREST 10 TO ` + vec + ` USING l2`,
			"Project VecNearestK", "VecNearestK(vecs via vecview"},
		{"ingest_mix", `SELECT id, seq, dist FROM words WHERE seq SIMILAR TO "egaebcjebf" WITHIN 2 USING edits LIMIT 20`,
			"Limit Project IndexRange", "IndexRange(words via lengthview, target=egaebcjebf, radius=2, ruleset=edits)  (kernel=myers)"},
		{"join_dict", `SELECT a.id, b.id, dist FROM dict a, dict b ON dist(a.seq, b.seq) <= 1 USING edits WHERE a.id != b.id`,
			"Project Filter IndexJoin Scan", "IndexJoin(probe a.seq into lengthview(b), on a.seq SIMILAR TO b.seq WITHIN 1 USING edits, symmetric)  (kernel=myers)"},
	}
	for _, c := range cases {
		res, err := e.Execute("EXPLAIN " + c.stmt)
		if err != nil {
			t.Fatalf("%s: %v", c.workload, err)
		}
		if got := strings.Join(planSkeleton(res.Plan()), " "); got != c.skeleton {
			t.Errorf("%s: plan skeleton %q, the benchmark was measured on %q:\n%s", c.workload, got, c.skeleton, res.Plan())
		}
		if !strings.Contains(res.Plan(), c.want) {
			t.Errorf("%s: plan lacks %q:\n%s", c.workload, c.want, res.Plan())
		}
	}
}

// TestIndexAndNestedLoopJoins drives the index and scan probes at block
// sizes 1 and 256, serial and over 4 parallel slices, against a brute-force
// double loop: a one-row probe relation joined at radius 0 to short
// strings (the length view, at the radius that visits one band) and
// within 0.5 under l2 to 3-dim vectors (the vector view). The weighted
// "half" rule set licenses neither index nor length band, so it takes
// the scan that verifies every pair.
func TestIndexAndNestedLoopJoins(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var rows []relation.InsertRow
	for i := 0; i < 60; i++ {
		b := make([]byte, 2+rng.Intn(2))
		for j := range b {
			b[j] = "abc"[rng.Intn(3)]
		}
		rows = append(rows, relation.InsertRow{Seq: string(b)})
		if i%5 != 0 { // every fifth row has no vector and never matches
			rows[i].Vec = randVec(rng, 3)
		}
	}
	probe := relation.InsertRow{Seq: rows[7].Seq, Vec: rows[8].Vec}

	var half []rewrite.Rule
	for _, c := range "abc" {
		half = append(half, rewrite.Insert(byte(c), 0.5), rewrite.Delete(byte(c), 0.5))
		for _, d := range "abc" {
			if c != d {
				half = append(half, rewrite.Subst(byte(c), byte(d), 0.5))
			}
		}
	}
	mk := func(slices, block int) *Engine {
		w, p := relation.New("words"), relation.New("probe")
		w.InsertBatch(rows)
		p.InsertBatch([]relation.InsertRow{probe})
		cat := relation.NewCatalog()
		cat.Add(w)
		cat.Add(p)
		e := NewEngine(cat, WithBatchSize(block), WithParallelism(slices), WithParallelMinRows(1))
		for _, rs := range []*rewrite.RuleSet{
			rewrite.MustRuleSet("edits", rewrite.UnitEdits("abc").Rules()),
			rewrite.MustRuleSet("half", half),
		} {
			if err := e.RegisterRuleSet(rs); err != nil {
				t.Fatal(err)
			}
		}
		return e
	}

	l2, _ := metric.Lookup("l2")
	var wantSeq, wantVec, wantHalf []string
	for i, r := range rows {
		if r.Seq == probe.Seq {
			wantSeq = append(wantSeq, fmt.Sprintf("0\x1f%d\x1f0", i))
		}
		if r.Vec != nil {
			if d, ok := metric.Within(l2, probe.Vec, r.Vec, 0.5); ok {
				wantVec = append(wantVec, fmt.Sprintf("0\x1f%d\x1f%s", i, strconv.FormatFloat(d, 'g', -1, 64)))
			}
		}
		for j, s := range rows {
			// Every edit costs 0.5, so the distance is half Levenshtein's.
			if d := editdp.Levenshtein(r.Seq, s.Seq); i != j && d <= 1 {
				wantHalf = append(wantHalf, fmt.Sprintf("%d\x1f%d\x1f%s", i, j, strconv.FormatFloat(0.5*float64(d), 'g', -1, 64)))
			}
		}
	}
	cases := []struct {
		stmt string
		op   string
		want []string
	}{
		{`SELECT p.id, w.id, dist FROM probe p, words w ON dist(p.seq, w.seq) <= 0 USING edits`,
			"IndexJoin(probe p.seq into lengthview(w)", wantSeq},
		{`SELECT p.id, w.id, dist FROM probe p, words w ON dist(p.vec, w.vec) <= 0.5 USING l2`,
			"IndexJoin(probe p.vec into vecview(w)", wantVec},
		{`SELECT a.id, b.id, dist FROM words a, words b ON dist(a.seq, b.seq) <= 0.5 USING half WHERE a.id != b.id`,
			"NestedLoopJoin(b", wantHalf},
	}
	for _, c := range cases {
		if len(c.want) < 2 {
			t.Fatalf("%s: the brute force has %d rows, the test data is too thin", c.stmt, len(c.want))
		}
		sort.Strings(c.want)
		var first *Result
		for _, slices := range []int{1, 4} {
			for _, block := range []int{1, 256} {
				e := mk(slices, block)
				res, err := e.Execute(c.stmt)
				if err != nil {
					t.Fatalf("slices=%d block=%d %s: %v", slices, block, c.stmt, err)
				}
				if !strings.Contains(res.Plan(), c.op) {
					t.Fatalf("slices=%d block=%d %s: not planned as %s:\n%s", slices, block, c.stmt, c.op, res.Plan())
				}
				if (slices > 1) != strings.Contains(res.Plan(), "GatherMerge(shards=4") {
					t.Fatalf("slices=%d block=%d %s: gather placement:\n%s", slices, block, c.stmt, res.Plan())
				}
				if got := canonical(res); got != strings.Join(c.want, "\n") {
					t.Fatalf("slices=%d block=%d %s diverges from brute force:\ngot:\n%s\nwant:\n%s",
						slices, block, c.stmt, got, strings.Join(c.want, "\n"))
				}
				if first == nil {
					first = res
				} else if positional(first) != positional(res) {
					t.Fatalf("slices=%d block=%d %s: emission order diverges from serial block 1:\n%s\nvs\n%s",
						slices, block, c.stmt, positional(res), positional(first))
				}
			}
		}
	}
}

// TestJoinProbeIsCapability: each edge's probe is the one its inner side
// offers — the vector view under any metric, the length view where the
// rule set licenses it, the length-banded scan for a unit-cost edge onto
// another attribute, the plain scan otherwise — and it is the same
// against a one-row outer side as against a 600-row one.
func TestJoinProbeIsCapability(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rows := make([]relation.InsertRow, 600)
	for i := range rows {
		rows[i] = relation.InsertRow{Seq: randOracleSeq(rng), Attrs: map[string]string{"w": randOracleSeq(rng)}, Vec: randVec(rng, 3)}
	}
	cat := relation.NewCatalog()
	for name, n := range map[string]int{"one": 1, "many": 600, "inner": 600} {
		rel := relation.New(name)
		rel.InsertBatch(rows[:n])
		cat.Add(rel)
	}
	e := NewEngine(cat)
	for _, rs := range []*rewrite.RuleSet{
		rewrite.MustRuleSet("edits", rewrite.UnitEdits(oracleAlphabet).Rules()), halvesRules(), swapsRules(),
	} {
		if err := e.RegisterRuleSet(rs); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct{ edge, probe string }{
		{`dist(a.seq, b.seq) <= 1 USING edits`, "IndexJoin(probe a.seq into lengthview(b), on"},
		{`dist(a.seq, b.w) <= 1 USING edits`, "NestedLoopJoin(b[length-banded], on"},
		{`dist(a.seq, b.seq) <= 1 USING halves`, "NestedLoopJoin(b, on"},
		{`dist(a.seq, b.seq) <= 1 USING swaps`, "NestedLoopJoin(b, on"},
		{`dist(a.vec, b.vec) <= 0.5 USING l2`, "IndexJoin(probe a.vec into vecview(b), on"},
		{`dist(a.vec, b.vec) <= 0.1 USING cosine`, "IndexJoin(probe a.vec into vecview(b), on"},
	} {
		for _, outer := range []string{"one", "many"} {
			stmt := fmt.Sprintf(`EXPLAIN SELECT a.id, b.id FROM %s a, inner b ON %s`, outer, c.edge)
			res, err := e.Execute(stmt)
			if err != nil {
				t.Fatalf("%s: %v", stmt, err)
			}
			if !strings.Contains(res.Plan(), c.probe) {
				t.Errorf("%s: want %s:\n%s", stmt, c.probe, res.Plan())
			}
		}
	}
}
