package query

// TestWorkCountersPinned holds the exact work counters — candidates,
// verifications, abandoned verifications and rows — of every similarity
// access path on seeded fixtures: the band walk (NEAREST, WITHIN at the
// ad hoc, mixed and wide radii, the join probe, symmetric or not), the
// weighted NEAREST scan, the vector view under l2 and cosine (NEAREST,
// WITHIN, join probe) and the banded nested-loop join. A
// refactor of the access paths must leave each count as it is: the
// counters are what the benchmark's per-layer metrics read, so a path
// that verifies one row more shows here before it shows there.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/metric"
	"repro/internal/relation"
	"repro/internal/rewrite"
)

// counterFixture builds a serial engine over three seeded relations:
// "words" (1 200 strings of 4–12 bytes, a third of them near copies of
// an earlier one), "dict" (300 such strings with a four-byte "tag"
// attribute) and "vecs" (500 rows, six 8-dimensional clusters, every
// ninth row without a vector). Rule sets: "edits" (unit cost) and
// "half" (the same edits at cost 0.5, which no band bound applies to).
func counterFixture(t testing.TB) (*Engine, []string, []metric.Vector) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	const alpha = "abcdefghijklmnopqrstuvwxyz"
	word := func(prev []string) string {
		if len(prev) > 0 && rng.Intn(3) == 0 {
			b := []byte(prev[rng.Intn(len(prev))])
			b[rng.Intn(len(b))] = alpha[rng.Intn(len(alpha))]
			if rng.Intn(2) == 0 && len(b) > 4 {
				b = b[:len(b)-1]
			}
			return string(b)
		}
		b := make([]byte, 4+rng.Intn(9))
		for i := range b {
			b[i] = alpha[rng.Intn(len(alpha))]
		}
		return string(b)
	}
	var words []string
	wrel := relation.New("words")
	for i := 0; i < 1200; i++ {
		w := word(words)
		words = append(words, w)
		wrel.Insert(w, nil)
	}
	drel := relation.New("dict")
	var dict []string
	for i := 0; i < 300; i++ {
		w := word(dict)
		dict = append(dict, w)
		drel.Insert(w, map[string]string{"tag": w[:4]})
	}
	vrel := relation.New("vecs")
	centres := make([]metric.Vector, 6)
	for c := range centres {
		centres[c] = make(metric.Vector, 8)
		for j := range centres[c] {
			centres[c][j] = float32(rng.NormFloat64() * 4)
		}
	}
	var vecs []metric.Vector
	for i := 0; i < 500; i++ {
		in := relation.InsertRow{Seq: word(nil)}
		if i%9 != 0 {
			v := make(metric.Vector, 8)
			for j, c := range centres[i%len(centres)] {
				v[j] = c + float32(rng.NormFloat64()*0.6)
			}
			in.Vec = v
			vecs = append(vecs, v)
		}
		vrel.InsertOne(in)
	}
	cat := relation.NewCatalog()
	cat.Add(wrel)
	cat.Add(drel)
	cat.Add(vrel)
	e := NewEngine(cat, WithParallelism(1))
	if err := e.RegisterRuleSet(rewrite.MustRuleSet("edits", rewrite.UnitEdits(alpha).Rules())); err != nil {
		t.Fatal(err)
	}
	var rules []rewrite.Rule
	for _, c := range []byte(alpha) {
		rules = append(rules, rewrite.Insert(c, 0.5), rewrite.Delete(c, 0.5))
		for _, d := range []byte(alpha) {
			if c != d {
				rules = append(rules, rewrite.Subst(c, d, 0.5))
			}
		}
	}
	if err := e.RegisterRuleSet(rewrite.MustRuleSet("half", rules)); err != nil {
		t.Fatal(err)
	}
	return e, words, vecs
}

// workCounts is what one execution did: rows returned and the work
// counters of Result.Stats.
type workCounts struct {
	rows, cand, verif, abandoned int
}

func TestWorkCountersPinned(t *testing.T) {
	e, words, vecs := counterFixture(t)
	vlit := func(v metric.Vector) string { return metric.Format(v) }
	cases := []struct {
		name, stmt, op string
		want           workCounts
	}{
		{"words nearest 10", fmt.Sprintf(`SELECT id, seq, dist FROM words WHERE seq NEAREST 10 TO %q USING edits`, words[17]),
			"NearestK(words", workCounts{10, 800, 348, 248}},
		{"within 1 adhoc", fmt.Sprintf(`SELECT id, seq, dist FROM words WHERE seq SIMILAR TO %q WITHIN 1 USING edits LIMIT 20`, words[300]),
			"IndexRange(words via lengthview", workCounts{2, 393, 3, 1}},
		{"within 2 mix", fmt.Sprintf(`SELECT id, seq, dist FROM words WHERE seq SIMILAR TO %q WITHIN 2 USING edits LIMIT 20`, words[41]),
			"IndexRange(words via lengthview", workCounts{3, 676, 3, 0}},
		{"within 5 wide", fmt.Sprintf(`SELECT id, seq, dist FROM words WHERE seq SIMILAR TO %q WITHIN 5 USING edits ORDER BY dist`, words[900]),
			"IndexRange(words via lengthview", workCounts{326, 800, 476, 150}},
		{"weighted nearest", fmt.Sprintf(`SELECT id, dist FROM words WHERE seq NEAREST 5 TO %q USING half`, words[5]),
			"NearestK(words", workCounts{5, 1200, 1200, 1159}},
		{"vec nearest l2", fmt.Sprintf(`SELECT id, dist FROM vecs WHERE vec NEAREST 10 TO %s USING l2`, vlit(vecs[33])),
			"VecNearestK(vecs via vecview", workCounts{10, 139, 148, 0}},
		{"vec within l2", fmt.Sprintf(`SELECT id, dist FROM vecs WHERE vec SIMILAR TO %s WITHIN 1.5 USING l2`, vlit(vecs[70])),
			"VecRange(vecs via vecview", workCounts{8, 114, 121, 0}},
		{"vec nearest cosine", fmt.Sprintf(`SELECT id, dist FROM vecs WHERE vec NEAREST 10 TO %s USING cosine`, vlit(vecs[12])),
			"VecNearestK(vecs via vecview", workCounts{10, 103, 112, 0}},
		{"join_dict self-join", `SELECT a.id, b.id, dist FROM dict a, dict b ON dist(a.seq, b.seq) <= 1 USING edits WHERE a.id != b.id`,
			"IndexJoin(probe a.seq into lengthview(b), on a.seq SIMILAR TO b.seq WITHIN 1 USING edits, symmetric)", workCounts{164, 14069, 289, 43}},
		{"seq join", `SELECT a.id, b.id, dist FROM dict a, words b ON dist(a.seq, b.seq) <= 1 USING edits`,
			"IndexJoin(probe a.seq into lengthview(b)", workCounts{2, 110624, 256, 254}},
		{"seq self-join", `SELECT a.id, b.id, dist FROM dict a, dict b ON dist(a.seq, b.seq) <= 1 USING edits`,
			"IndexJoin(probe a.seq into lengthview(b), on a.seq SIMILAR TO b.seq WITHIN 1 USING edits)", workCounts{464, 28138, 550, 86}},
		{"banded tag join", `SELECT a.id, b.id, dist FROM dict a, dict b ON dist(a.tag, b.tag) <= 1 USING edits`,
			"NestedLoopJoin(b[length-banded]", workCounts{600, 90600, 90000, 0}},
		{"vec join l2", `SELECT a.id, b.id, dist FROM vecs a, vecs b ON dist(a.vec, b.vec) <= 1 USING l2 WHERE a.id != b.id`,
			"IndexJoin(probe a.vec into vecview(b)", workCounts{160, 33569, 36357, 0}},
		{"vec join cosine", `SELECT a.id, b.id, dist FROM vecs a, vecs b ON dist(a.vec, b.vec) <= 0.01 USING cosine`,
			"IndexJoin(probe a.vec into vecview(b)", workCounts{12580, 40708, 43436, 0}},
	}
	var dump strings.Builder
	for _, c := range cases {
		res, err := e.Execute(c.stmt)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !strings.Contains(res.Plan(), c.op) {
			t.Errorf("%s: plan lacks %q:\n%s", c.name, c.op, res.Plan())
		}
		got := workCounts{len(res.Rows), res.Stats.Candidates, res.Stats.Verifications, res.Stats.Abandoned}
		fmt.Fprintf(&dump, "%s: workCounts{%d, %d, %d, %d}\n", c.name, got.rows, got.cand, got.verif, got.abandoned)
		if got != c.want {
			t.Errorf("%s: got %+v, want %+v", c.name, got, c.want)
		}
	}
	if t.Failed() {
		t.Log("\n" + dump.String())
	}
}
