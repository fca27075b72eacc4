package query

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/editdp"
	"repro/internal/relation"
	"repro/internal/rewrite"
)

// The byte signature counts each of its sixteen byte classes up to a
// cap of eight. These tests hold the band walk against a brute-force
// Levenshtein scan on rows whose class counts straddle that cap, where
// the signature bound is weakest and an off-by-one in the cap or the
// length correction would dismiss a true answer.

const sigCapAlphabet = "abcdefghijklmnopqrstuvwxyz"

// sigCapSeq returns a string of 0–40 bytes in which one byte (or one of
// the bytes sharing its class, such as 'a' and 'q') repeats 7–12 times
// among random noise; every fourth string is a near copy of an earlier
// one, so small radii have answers.
func sigCapSeq(rng *rand.Rand, prev []string) string {
	if len(prev) > 0 && rng.Intn(4) == 0 {
		b := []byte(prev[rng.Intn(len(prev))])
		for e := rng.Intn(4); e > 0; e-- {
			switch i := rng.Intn(len(b) + 1); {
			case rng.Intn(3) == 0 && i < len(b):
				b = append(b[:i], b[i+1:]...)
			case rng.Intn(2) == 0 && i < len(b):
				b[i] = sigCapAlphabet[rng.Intn(len(sigCapAlphabet))]
			case len(b) < 40:
				b = slices.Insert(b, i, sigCapAlphabet[rng.Intn(len(sigCapAlphabet))])
			}
		}
		return string(b)
	}
	b := make([]byte, rng.Intn(41))
	for i := range b {
		b[i] = sigCapAlphabet[rng.Intn(len(sigCapAlphabet))]
	}
	rep := sigCapAlphabet[rng.Intn(len(sigCapAlphabet))]
	twin := rep // the byte 16 above or below shares rep's class
	if t := rep + 16; t <= 'z' {
		twin = t
	} else if t := rep - 16; t >= 'a' {
		twin = t
	}
	for _, i := range rng.Perm(len(b))[:min(len(b), 7+rng.Intn(6))] {
		b[i] = rep
		if rng.Intn(5) == 0 {
			b[i] = twin
		}
	}
	return string(b)
}

// sigCapRows returns n strings from sigCapSeq plus runs of one byte 0–40
// long, so every class count from 0 to 40 occurs.
func sigCapRows(rng *rand.Rand, n int) []string {
	var rows []string
	for i := 0; i <= 40; i += 3 {
		rows = append(rows, strings.Repeat("e", i))
	}
	for len(rows) < n {
		rows = append(rows, sigCapSeq(rng, rows))
	}
	return rows
}

// sigCapEngine loads rows into a fresh relation "words" (row i gets id
// i) behind an engine at the given block size with unit edits over a–z.
func sigCapEngine(t testing.TB, rows []string, block int) (*Engine, *relation.Relation) {
	t.Helper()
	rel := relation.New("words")
	for _, s := range rows {
		rel.Insert(s, nil)
	}
	cat := relation.NewCatalog()
	cat.Add(rel)
	e := NewEngine(cat, WithBatchSize(block))
	if err := e.RegisterRuleSet(rewrite.MustRuleSet("edits", rewrite.UnitEdits(sigCapAlphabet).Rules())); err != nil {
		t.Fatal(err)
	}
	return e, rel
}

// bruteNearest is NEAREST k over dists (indexed by id): the k smallest
// (dist, id) pairs, rendered as "id:dist" lines.
func bruteNearest(dists []int, k int) string {
	ids := make([]int, len(dists))
	for i := range ids {
		ids[i] = i
	}
	slices.SortStableFunc(ids, func(a, b int) int { return dists[a] - dists[b] })
	var out []string
	for _, id := range ids[:min(k, len(ids))] {
		out = append(out, fmt.Sprintf("%d:%d", id, dists[id]))
	}
	return strings.Join(out, "\n")
}

// idDistRows renders each row of res as its columns joined by ':', in
// reply order.
func idDistRows(res *Result) []string {
	out := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		out[i] = strings.Join(row, ":")
	}
	return out
}

// TestBandWalkSigCapOracle: WITHIN r, NEAREST k and the seq self-join,
// all band walks, answer exactly what a brute-force Levenshtein scan
// answers on rows and targets whose class counts straddle the cap, at
// block sizes 1 and 256.
func TestBandWalkSigCapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	rows := sigCapRows(rng, 300)
	targets := []string{"", "eeeeeeee", "eeeeeeeeeeee", "uuuuuuuuuuuuu", strings.Repeat("ab", 10)}
	for len(targets) < 25 {
		targets = append(targets, sigCapSeq(rng, rows))
	}
	joins := map[int][]string{}
	for _, r := range []int{1, 3} {
		for a, x := range rows {
			for b, y := range rows {
				if max(len(x)-len(y), len(y)-len(x)) > r {
					continue
				}
				if d := editdp.Levenshtein(x, y); d <= r {
					joins[r] = append(joins[r], fmt.Sprintf("%d:%d:%d", a, b, d))
				}
			}
		}
		slices.Sort(joins[r])
	}
	for _, block := range []int{1, 256} {
		e, _ := sigCapEngine(t, rows, block)
		run := func(stmt, op string) *Result {
			t.Helper()
			res, err := e.Execute(stmt)
			if err != nil {
				t.Fatalf("%s: %v", stmt, err)
			}
			if !strings.Contains(res.Plan(), op) {
				t.Fatalf("%s: plan has no %s:\n%s", stmt, op, res.Plan())
			}
			return res
		}
		for _, q := range targets {
			dists := make([]int, len(rows))
			for i, s := range rows {
				dists[i] = editdp.Levenshtein(q, s)
			}
			for r := 0; r <= 3; r++ {
				var want []string
				for id, d := range dists {
					if d <= r {
						want = append(want, fmt.Sprintf("%d:%d", id, d))
					}
				}
				stmt := fmt.Sprintf(`SELECT id, dist FROM words WHERE seq SIMILAR TO %q WITHIN %d USING edits`, q, r)
				if got := idDistRows(run(stmt, "via lengthview")); !slices.Equal(got, want) {
					t.Fatalf("block %d: %s\n got %v\nwant %v", block, stmt, got, want)
				}
			}
			for _, k := range []int{1, 5, 20} {
				stmt := fmt.Sprintf(`SELECT id, dist FROM words WHERE seq NEAREST %d TO %q USING edits`, k, q)
				if got, want := strings.Join(idDistRows(run(stmt, "NearestK(")), "\n"), bruteNearest(dists, k); got != want {
					t.Fatalf("block %d: %s\n got %s\nwant %s", block, stmt, got, want)
				}
			}
		}
		for r, want := range joins {
			stmt := fmt.Sprintf(`SELECT a.id, b.id, dist FROM words a, words b ON dist(a.seq, b.seq) <= %d USING edits`, r)
			got := idDistRows(run(stmt, "into lengthview(b)"))
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Fatalf("block %d: %s: %d pairs, want %d", block, stmt, len(got), len(want))
			}
		}
	}
}

// TestNearestSigCapReadersVsAppends runs NEAREST readers over the
// shared length view while a writer appends cap-straddling rows, which
// grows bands' entry and signature columns under the walks, packed
// groups included (targets of 1, 9 and 15 bytes; the targeted -race CI
// step runs 'Nearest' tests). With an insert-only
// writer a snapshot holds the first N rows for some N, so every answer
// must be the brute-force answer over the first N rows for an N between
// the commits seen before and after the query.
func TestNearestSigCapReadersVsAppends(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	rows := sigCapRows(rng, 600)
	const base, k = 200, 5
	e, rel := sigCapEngine(t, rows[:base], 256)
	targets := []string{"eeeeeeeee", "e", strings.Repeat("ea", 7) + "e", sigCapSeq(rng, rows), sigCapSeq(rng, rows)}
	if _, err := e.Execute(fmt.Sprintf(`SELECT id FROM words WHERE seq NEAREST 1 TO %q USING edits`, targets[0])); err != nil {
		t.Fatal(err) // builds the view the writer will extend
	}

	var committed atomic.Int64
	var writerDone atomic.Bool
	committed.Store(base)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer writerDone.Store(true)
		for i := base; i < len(rows); i++ {
			if id := rel.Insert(rows[i], nil); id != i {
				t.Errorf("row %d got id %d", i, id)
				return
			}
			committed.Store(int64(i + 1))
		}
	}()
	for r, q := range targets {
		wg.Add(1)
		go func(r int, q string) {
			defer wg.Done()
			dists := make([]int, len(rows))
			for i, s := range rows {
				dists[i] = editdp.Levenshtein(q, s)
			}
			stmt := fmt.Sprintf(`SELECT id, dist FROM words WHERE seq NEAREST %d TO %q USING edits`, k, q)
			for {
				last := writerDone.Load()
				lo := int(committed.Load())
				res, err := e.Execute(stmt)
				if err != nil {
					t.Error(err)
					return
				}
				hi := int(committed.Load())
				got := strings.Join(idDistRows(res), "\n")
				ok := false
				for n := lo; n <= hi && !ok; n++ {
					ok = got == bruteNearest(dists[:n], k)
				}
				if !ok {
					t.Errorf("reader %d: %s after %d..%d commits:\n%s", r, stmt, lo, hi, got)
					return
				}
				if last {
					return
				}
			}
		}(r, q)
	}
	wg.Wait()
}
