package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"repro/internal/metric"
	"repro/internal/relation"
)

// The oracle recomputes answers by brute force with code of its own
// that shares nothing with the engine: a textbook two-row Levenshtein
// for words and a naive float64 loop for vectors.

// lev is the unit-cost edit distance by the full dynamic programme.
func lev(a, b string) int {
	prev, cur := make([]int, len(b)+1), make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// reply is the part of a /v1/query or /v1/ingest response the harness
// reads.
type reply struct {
	Rows     [][]string `json:"rows"`
	RowCount int        `json:"row_count"`
	Stats    struct {
		Candidates    int  `json:"candidates"`
		Verifications int  `json:"verifications"`
		PlanCacheHit  bool `json:"plan_cache_hit"`
	} `json:"stats"`
	ElapsedMS float64 `json:"elapsed_ms"`
	IDs       []int   `json:"ids"` // /v1/ingest
}

// wordRow parses an (id, seq, dist) row and checks it against the
// relation and the scalar distance.
func wordRow(rows []relation.Tuple, target string, row []string) (id int, dist int, err error) {
	if len(row) != 3 {
		return 0, 0, fmt.Errorf("row has %d columns, want 3", len(row))
	}
	id, err = strconv.Atoi(row[0])
	if err != nil || id < 0 || id >= len(rows) || rows[id].ID != id {
		return 0, 0, fmt.Errorf("row id %q is not a tuple of the relation", row[0])
	}
	if rows[id].Seq != row[1] {
		return 0, 0, fmt.Errorf("row %d: seq %q, relation holds %q", id, row[1], rows[id].Seq)
	}
	dist = lev(target, row[1])
	if row[2] != strconv.Itoa(dist) {
		return 0, 0, fmt.Errorf("row %d: dist %s, brute force %d", id, row[2], dist)
	}
	return id, dist, nil
}

// checkNearestWords accepts any valid top-k: every row's distance is
// right, rows are in non-decreasing distance, no id repeats, and the
// distances equal the k smallest of the whole relation (ties at the
// k-th distance may resolve to any id).
func checkNearestWords(rows []relation.Tuple, target string, k int, r *reply) error {
	all := make([]int, len(rows))
	for i, t := range rows {
		all[i] = lev(target, t.Seq)
	}
	sort.Ints(all)
	want := all[:min(k, len(all))]
	if len(r.Rows) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(r.Rows), len(want))
	}
	seen := map[int]bool{}
	for i, row := range r.Rows {
		id, d, err := wordRow(rows, target, row)
		if err != nil {
			return err
		}
		if seen[id] {
			return fmt.Errorf("row %d returned twice", id)
		}
		seen[id] = true
		if d != want[i] {
			return fmt.Errorf("rank %d: dist %d, brute force %d", i, d, want[i])
		}
	}
	return nil
}

// checkWithinWords checks a WITHIN radius reply. With limit > 0 any
// min(limit, |truth|) in-radius rows are right; with limit 0 the reply
// must be the whole truth set. ordered additionally wants non-decreasing
// distance.
func checkWithinWords(rows []relation.Tuple, target string, radius, limit int, ordered bool, r *reply) error {
	truth := 0
	for _, t := range rows {
		if lev(target, t.Seq) <= radius {
			truth++
		}
	}
	want := truth
	if limit > 0 {
		want = min(limit, truth)
	}
	if len(r.Rows) != want {
		return fmt.Errorf("%d rows, want %d (truth %d, limit %d)", len(r.Rows), want, truth, limit)
	}
	seen := map[int]bool{}
	last := 0
	for _, row := range r.Rows {
		id, d, err := wordRow(rows, target, row)
		if err != nil {
			return err
		}
		if seen[id] {
			return fmt.Errorf("row %d returned twice", id)
		}
		seen[id] = true
		if d > radius {
			return fmt.Errorf("row %d: dist %d beyond radius %d", id, d, radius)
		}
		if ordered && d < last {
			return fmt.Errorf("row %d: dist %d after %d breaks ORDER BY dist", id, d, last)
		}
		last = d
	}
	return nil
}

// naiveL2 is the Euclidean distance accumulated left to right in
// float64. The engine's blocked kernel sums in another order, so
// comparisons allow a relative 1e-9.
func naiveL2(a, b metric.Vector) float64 {
	var s float64
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		s += d * d
	}
	return math.Sqrt(s)
}

func closeTo(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

// checkNearestVecs is checkNearestWords for (id, dist) rows under L2.
func checkNearestVecs(rows []relation.Tuple, target metric.Vector, k int, r *reply) error {
	all := make([]float64, len(rows))
	for i, t := range rows {
		all[i] = naiveL2(target, t.Vec)
	}
	sorted := append([]float64(nil), all...)
	sort.Float64s(sorted)
	want := sorted[:min(k, len(sorted))]
	if len(r.Rows) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(r.Rows), len(want))
	}
	seen := map[int]bool{}
	for i, row := range r.Rows {
		if len(row) != 2 {
			return fmt.Errorf("row has %d columns, want 2", len(row))
		}
		id, err := strconv.Atoi(row[0])
		if err != nil || id < 0 || id >= len(rows) || rows[id].ID != id || seen[id] {
			return fmt.Errorf("row id %q is repeated or not a tuple of the relation", row[0])
		}
		seen[id] = true
		d, err := strconv.ParseFloat(row[1], 64)
		if err != nil || !closeTo(d, all[id]) {
			return fmt.Errorf("row %d: dist %s, brute force %v", id, row[1], all[id])
		}
		if !closeTo(d, want[i]) {
			return fmt.Errorf("rank %d: dist %v, brute force %v", i, d, want[i])
		}
	}
	return nil
}

// joinTruth is the self-join answer by nested loops: every ordered pair
// of different tuples within radius, mapped to its distance.
func joinTruth(rows []relation.Tuple, radius int) map[[2]int]int {
	out := map[[2]int]int{}
	for _, a := range rows {
		for _, b := range rows {
			if a.ID == b.ID {
				continue
			}
			if d := lev(a.Seq, b.Seq); d <= radius {
				out[[2]int{a.ID, b.ID}] = d
			}
		}
	}
	return out
}

// checkJoin wants exactly the truth pairs, each once, with its distance.
func checkJoin(truth map[[2]int]int, r *reply) error {
	if len(r.Rows) != len(truth) {
		return fmt.Errorf("%d pairs, want %d", len(r.Rows), len(truth))
	}
	seen := map[[2]int]bool{}
	for _, row := range r.Rows {
		if len(row) != 3 {
			return fmt.Errorf("row has %d columns, want 3", len(row))
		}
		a, errA := strconv.Atoi(row[0])
		b, errB := strconv.Atoi(row[1])
		if errA != nil || errB != nil {
			return fmt.Errorf("pair (%s, %s) is not numeric", row[0], row[1])
		}
		d, ok := truth[[2]int{a, b}]
		if !ok || seen[[2]int{a, b}] {
			return fmt.Errorf("pair (%d, %d) is repeated or not within radius", a, b)
		}
		seen[[2]int{a, b}] = true
		if row[2] != strconv.Itoa(d) {
			return fmt.Errorf("pair (%d, %d): dist %s, brute force %d", a, b, row[2], d)
		}
	}
	return nil
}
