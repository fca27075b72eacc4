// Package exp is the experiment harness: every table and figure listed
// in EXPERIMENTS.md is regenerated by one function here, and
// cmd/simbench exposes them on the command line.
//
// The framework experiments (F1–F7) validate the PODS'95 paper's
// claims empirically; the companion experiments (C8–C12, CT1)
// reproduce the published evaluation of the time-series special case
// (Figures 8–12 and Table 1 of the SIGMOD'97 companion paper) on
// synthetic random-walk data.
package exp

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/editdp"
	"repro/internal/index"
	"repro/internal/patdist"
	"repro/internal/pattern"
	"repro/internal/rewrite"
	"repro/internal/seq"
	"repro/internal/transform"
)

// Quick shrinks data sizes so the full suite completes in seconds; the
// shapes remain, the absolute numbers shrink. cmd/simbench sets it via
// -quick.
var Quick = false

// Table is one regenerated experiment result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  string
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	printRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	printRow(t.Header)
	for _, row := range t.Rows {
		printRow(row)
	}
	if t.Notes != "" {
		fmt.Fprintf(w, "  note: %s\n", t.Notes)
	}
	fmt.Fprintln(w)
}

// Runner produces one experiment table.
type Runner func() (*Table, error)

// Registry maps experiment ids to runners, in report order.
func Registry() []struct {
	ID  string
	Run Runner
} {
	return []struct {
		ID  string
		Run Runner
	}{
		{"f1", F1}, {"f2", F2}, {"f3", F3}, {"f4", F4}, {"f5", F5},
		{"f6", F6}, {"f7", F7},
		{"c8", C8}, {"c9", C9}, {"c10", C10}, {"c11", C11}, {"c12", C12},
		{"ct1", CT1},
		{"n1", N1},
	}
}

// timeOp measures the average duration of f, repeating until the total
// exceeds a floor so fast operations are measured meaningfully.
func timeOp(f func()) time.Duration {
	floor := 20 * time.Millisecond
	if Quick {
		floor = 2 * time.Millisecond
	}
	var reps int
	start := time.Now()
	// At least once: a goroutine descheduled past the floor before its
	// first call would otherwise divide by zero reps.
	for reps == 0 || time.Since(start) < floor {
		f()
		reps++
	}
	return time.Since(start) / time.Duration(reps)
}

func us(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d.Nanoseconds())/1e3)
}

func randStrings(seed int64, alphabet string, count, length int) []string {
	a := seq.MustAlphabet(alphabet)
	rng := rand.New(rand.NewSource(seed))
	out := make([]string, count)
	for i := range out {
		out[i] = a.Random(rng, length)
	}
	return out
}

// F1 — general engine vs edit DP on edit-like rules: identical
// distances, diverging runtimes.
func F1() (*Table, error) {
	rs := rewrite.UnitEdits("abcd")
	eng, err := transform.NewEngine(rs)
	if err != nil {
		return nil, err
	}
	calc, err := editdp.New(rs)
	if err != nil {
		return nil, err
	}
	a := seq.MustAlphabet("abcd")
	rng := rand.New(rand.NewSource(41))
	t := &Table{
		ID:     "F1",
		Title:  "general search vs edit DP (identical distances, runtime gap)",
		Header: []string{"n", "pairs", "all_equal", "search_us/pair", "dp_us/pair", "speedup"},
	}
	sizes := []int{2, 4, 6, 8}
	if Quick {
		sizes = []int{2, 4, 6}
	}
	for _, n := range sizes {
		const pairs = 8
		type pair struct{ x, y string }
		ps := make([]pair, pairs)
		for i := range ps {
			x := a.Random(rng, n)
			ps[i] = pair{x, a.RandomEdits(rng, x, 2)}
		}
		equal := true
		budget := float64(n)
		for _, p := range ps {
			d1, ok1, err := eng.Distance(p.x, p.y, budget)
			if err != nil {
				return nil, err
			}
			d2 := calc.Distance(p.x, p.y)
			if ok1 != (d2 <= budget) || (ok1 && math.Abs(d1-d2) > 1e-9) {
				equal = false
			}
		}
		tSearch := timeOp(func() {
			for _, p := range ps {
				if _, _, err := eng.Distance(p.x, p.y, budget); err != nil {
					panic(err)
				}
			}
		}) / pairs
		tDP := timeOp(func() {
			for _, p := range ps {
				calc.Distance(p.x, p.y)
			}
		}) / pairs
		speedup := float64(tSearch) / float64(tDP)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n), fmt.Sprint(pairs), fmt.Sprint(equal),
			us(tSearch), us(tDP), fmt.Sprintf("%.0fx", speedup),
		})
	}
	t.Notes = "expected shape: all_equal=true everywhere; speedup grows rapidly with n"
	return t, nil
}

// F2 — cost-bounded search effort vs budget: the decidable-but-
// exponential regime the paper identifies.
func F2() (*Table, error) {
	rules := append([]rewrite.Rule{
		rewrite.Swap('a', 'b', 1), rewrite.Swap('b', 'a', 1),
	}, rewrite.UnitEdits("ab").Rules()...)
	rs := rewrite.MustRuleSet("swap+edits", rules)
	eng, err := transform.NewEngine(rs, transform.WithoutHeuristic())
	if err != nil {
		return nil, err
	}
	x, y := "abababab", "bbbbaaaa"
	t := &Table{
		ID:     "F2",
		Title:  "search effort vs cost budget c (unreachable goal: full exploration)",
		Header: []string{"budget", "expanded", "generated", "time_us"},
	}
	budgets := []float64{1, 2, 3, 4}
	if Quick {
		budgets = []float64{1, 2, 3}
	}
	for _, c := range budgets {
		_, _, st, err := eng.DistanceStats(x, y, c)
		if err != nil {
			return nil, err
		}
		d := timeOp(func() {
			if _, _, _, err := eng.DistanceStats(x, y, c); err != nil {
				panic(err)
			}
		})
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(c), fmt.Sprint(st.Expanded), fmt.Sprint(st.Generated), us(d),
		})
	}
	t.Notes = "expected shape: expanded grows super-linearly (≈ exponentially) in the budget"
	return t, nil
}

// F3 — full vs banded DP: the thresholded query regime.
func F3() (*Table, error) {
	calc, err := editdp.New(rewrite.UnitEdits("abcd"))
	if err != nil {
		return nil, err
	}
	a := seq.MustAlphabet("abcd")
	rng := rand.New(rand.NewSource(43))
	t := &Table{
		ID:     "F3",
		Title:  "full O(nm) DP vs banded threshold DP",
		Header: []string{"n", "k", "full_us", "banded_us", "speedup"},
	}
	sizes := []int{64, 256, 1024, 4096}
	if Quick {
		sizes = []int{64, 256}
	}
	for _, n := range sizes {
		x := a.Random(rng, n)
		y := a.RandomEdits(rng, x, 4)
		for _, k := range []float64{2, 8} {
			tFull := timeOp(func() { calc.Distance(x, y) })
			tBand := timeOp(func() { calc.Within(x, y, k) })
			t.Rows = append(t.Rows, []string{
				fmt.Sprint(n), fmt.Sprint(k), us(tFull), us(tBand),
				fmt.Sprintf("%.1fx", float64(tFull)/float64(tBand)),
			})
		}
	}
	t.Notes = "expected shape: banded time linear in n for fixed k; full quadratic"
	return t, nil
}

// F4 — similarity to a regular pattern: product search vs
// enumerate-and-DP.
func F4() (*Table, error) {
	calc, err := editdp.New(rewrite.UnitEdits("abcd"))
	if err != nil {
		return nil, err
	}
	a := seq.MustAlphabet("abcd")
	rng := rand.New(rand.NewSource(44))
	t := &Table{
		ID:     "F4",
		Title:  "distance to regular language: NFA product search vs enumerate+DP",
		Header: []string{"pattern", "members<=12", "equal", "product_us", "enum_us", "speedup"},
	}
	pats := []string{"a(b|c)*d", "(ab|cd)+", "[ab][ab][cd]*", "(a|b)(a|b)(a|b)(a|b)"}
	if Quick {
		pats = pats[:2]
	}
	for _, ps := range pats {
		p := pattern.MustCompile(ps)
		x := a.Random(rng, 8)
		members := len(p.Enumerate(12, 1<<20))
		d1 := patdist.Distance(calc, x, p)
		d2, _ := patdist.EnumerateAndDP(calc, x, p, 12, 1<<20, math.Inf(1))
		tProd := timeOp(func() { patdist.Distance(calc, x, p) })
		tEnum := timeOp(func() { patdist.EnumerateAndDP(calc, x, p, 12, 1<<20, math.Inf(1)) })
		t.Rows = append(t.Rows, []string{
			ps, fmt.Sprint(members), fmt.Sprint(math.Abs(d1-d2) < 1e-9),
			us(tProd), us(tEnum), fmt.Sprintf("%.0fx", float64(tEnum)/float64(tProd)),
		})
	}
	t.Notes = "expected shape: equal=true; enumeration cost explodes with language size"
	return t, nil
}

// F5 — range-query strategies over a dictionary.
func F5() (*Table, error) {
	size := 30000
	if Quick {
		size = 4000
	}
	words := dictionary(45, size)
	entries := make([]index.Entry, len(words))
	bk := index.NewBKTree()
	tr := index.NewTrie()
	qg := index.NewQGramIndex(2)
	li := index.NewLengthIndex()
	for i, w := range words {
		entries[i] = index.Entry{ID: i, S: w}
		bk.Insert(i, w)
		tr.Insert(i, w)
		qg.Insert(i, w)
		li.Insert(i, w)
	}
	rng := rand.New(rand.NewSource(46))
	queries := make([]string, 20)
	a := seq.MustAlphabet(dictAlphabet)
	for i := range queries {
		queries[i] = a.RandomEdits(rng, words[rng.Intn(len(words))], 1)
	}
	t := &Table{
		ID:     "F5",
		Title:  fmt.Sprintf("range query strategies, dictionary of %d words", size),
		Header: []string{"radius", "strategy", "us/query", "verifications/query", "answers"},
	}
	for _, k := range []int{1, 2} {
		type strat struct {
			name string
			run  func(q string) ([]index.Match, index.Stats)
		}
		strats := []strat{
			{"scan", func(q string) ([]index.Match, index.Stats) {
				return index.Scan(entries, q, float64(k), index.UnitVerifier)
			}},
			{"length", func(q string) ([]index.Match, index.Stats) {
				return li.Range(q, float64(k), index.UnitVerifier)
			}},
			{"qgram", func(q string) ([]index.Match, index.Stats) {
				return qg.Range(q, float64(k), index.UnitVerifier)
			}},
			{"bktree", func(q string) ([]index.Match, index.Stats) { return bk.RangeStats(q, k) }},
			{"trie", func(q string) ([]index.Match, index.Stats) { return tr.RangeStats(q, k) }},
		}
		var wantTotal int
		for si, s := range strats {
			var verifs, answers int
			for _, q := range queries {
				ms, st := s.run(q)
				verifs += st.Verifications
				answers += len(ms)
			}
			if si == 0 {
				wantTotal = answers
			} else if answers != wantTotal {
				return nil, fmt.Errorf("exp: F5 strategy %s returned %d answers, scan %d", s.name, answers, wantTotal)
			}
			d := timeOp(func() {
				for _, q := range queries {
					s.run(q)
				}
			}) / time.Duration(len(queries))
			t.Rows = append(t.Rows, []string{
				fmt.Sprint(k), s.name, us(d),
				fmt.Sprintf("%.0f", float64(verifs)/float64(len(queries))),
				fmt.Sprintf("%.1f", float64(answers)/float64(len(queries))),
			})
		}
	}
	t.Notes = "expected shape: every strategy returns the scan's answers; indexes/filters verify far fewer candidates"
	return t, nil
}

// F6 — similarity-join strategies.
func F6() (*Table, error) {
	size := 3000
	if Quick {
		size = 600
	}
	words := dictionary(47, size)
	t := &Table{
		ID:     "F6",
		Title:  fmt.Sprintf("self-join strategies, %d words, radius 1", size),
		Header: []string{"strategy", "ms_total", "pairs"},
	}
	radius := 1
	// Nested loop.
	var nlPairs int
	nested := func() int {
		n := 0
		for i := 0; i < len(words); i++ {
			for j := i + 1; j < len(words); j++ {
				if _, ok := editdp.LevenshteinWithin(words[i], words[j], radius); ok {
					n++
				}
			}
		}
		return n
	}
	startNL := time.Now()
	nlPairs = nested()
	nlDur := time.Since(startNL)

	// Length-bucketed join.
	bucketJoin := func() int {
		byLen := map[int][]int{}
		for i, w := range words {
			byLen[len(w)] = append(byLen[len(w)], i)
		}
		n := 0
		// Each unordered pair is counted once: same-length pairs from the
		// smaller index, cross-length pairs from the shorter word.
		for i, w := range words {
			for l := len(w); l <= len(w)+radius; l++ {
				for _, j := range byLen[l] {
					if l == len(w) && j <= i {
						continue
					}
					if _, ok := editdp.LevenshteinWithin(w, words[j], radius); ok {
						n++
					}
				}
			}
		}
		return n
	}
	startLB := time.Now()
	lbPairs := bucketJoin()
	lbDur := time.Since(startLB)

	// BK-tree probe join.
	bk := index.NewBKTree()
	for i, w := range words {
		bk.Insert(i, w)
	}
	bkJoin := func() int {
		n := 0
		for i, w := range words {
			for _, m := range bk.Range(w, radius) {
				if m.ID > i {
					n++
				}
			}
		}
		return n
	}
	startBK := time.Now()
	bkPairs := bkJoin()
	bkDur := time.Since(startBK)

	if bkPairs != nlPairs {
		return nil, fmt.Errorf("exp: F6 bk join found %d pairs, nested %d", bkPairs, nlPairs)
	}
	if lbPairs != nlPairs {
		return nil, fmt.Errorf("exp: F6 length join found %d pairs, nested %d", lbPairs, nlPairs)
	}
	ms := func(d time.Duration) string { return fmt.Sprintf("%.1f", float64(d.Microseconds())/1e3) }
	t.Rows = append(t.Rows,
		[]string{"nested-loop", ms(nlDur), fmt.Sprint(nlPairs)},
		[]string{"length-bucket", ms(lbDur), fmt.Sprint(lbPairs)},
		[]string{"bktree-probe", ms(bkDur), fmt.Sprint(bkPairs)},
	)
	t.Notes = "expected shape: identical pair counts; bktree/length joins beat nested loop"
	return t, nil
}

// F7 — the decidability boundary: zero-cost closures and the
// undecidability guard.
func F7() (*Table, error) {
	t := &Table{
		ID:     "F7",
		Title:  "zero-cost regime: closure sizes and the undecidability guard",
		Header: []string{"rule set", "input", "closure", "verdict"},
	}
	fold := rewrite.MustRuleSet("case-fold", []rewrite.Rule{
		{LHS: "a", RHS: "A", Cost: 0}, {LHS: "A", RHS: "a", Cost: 0},
	})
	for _, in := range []string{"a", "aa", "aaaa", "aaaaaaaa"} {
		cl, err := transform.ZeroClosure(fold, in, 0)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{"case-fold (free, non-increasing)", in,
			fmt.Sprint(len(cl)), "finite closure: decidable"})
	}
	rot := rewrite.MustRuleSet("rotate", []rewrite.Rule{
		{LHS: "ab", RHS: "ba", Cost: 0}, {LHS: "ba", RHS: "ab", Cost: 0},
	})
	cl, err := transform.ZeroClosure(rot, "aabb", 0)
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{"free transposition", "aabb", fmt.Sprint(len(cl)),
		"finite closure: decidable"})
	grow := rewrite.MustRuleSet("grow", []rewrite.Rule{{LHS: "a", RHS: "aa", Cost: 0}})
	if _, err := transform.NewEngine(grow); err != nil {
		t.Rows = append(t.Rows, []string{"a->aa at cost 0", "a", "-",
			"rejected: " + firstLine(err.Error())})
	} else {
		return nil, fmt.Errorf("exp: F7 guard failed to reject zero-cost growth")
	}
	t.Notes = "expected shape: closure 2^|a-positions| for case-fold; growth rule refused up front"
	return t, nil
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

const dictAlphabet = "abcdefghij"

// dictionary builds a deterministic word list with planted
// near-duplicates (a quarter of the words are small edits of earlier
// words), lengths 4-14.
func dictionary(seed int64, n int) []string {
	a := seq.MustAlphabet(dictAlphabet)
	rng := rand.New(rand.NewSource(seed))
	out := make([]string, 0, n)
	seen := map[string]bool{}
	for len(out) < n {
		var w string
		if len(out) > 0 && rng.Intn(4) == 0 {
			w = a.RandomEdits(rng, out[rng.Intn(len(out))], 1+rng.Intn(2))
		} else {
			w = a.Random(rng, 4+rng.Intn(11))
		}
		if seen[w] || len(w) == 0 {
			continue
		}
		seen[w] = true
		out = append(out, w)
	}
	sort.Strings(out)
	return out
}
