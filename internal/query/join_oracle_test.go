package query

// The distance-join oracle: every probe of the join operator — the
// length-view and vector-view index probes, the scan with and without the
// length band, under every verifier it runs — serial and split into
// parallel slices, must produce the same result as a brute-force double
// loop over the same data.
//
// Join result order is plan-dependent (which relation wins the start
// slot is a cost decision), so results are compared as canonically-
// encoded row sets against the brute-force model. The pledge between
// engine configurations is stronger: block size 1 runs the same plan as
// block size 256, and a parallel engine the serial plan split into
// id-range slices under the gather, so all engines are compared
// positionally, byte for byte — including assigned dist strings, which
// the metric layer's determinism contract makes bitwise-stable across
// kernels.

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/editdp"
	"repro/internal/metric"
	"repro/internal/relation"
	"repro/internal/rewrite"
	"repro/internal/transform"
)

// joinBlocks are the block sizes every join statement runs at: the
// degenerate row-at-a-time case and the default.
var joinBlocks = []int{1, 256}

// joinOraclePair is one serial engine per block size (indexed like
// joinBlocks), the same again over `slices` parallel slices when
// slices > 1, and an engine at the default block size that runs every
// join chain as four parallel streams, all over identical rows (ids
// 0..n-1 assigned in order).
type joinOraclePair struct {
	plain    []*Engine
	sliced   []*Engine
	parallel *Engine
}

// engines lists every engine of the pair.
func (p *joinOraclePair) engines() []*Engine {
	return append(append(append([]*Engine(nil), p.plain...), p.sliced...), p.parallel)
}

// halvesRules is a symmetric weighted rule set (every op costs 0.5, no
// unit-cost shortcut): the scan without the length band, verifying with
// the DP calculator.
func halvesRules() *rewrite.RuleSet {
	return rewrite.MustRuleSet("halves", []rewrite.Rule{
		rewrite.Subst('a', 'b', 0.5), rewrite.Subst('b', 'a', 0.5),
		rewrite.Insert('c', 0.5), rewrite.Delete('c', 0.5),
	})
}

// swapsRules moves a letter of the alphabet right past any later one at
// unit cost. It is not edit-like, so the scan verifies with the general
// engine, and not symmetric, so the verifier's operand order shows.
func swapsRules() *rewrite.RuleSet {
	var rules []rewrite.Rule
	for _, c := range []byte(oracleAlphabet) {
		for _, d := range []byte(oracleAlphabet) {
			if c < d {
				rules = append(rules, rewrite.Swap(c, d, 1))
			}
		}
	}
	return rewrite.MustRuleSet("swaps", rules)
}

// newJoinOracleEngine builds one engine over rows in relation words,
// with the oracle's rule sets registered.
func newJoinOracleEngine(t testing.TB, rows []relation.InsertRow, opts ...Option) *Engine {
	t.Helper()
	tab := relation.New("words")
	tab.InsertBatch(rows)
	cat := relation.NewCatalog()
	cat.Add(tab)
	e := NewEngine(cat, opts...)
	if err := e.RegisterRuleSet(editsRules()); err != nil {
		t.Fatal(err)
	}
	for _, rs := range []*rewrite.RuleSet{halvesRules(), swapsRules()} {
		if err := e.RegisterRuleSet(rs); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// editsRules is the unit edit rule set over the oracle alphabet.
func editsRules() *rewrite.RuleSet {
	return rewrite.MustRuleSet("edits", rewrite.UnitEdits(oracleAlphabet).Rules())
}

func newJoinOraclePair(t testing.TB, slices int, rows []relation.InsertRow) *joinOraclePair {
	t.Helper()
	mk := func(opts ...Option) *Engine { return newJoinOracleEngine(t, rows, opts...) }
	p := &joinOraclePair{}
	for _, block := range joinBlocks {
		p.plain = append(p.plain, mk(WithBatchSize(block), WithParallelism(1)))
		if slices > 1 {
			p.sliced = append(p.sliced, mk(WithBatchSize(block), WithParallelism(slices), WithParallelMinRows(1)))
		}
	}
	p.parallel = mk(WithParallelism(4), WithParallelMinRows(1))
	return p
}

// joinOracleRows builds n rows with short random seqs (dense edit-
// distance collisions), their reversals in attribute rev, random 3-d
// vectors and a rotating tag; every seventh row has no vector, pinning
// the nil-vec no-match rule.
func joinOracleRows(rng *rand.Rand, n int) []relation.InsertRow {
	rows := make([]relation.InsertRow, n)
	for i := range rows {
		s := randOracleSeq(rng)
		rows[i] = relation.InsertRow{
			Seq:   s,
			Attrs: map[string]string{"tag": fmt.Sprint(i % 3), "rev": reverse(s)},
		}
		if i%7 != 0 {
			v := make(metric.Vector, 3)
			for j := range v {
				v[j] = float32(rng.Float64()*2 - 1)
			}
			rows[i].Vec = v
		}
	}
	return rows
}

// checkJoin runs stmt on every engine and asserts (a) each runs the
// probe op names, (b) they agree byte-for-byte, positionally, and (c)
// the result matches the brute-force row set canonically.
func (p *joinOraclePair) checkJoin(t *testing.T, stmt, op string, want []string) {
	t.Helper()
	var first *Result
	for i, e := range p.engines() {
		res, err := e.Execute(stmt)
		if err != nil {
			t.Fatalf("engine %d %q: %v", i, stmt, err)
		}
		if !strings.Contains(res.Plan(), op) {
			t.Fatalf("engine %d %q does not run %s:\n%s", i, stmt, op, res.Plan())
		}
		if e == p.parallel && !strings.Contains(res.Plan(), "GatherMerge(shards=4, workers=4, merge=id)") {
			t.Fatalf("parallel engine %q: the chain does not run under the gather:\n%s", stmt, res.Plan())
		}
		if first == nil {
			first = res
		} else if positional(first) != positional(res) {
			t.Fatalf("join diverges byte-wise for %q:\nserial block 1:\n%s\nengine %d (block %d):\n%s\nplan:\n%s",
				stmt, positional(first), i, e.BatchSize(), positional(res), res.Plan())
		}
	}
	wantRes := &Result{}
	for _, w := range want {
		wantRes.Rows = append(wantRes.Rows, strings.Split(w, "\x1f"))
	}
	if canonical(first) != canonical(wantRes) {
		t.Fatalf("join diverges from oracle for %q:\ngot:\n%s\nwant:\n%s",
			stmt, canonical(first), canonical(wantRes))
	}
}

func reverse(s string) string {
	b := []byte(s)
	for i, j := 0, len(b)-1; i < j; i, j = i+1, j-1 {
		b[i], b[j] = b[j], b[i]
	}
	return string(b)
}

// TestJoinOracleEdits covers the string join probes: unit radius over
// seq (the length-view probe), a residual-filtered radius-2 join, a unit
// edge onto another attribute (the length-banded scan), a weighted edge
// and one under a rule set that is not edit-like (the scan without the
// band, verifying with the DP calculator and the general engine), and a
// three-way chain.
func TestJoinOracleEdits(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	rows := joinOracleRows(rng, 80)
	calc, err := editdp.New(halvesRules())
	if err != nil {
		t.Fatal(err)
	}
	swaps, err := transform.NewEngine(swapsRules())
	if err != nil {
		t.Fatal(err)
	}
	// shards=N: the GatherMerge stream count of the sliced engines.
	for _, shards := range []int{1, 4} {
		p := newJoinOraclePair(t, shards, rows)
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			var want []string
			for ai, a := range rows {
				for bi, b := range rows {
					if d, ok := editdp.LevenshteinWithin(a.Seq, b.Seq, 1); ok {
						want = append(want, fmt.Sprintf("%d\x1f%d\x1f%s", ai, bi, formatDist(float64(d))))
					}
				}
			}
			p.checkJoin(t,
				`SELECT a.id, b.id, dist FROM words a, words b ON dist(a.seq, b.seq) <= 1 USING edits`,
				"IndexJoin(probe a.seq into lengthview(b), on", want)

			want = want[:0]
			for ai, a := range rows {
				if a.Attrs["tag"] != "0" {
					continue
				}
				for bi, b := range rows {
					if ai == bi {
						continue
					}
					if _, ok := editdp.LevenshteinWithin(a.Seq, b.Seq, 2); ok {
						want = append(want, fmt.Sprintf("%d\x1f%d", ai, bi))
					}
				}
			}
			p.checkJoin(t,
				`SELECT a.id, b.id FROM words a, words b ON dist(a.seq, b.seq) <= 2 USING edits WHERE a.tag = "0" AND a.id != b.id`,
				"IndexJoin(probe a.seq into lengthview(b), on", want)

			want = want[:0]
			for ai, a := range rows {
				for bi, b := range rows {
					if d, ok := editdp.LevenshteinWithin(a.Seq, b.Attrs["rev"], 1); ok {
						want = append(want, fmt.Sprintf("%d\x1f%d\x1f%s", ai, bi, formatDist(float64(d))))
					}
				}
			}
			p.checkJoin(t,
				`SELECT a.id, b.id, dist FROM words a, words b ON dist(a.seq, b.rev) <= 1 USING edits`,
				"NestedLoopJoin(b[length-banded], on", want)

			want = want[:0]
			for ai, a := range rows {
				for bi, b := range rows {
					if ai == bi {
						continue
					}
					if _, ok := calc.Within(a.Seq, b.Seq, 1); ok {
						want = append(want, fmt.Sprintf("%d\x1f%d", ai, bi))
					}
				}
			}
			p.checkJoin(t,
				`SELECT a.id, b.id FROM words a, words b ON dist(a.seq, b.seq) <= 1 USING halves WHERE a.id != b.id`,
				"NestedLoopJoin(b, on", want)

			// The probe a.seq is the target operand here: the general engine
			// measures b.rev -> a.seq, as evalSim would. Two-letter rows are
			// one swap from their own reversal.
			want = want[:0]
			for ai, a := range rows {
				for bi, b := range rows {
					d, ok, err := swaps.Distance(b.Attrs["rev"], a.Seq, 1)
					if err != nil {
						t.Fatal(err)
					}
					if ok {
						want = append(want, fmt.Sprintf("%d\x1f%d\x1f%s", ai, bi, formatDist(d)))
					}
				}
			}
			if len(want) < 10 {
				t.Fatalf("the swaps brute force has %d rows, the test data is too thin", len(want))
			}
			p.checkJoin(t,
				`SELECT a.id, b.id, dist FROM words a, words b ON dist(b.rev, a.seq) <= 1 USING swaps`,
				"NestedLoopJoin(b, on", want)

			want = want[:0]
			for ai, a := range rows {
				for bi, b := range rows {
					if _, ok := editdp.LevenshteinWithin(a.Seq, b.Seq, 1); !ok {
						continue
					}
					for ci, c := range rows {
						if _, ok := editdp.LevenshteinWithin(b.Seq, c.Seq, 1); ok {
							want = append(want, fmt.Sprintf("%d\x1f%d\x1f%d", ai, bi, ci))
						}
					}
				}
			}
			p.checkJoin(t,
				`SELECT a.id, b.id, c.id FROM words a, words b, words c ON dist(a.seq, b.seq) <= 1 USING edits AND dist(b.seq, c.seq) <= 1 USING edits`,
				"IndexJoin(probe b.seq into lengthview(c), on", want)
		})
	}
}

// TestJoinOracleLimit: a LIMIT without ORDER BY keeps the join chain
// serial on every engine, parallel ones included, so the chain stops at
// the limit instead of draining every slice into the gather, and the
// engines must still agree positionally on the prefix.
func TestJoinOracleLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	p := newJoinOraclePair(t, 4, joinOracleRows(rng, 80))
	for _, lim := range []int{1, 3, 7, 40} {
		for _, stmt := range []string{
			`SELECT a.id, b.id, dist FROM words a, words b ON dist(a.seq, b.seq) <= 1 USING edits LIMIT %d`,
			`SELECT a.id, b.id FROM words a, words b ON dist(a.vec, b.vec) <= 0.8 USING l2 WHERE a.id != b.id LIMIT %d`,
		} {
			stmt = fmt.Sprintf(stmt, lim)
			var first *Result
			for i, e := range p.engines() {
				res, err := e.Execute(stmt)
				if err != nil {
					t.Fatalf("engine %d %q: %v", i, stmt, err)
				}
				if len(res.Rows) != lim {
					t.Fatalf("engine %d %q: %d rows", i, stmt, len(res.Rows))
				}
				if strings.Contains(res.Plan(), "GatherMerge") {
					t.Fatalf("engine %d %q: a LIMIT without ORDER BY runs under a gather:\n%s", i, stmt, res.Plan())
				}
				if first == nil {
					first = res
				} else if positional(first) != positional(res) {
					t.Fatalf("engine %d %q diverges:\n%s\nvs\n%s\nplan:\n%s", i, stmt, positional(res), positional(first), res.Plan())
				}
			}
		}
	}
}

// TestJoinOracleVec covers the vector-metric join probe, the vector
// view, under l2 and under cosine (pruned by the chord). Rows without a
// vector must never match.
func TestJoinOracleVec(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	rows := joinOracleRows(rng, 100)
	cases := []struct {
		name   string
		radius float64
		op     string
	}{
		{"l2", 0.8, "IndexJoin(probe a.vec into vecview(b), on"},
		{"cosine", 0.25, "IndexJoin(probe a.vec into vecview(b), on"},
	}
	// shards=N: the GatherMerge stream count of the sliced engines.
	for _, shards := range []int{1, 4} {
		p := newJoinOraclePair(t, shards, rows)
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			for _, c := range cases {
				m, ok := metric.Lookup(c.name)
				if !ok {
					t.Fatalf("metric %q not registered", c.name)
				}
				var want []string
				for ai, a := range rows {
					if a.Vec == nil {
						continue
					}
					for bi, b := range rows {
						if ai == bi || b.Vec == nil {
							continue
						}
						if d, within := metric.Within(m, a.Vec, b.Vec, c.radius); within {
							want = append(want, fmt.Sprintf("%d\x1f%d\x1f%s", ai, bi, formatDist(d)))
						}
					}
				}
				stmt := fmt.Sprintf(
					`SELECT a.id, b.id, dist FROM words a, words b ON dist(a.vec, b.vec) <= %g USING %s WHERE a.id != b.id`,
					c.radius, c.name)
				p.checkJoin(t, stmt, c.op, want)
			}
		})
	}
}

// TestJoinOracleInterleavedDML hammers join reads on both engines while
// a single writer per engine applies the same deterministic DML stream,
// then re-checks full join parity against the brute-force model over
// the converged table. Under -race this proves the parallel chains'
// inner snapshot capture is data-race free against live mutation.
func TestJoinOracleInterleavedDML(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	rows := joinOracleRows(rng, 60)
	p := newJoinOraclePair(t, 4, rows)

	var stmts []string
	for i := 0; i < 80; i++ {
		if rng.Intn(3) == 0 {
			stmts = append(stmts, fmt.Sprintf(
				`DELETE FROM words WHERE seq SIMILAR TO %q WITHIN 1 USING edits`, randOracleSeq(rng)))
		} else {
			stmts = append(stmts, fmt.Sprintf(
				`INSERT INTO words (seq, tag) VALUES (%q, %q)`, randOracleSeq(rng), fmt.Sprint(i%3)))
		}
	}

	joins := []string{
		`SELECT a.id, b.id, dist FROM words a, words b ON dist(a.seq, b.seq) <= 1 USING edits`,
		`SELECT a.id, b.id FROM words a, words b ON dist(a.vec, b.vec) <= 0.8 USING l2 WHERE a.id != b.id`,
	}
	var wg sync.WaitGroup
	errs := make(chan error, 3*len(p.engines())) // one slot per goroutine: per engine 1 writer + 2 readers
	for _, eng := range p.engines() {
		eng := eng
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, s := range stmts {
				if _, err := eng.Execute(s); err != nil {
					errs <- fmt.Errorf("%q: %w", s, err)
					return
				}
			}
		}()
		for r := 0; r < 2; r++ {
			r := r
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 25; i++ {
					if _, err := eng.Execute(joins[(r+i)%len(joins)]); err != nil {
						errs <- err
						return
					}
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}

	// Converged: table contents must agree, and a final join must match
	// the brute force over the surviving rows.
	plainTab, _ := p.plain[0].Catalog().Lookup("words")
	dump := func(tab *relation.Relation) string {
		var b strings.Builder
		for _, tup := range tab.Tuples() {
			fmt.Fprintf(&b, "%d\x1f%s\n", tup.ID, tup.Seq)
		}
		return b.String()
	}
	for i, e := range p.engines() {
		tab, _ := e.Catalog().Lookup("words")
		if dump(plainTab) != dump(tab) {
			t.Fatalf("tables diverge after interleaved DML:\nserial block 1:\n%s\nengine %d:\n%s",
				dump(plainTab), i, dump(tab))
		}
	}
	final := plainTab.Tuples()
	var want []string
	for _, a := range final {
		for _, b := range final {
			if d, ok := editdp.LevenshteinWithin(a.Seq, b.Seq, 1); ok {
				want = append(want, fmt.Sprintf("%d\x1f%d\x1f%s", a.ID, b.ID, formatDist(float64(d))))
			}
		}
	}
	p.checkJoin(t, joins[0], "IndexJoin(probe a.seq into lengthview(b), on", want)
}

// symOracleRows is joinOracleRows with exact duplicates (pairs at
// radius 0) and rows holding a byte outside the rule alphabet, which
// the walk verifies with the rule set's own DP (TargetDP): such a byte
// costs +Inf to edit, so those rows match only rows that keep it in
// place.
func symOracleRows(rng *rand.Rand, n int) []relation.InsertRow {
	rows := joinOracleRows(rng, n)
	for i := range rows {
		switch s := []byte(rows[i].Seq); {
		case i%9 == 4:
			at := rng.Intn(len(s) + 1)
			rows[i].Seq = string(s[:at]) + string("X-"[rng.Intn(2)]) + string(s[at:])
		case i%9 == 7: // one substitution away from the outside-alphabet row i-3
			p := []byte(rows[i-3].Seq)
			at := 0
			if p[0] == 'X' || p[0] == '-' {
				at = len(p) - 1
			}
			p[at] = oracleAlphabet[rng.Intn(len(oracleAlphabet))]
			rows[i].Seq = string(p)
		case i%13 == 6:
			rows[i].Seq = rows[i-1].Seq
		}
	}
	return rows
}

// symPairs is the brute-force self-join over tuples in id order: every
// pair a != b within radius under the edits rule set and keep, ordered
// by (a.id, b.id), or stably by distance when byDist.
func symPairs(t *testing.T, tuples []relation.Tuple, radius float64, keep func(a relation.Tuple) bool, byDist bool) []string {
	t.Helper()
	calc, err := editdp.New(editsRules())
	if err != nil {
		t.Fatal(err)
	}
	type pair struct {
		a, b int
		d    float64
	}
	var ps []pair
	for _, a := range tuples {
		if keep != nil && !keep(a) {
			continue
		}
		for _, b := range tuples {
			if a.ID == b.ID {
				continue
			}
			if d, ok := calc.Within(a.Seq, b.Seq, radius); ok {
				ps = append(ps, pair{a.ID, b.ID, d})
			}
		}
	}
	if byDist {
		slices.SortStableFunc(ps, func(x, y pair) int { return cmp.Compare(x.d, y.d) })
	}
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = fmt.Sprintf("%d\x1f%d\x1f%s", p.a, p.b, formatDist(p.d))
	}
	return out
}

// symEngine is one engine of the symmetric oracle: serial or split
// into slices parallel id ranges, at one block size.
type symEngine struct {
	e             *Engine
	slices, block int
}

func symEngines(t *testing.T, rows []relation.InsertRow) []symEngine {
	var out []symEngine
	for _, slices := range []int{1, 2, 4, 7} {
		for _, block := range joinBlocks {
			opts := []Option{WithBatchSize(block), WithParallelism(slices)}
			if slices > 1 {
				opts = append(opts, WithParallelMinRows(1))
			}
			out = append(out, symEngine{newJoinOracleEngine(t, rows, opts...), slices, block})
		}
	}
	return out
}

// checkSymmetric runs stmt on every engine and asserts that each runs
// the symmetric walk and returns want positionally. A full join (no
// LIMIT) must also run sliced under the gather and count the same work
// on every engine; a LIMIT stays serial, and its scan reads ahead by a
// block, so its work depends on the block size.
func checkSymmetric(t *testing.T, engines []symEngine, stmt string, full bool, want []string) *Result {
	t.Helper()
	var first *Result
	for _, se := range engines {
		res, err := se.e.Execute(stmt)
		if err != nil {
			t.Fatalf("%d slices, block %d, %q: %v", se.slices, se.block, stmt, err)
		}
		if !strings.Contains(res.Plan(), "IndexJoin(probe a.seq into lengthview(b), on") || !strings.Contains(res.Plan(), ", symmetric)") {
			t.Fatalf("%d slices, block %d, %q: no symmetric walk:\n%s", se.slices, se.block, stmt, res.Plan())
		}
		if sliced := strings.Contains(res.Plan(), fmt.Sprintf("GatherMerge(shards=%d,", se.slices)); full && se.slices > 1 && !sliced {
			t.Fatalf("%d slices, %q: the chain does not run under the gather:\n%s", se.slices, stmt, res.Plan())
		}
		if got := positional(res); got != strings.Join(want, "\n") {
			t.Fatalf("%d slices, block %d, %q diverges from the brute force:\ngot:\n%s\nwant:\n%s\nplan:\n%s",
				se.slices, se.block, stmt, got, strings.Join(want, "\n"), res.Plan())
		}
		if first == nil {
			first = res
		} else if full && res.Stats.Candidates != first.Stats.Candidates || res.Stats.Verifications != first.Stats.Verifications {
			t.Fatalf("%d slices, block %d, %q: work %+v, serial block 1 did %+v", se.slices, se.block, stmt, res.Stats, first.Stats)
		}
	}
	return first
}

// TestJoinOracleSymmetric: a self-join that drops the self pairs walks
// each unordered pair once and emits the mirrors in outer order. Every
// engine — serial and 2, 4 and 7 slices, at block sizes 1 and 256 —
// must equal the brute-force model positionally, rows outside the rule
// alphabet included, and do the same work.
func TestJoinOracleSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	rows := symOracleRows(rng, 90)
	engines := symEngines(t, rows)
	tuples := make([]relation.Tuple, len(rows))
	for i, r := range rows {
		tuples[i] = relation.Tuple{ID: i, Seq: r.Seq, Attrs: r.Attrs}
	}
	tagged := func(a relation.Tuple) bool { return a.Attrs["tag"] == "1" }
	const sel = `SELECT a.id, b.id, dist FROM words a, words b ON `
	cases := []struct {
		stmt   string
		radius float64
		keep   func(relation.Tuple) bool
		byDist bool
	}{
		{sel + `dist(a.seq, b.seq) <= 1 USING edits WHERE a.id != b.id`, 1, nil, false},
		{sel + `dist(a.seq, b.seq) <= 1 USING edits WHERE b.id != a.id`, 1, nil, false},
		{sel + `dist(b.seq, a.seq) <= 2 USING edits WHERE a.id != b.id`, 2, nil, false},
		{sel + `dist(a.seq, b.seq) <= 0 USING edits WHERE a.id != b.id`, 0, nil, false},
		{sel + `dist(a.seq, b.seq) <= 2 USING edits WHERE a.tag = "1" AND a.id != b.id`, 2, tagged, false},
		{sel + `dist(a.seq, b.seq) <= 2 USING edits WHERE a.id != b.id ORDER BY dist`, 2, nil, true},
	}
	for _, c := range cases {
		want := symPairs(t, tuples, c.radius, c.keep, c.byDist)
		if len(want) < 10 {
			t.Fatalf("%q: the brute force has %d rows, the test data is too thin", c.stmt, len(want))
		}
		checkSymmetric(t, engines, c.stmt, true, want)
	}
	var outside []relation.Tuple
	for _, tu := range tuples {
		if strings.ContainsAny(tu.Seq, "X-") {
			outside = append(outside, tu)
		}
	}
	if n := len(symPairs(t, outside, 1, nil, false)); n < 4 {
		t.Fatalf("only %d matches pair rows outside the alphabet: the TargetDP path goes untested", n)
	}

	// A LIMIT without ORDER BY stays serial and stops early: a prefix of
	// the full join, for fewer candidates.
	stmt := sel + `dist(a.seq, b.seq) <= 1 USING edits WHERE a.id != b.id`
	full := checkSymmetric(t, engines, stmt, true, symPairs(t, tuples, 1, nil, false))
	for _, lim := range []int{1, 7, 40} {
		res := checkSymmetric(t, engines, fmt.Sprintf("%s LIMIT %d", stmt, lim), false, symPairs(t, tuples, 1, nil, false)[:lim])
		if res.Stats.Candidates >= full.Stats.Candidates {
			t.Fatalf("LIMIT %d read %d candidates, the full join %d: the join does not stop early", lim, res.Stats.Candidates, full.Stats.Candidates)
		}
	}
}

// TestJoinSymmetricSlicesEven: a parallel symmetric self-join cuts its
// outer slices at equal pair counts, since outer row x walks only the
// rows above it. Over 8 000 words the slices' candidate counts — the
// rows of the bands each slice walks — stay within 1.3x of each other
// at 2 and 4 slices, and the rows match the serial plan's.
func TestJoinSymmetricSlicesEven(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	rows := make([]relation.InsertRow, 8000)
	for i := range rows {
		rows[i].Seq = randWord(rng, "abcdefghijklmnopqrstuvwxyz", 4+rng.Intn(9))
	}
	const stmt = `SELECT a.id, b.id, dist FROM words a, words b ON dist(a.seq, b.seq) <= 1 USING edits WHERE a.id != b.id`
	q, err := Parse(stmt)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := newJoinOracleEngine(t, rows, WithParallelism(1)).Execute(stmt)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{2, 4} {
		e := newJoinOracleEngine(t, rows, WithParallelism(n))
		plan, err := e.planQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		c := &collector{}
		res, err := c.result(plan.run(context.Background(), c.add))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(res.Plan(), ", symmetric)") || positional(res) != positional(serial) {
			t.Fatalf("%d slices: rows diverge from the serial plan or the join is not symmetric:\n%s", n, res.Plan())
		}
		// Each slice's candidates: the counters of its pipeline under the
		// gather.
		var cands []int
		var walk func(op BatchOperator) int
		walk = func(op BatchOperator) int {
			if g, ok := op.(*batchGatherMergeOp); ok {
				for _, k := range g.executedInstances() {
					cands = append(cands, walk(k))
				}
				return 0
			}
			n := 0
			if s, ok := op.(opStatser); ok {
				n = s.opStats().Candidates
			}
			for _, k := range op.childNodes() {
				n += walk(k)
			}
			return n
		}
		walk(plan.root)
		lo, hi := slices.Min(cands), slices.Max(cands)
		if len(cands) != n || float64(hi) > 1.3*float64(lo) {
			t.Fatalf("%d slices read %v candidates: not within 1.3x of each other", n, cands)
		}
		t.Logf("%d slices read %v candidates", n, cands)
	}
}

// TestJoinSymmetricQualifies: only a first join step reading the start
// relation's seq into the same relation's seq, under a unit-cost rule
// set, with a.id != b.id among the residual's top-level conjuncts ahead
// of any conjunct that could fail, walks each pair once; every other
// shape keeps the probe it had.
func TestJoinSymmetricQualifies(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	rows := symOracleRows(rng, 60)
	e := newJoinOracleEngine(t, rows, WithParallelism(1))
	twin := relation.New("twin")
	twin.InsertBatch(rows)
	e.Catalog().Add(twin)
	cases := []struct{ stmt, want string }{
		{`SELECT a.id, b.id FROM words a, words b ON dist(a.seq, b.seq) <= 1 USING halves WHERE a.id != b.id`,
			"NestedLoopJoin(b, on"},
		{`SELECT a.id, b.id FROM words a, words b ON dist(a.seq, b.seq) <= 1 USING edits`,
			"IndexJoin(probe a.seq into lengthview(b), on a.seq SIMILAR TO b.seq WITHIN 1 USING edits)"},
		{`SELECT a.id, b.id FROM words a, words b ON dist(a.seq, b.rev) <= 1 USING edits WHERE a.id != b.id`,
			"NestedLoopJoin(b[length-banded], on"},
		{`SELECT a.id, b.id FROM words a, words b ON dist(a.rev, b.seq) <= 1 USING edits WHERE a.id != b.id`,
			"IndexJoin(probe a.rev into lengthview(b), on a.rev SIMILAR TO b.seq WITHIN 1 USING edits)"},
		{`SELECT a.id, b.id FROM words a, twin b ON dist(a.seq, b.seq) <= 1 USING edits WHERE a.id != b.id`,
			"IndexJoin(probe a.seq into lengthview(b), on a.seq SIMILAR TO b.seq WITHIN 1 USING edits)"},
		{`SELECT a.id, b.id FROM words a, words b ON dist(a.seq, b.seq) <= 1 USING edits WHERE a.id != b.id OR a.tag = "1"`,
			"IndexJoin(probe a.seq into lengthview(b), on a.seq SIMILAR TO b.seq WITHIN 1 USING edits)"},
		// The self edge is the second step: its outer side is a join.
		{`SELECT a.id, b.id, c.id FROM words a, words b, words c ON dist(a.seq, b.seq) <= 1 USING edits AND dist(b.seq, c.seq) <= 1 USING edits WHERE b.id != c.id`,
			"IndexJoin(probe b.seq into lengthview(c), on b.seq SIMILAR TO c.seq WITHIN 1 USING edits)"},
	}
	for _, c := range cases {
		res, err := e.Execute(c.stmt)
		if err != nil {
			t.Fatalf("%q: %v", c.stmt, err)
		}
		if !strings.Contains(res.Plan(), c.want) || strings.Contains(res.Plan(), "symmetric") {
			t.Fatalf("%q: want %s and no symmetric walk:\n%s", c.stmt, c.want, res.Plan())
		}
	}

	// A conjunct evaluated ahead of the != fails on the self pairs too:
	// the walk keeps them, so the statement fails as it always did, even
	// where, over distinct rows at radius 0, no other pair reaches it.
	distinct := newJoinOracleEngine(t, []relation.InsertRow{{Seq: "abc"}, {Seq: "bcd"}, {Seq: "cde"}}, WithParallelism(1))
	const failing = `SELECT a.id FROM words a, words b ON dist(a.seq, b.seq) <= 0 USING edits WHERE z.tag = "1" AND a.id != b.id`
	if _, err := distinct.Execute(failing); err == nil || !strings.Contains(err.Error(), `unknown alias "z"`) {
		t.Fatalf("%q: err %v, want the unknown alias", failing, err)
	}
	if res, err := distinct.Execute("EXPLAIN " + failing); err != nil || strings.Contains(res.Plan(), "symmetric") {
		t.Fatalf("EXPLAIN %q: %v, want no symmetric walk", failing, err)
	}
}

// TestJoinOracleSymmetricDML runs the symmetric self-join on every
// engine while one writer per engine applies the same stream of
// inserts, deletes and updates (an update gives the row a new id, at
// the end of its length band), then checks the converged tables against
// the brute force positionally. Under -race it also proves the cursors
// and the mirror heap stay per-execution.
func TestJoinOracleSymmetricDML(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	rows := symOracleRows(rng, 60)
	engines := symEngines(t, rows)
	var stmts []string
	for i := 0; i < 90; i++ {
		switch rng.Intn(4) {
		case 0:
			stmts = append(stmts, fmt.Sprintf(
				`DELETE FROM words WHERE seq SIMILAR TO %q WITHIN 1 USING edits`, randOracleSeq(rng)))
		case 1:
			stmts = append(stmts, fmt.Sprintf(
				`UPDATE words SET seq = %q WHERE seq SIMILAR TO %q WITHIN 1 USING edits`, randOracleSeq(rng), randOracleSeq(rng)))
		default:
			stmts = append(stmts, fmt.Sprintf(
				`INSERT INTO words (seq, tag) VALUES (%q, %q)`, randOracleSeq(rng), fmt.Sprint(i%3)))
		}
	}
	const join = `SELECT a.id, b.id, dist FROM words a, words b ON dist(a.seq, b.seq) <= 1 USING edits WHERE a.id != b.id`
	var wg sync.WaitGroup
	errs := make(chan error, 2*len(engines))
	for _, se := range engines {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for _, s := range stmts {
				if _, err := se.e.Execute(s); err != nil {
					errs <- fmt.Errorf("%q: %w", s, err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, err := se.e.Execute(join); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	tab, _ := engines[0].e.Catalog().Lookup("words")
	final := tab.Tuples()
	for _, se := range engines[1:] {
		other, _ := se.e.Catalog().Lookup("words")
		if fmt.Sprint(other.Tuples()) != fmt.Sprint(final) {
			t.Fatalf("%d slices, block %d: the tables diverge after the DML", se.slices, se.block)
		}
	}
	checkSymmetric(t, engines, join, true, symPairs(t, final, 1, nil, false))
}

// TestJoinOracleDistEdge pins whose distance a join row carries when
// the join has several edges: the first join edge's in WHERE order,
// whatever order the planner joins in. Rows 0 ("a", [0,0,0,0]) and 1
// ("b", [0.5,0,0,0]) are one edit and 0.5 apart. Twenty rows of 30
// bytes with distant vectors match nothing but move the statistics the
// join order is chosen from, so each statement runs under both orders;
// a three-way join adds a one-row relation the chain starts from,
// whose own edge is not the distance edge either way.
func TestJoinOracleDistEdge(t *testing.T) {
	const (
		seqEdge = `a.seq SIMILAR TO b.seq WITHIN 1 USING edits`
		vecEdge = `a.vec SIMILAR TO b.vec WITHIN 1 USING l2`
	)
	cases := []struct{ stmt, want string }{
		{`SELECT a.id, b.id, dist FROM items a, items b WHERE ` + seqEdge + ` AND ` + vecEdge + ` AND a.id != b.id`,
			"0\x1f1\x1f1\n1\x1f0\x1f1"},
		{`SELECT a.id, b.id, dist FROM items a, items b WHERE ` + vecEdge + ` AND ` + seqEdge + ` AND a.id != b.id`,
			"0\x1f1\x1f0.5\n1\x1f0\x1f0.5"},
		{`SELECT a.id, b.id, c.id, dist FROM items a, items b, pivot c WHERE ` + seqEdge + ` AND ` + vecEdge +
			` AND b.seq SIMILAR TO c.seq WITHIN 1 USING edits AND a.id != b.id`,
			"0\x1f1\x1f0\x1f1\n1\x1f0\x1f0\x1f1"},
		{`SELECT a.id, b.id, c.id, dist FROM items a, items b, pivot c WHERE ` + vecEdge + ` AND ` + seqEdge +
			` AND b.seq SIMILAR TO c.seq WITHIN 1 USING edits AND a.id != b.id`,
			"0\x1f1\x1f0\x1f0.5\n1\x1f0\x1f0\x1f0.5"},
	}
	rng := rand.New(rand.NewSource(11))
	for _, padded := range []bool{false, true} {
		rows := []relation.InsertRow{
			{Seq: "a", Vec: metric.Vector{0, 0, 0, 0}},
			{Seq: "b", Vec: metric.Vector{0.5, 0, 0, 0}},
		}
		for i := 0; padded && i < 20; i++ {
			b := make([]byte, 30)
			for j := range b {
				b[j] = oracleAlphabet[rng.Intn(len(oracleAlphabet))]
			}
			rows = append(rows, relation.InsertRow{Seq: string(b), Vec: metric.Vector{float32(100 + 10*i), 50, 0, 0}})
		}
		for _, opts := range [][]Option{
			{WithBatchSize(1), WithParallelism(1)},
			{WithParallelism(1)},
			{WithParallelism(4), WithParallelMinRows(1)},
		} {
			items, pivot := relation.New("items"), relation.New("pivot")
			items.InsertBatch(rows)
			pivot.InsertOne(relation.InsertRow{Seq: "a", Vec: metric.Vector{0, 0, 0, 0}})
			cat := relation.NewCatalog()
			cat.Add(items)
			cat.Add(pivot)
			e := NewEngine(cat, opts...)
			if err := e.RegisterRuleSet(editsRules()); err != nil {
				t.Fatal(err)
			}
			for i, c := range cases {
				res, err := e.Execute(c.stmt)
				if err != nil {
					t.Fatalf("%q: %v", c.stmt, err)
				}
				// The two rows alone join over the seq edge first, the
				// padded table over the vec edge.
				if first := map[bool]string{false: "into lengthview(", true: "into vecview("}[padded]; i < 2 && !strings.Contains(res.Plan(), first) {
					t.Errorf("padded=%v %q does not join %s first:\n%s", padded, c.stmt, first, res.Plan())
				}
				if got := canonical(res); got != c.want {
					t.Errorf("padded=%v %q:\ngot\n%s\nwant\n%s\nplan:\n%s", padded, c.stmt, got, c.want, res.Plan())
				}
			}
		}
	}
}
