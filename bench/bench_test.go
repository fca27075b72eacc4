package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/relation"
)

func TestPercentile(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 6}, {90, 10}, {100, 11}, {25, 3.5}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
}

// The reported tail is the highest percentile with at least ten samples
// beyond it.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 50}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {10000, 99.9}, {100000, 99.99}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestSpread(t *testing.T) {
	if got := spread([]float64{100}); got != 0 {
		t.Errorf("spread of one value = %v, want 0", got)
	}
	if got := spread([]float64{90, 100, 110}); got != 0.2 {
		t.Errorf("spread = %v, want 0.2", got)
	}
}

// Self time is a span's duration minus the part its children cover:
// overlapping children count once and a child is clipped to its parent.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0},    // overlaps a on [20,30]
		{Name: "c", Start: 90, End: 120, Parent: 0},   // runs past the root
		{Name: "leaf", Start: 12, End: 18, Parent: 1}, // grandchild
		{Name: "other", Start: 200, End: 260, Parent: -1},
	}
	want := []int64{50, 14, 30, 30, 6, 60}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	// Well-nested spans add up to their roots exactly.
	nested := spans[:2]
	if c := selfCoverage(nested); c != 1 {
		t.Errorf("selfCoverage of a nested tree = %v, want 1", c)
	}
}

func TestLev(t *testing.T) {
	for _, c := range []struct {
		a, b string
		want int
	}{{"", "", 0}, {"abc", "", 3}, {"kitten", "sitting", 3}, {"abcdef", "abdcef", 2}, {"aj", "ja", 2}} {
		if got := lev(c.a, c.b); got != c.want {
			t.Errorf("lev(%q, %q) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := lev(c.b, c.a); got != c.want {
			t.Errorf("lev(%q, %q) = %d, want %d", c.b, c.a, got, c.want)
		}
	}
}

func words(seqs ...string) []relation.Tuple {
	rows := make([]relation.Tuple, len(seqs))
	for i, s := range seqs {
		rows[i] = relation.Tuple{ID: i, Seq: s}
	}
	return rows
}

func rowsOf(cells ...string) *reply {
	r := &reply{}
	for i := 0; i+3 <= len(cells); i += 3 {
		r.Rows = append(r.Rows, cells[i:i+3])
	}
	return r
}

// The oracle accepts every right answer and names what is wrong with a
// wrong one.
func TestWordOracles(t *testing.T) {
	rows := words("abc", "abd", "xyz", "abcd", "bbc")
	// Within 1 of "abc": abc(0) abd(1) abcd(1) bbc(1).
	full := rowsOf("0", "abc", "0", "1", "abd", "1", "3", "abcd", "1", "4", "bbc", "1")
	if err := checkWithinWords(rows, "abc", 1, 0, true, full); err != nil {
		t.Errorf("complete answer rejected: %v", err)
	}
	if err := checkWithinWords(rows, "abc", 1, 2, false, rowsOf("4", "bbc", "1", "0", "abc", "0")); err != nil {
		t.Errorf("any min(limit, truth) in-radius rows are right: %v", err)
	}
	for name, bad := range map[string]*reply{
		"a missing row":      rowsOf("0", "abc", "0", "1", "abd", "1", "3", "abcd", "1"),
		"a wrong distance":   rowsOf("0", "abc", "0", "1", "abd", "0", "3", "abcd", "1", "4", "bbc", "1"),
		"a repeated row":     rowsOf("0", "abc", "0", "1", "abd", "1", "1", "abd", "1", "4", "bbc", "1"),
		"a row out of range": rowsOf("0", "abc", "0", "1", "abd", "1", "3", "abcd", "1", "2", "xyz", "3"),
		"a broken order":     rowsOf("1", "abd", "1", "0", "abc", "0", "3", "abcd", "1", "4", "bbc", "1"),
		"a foreign seq":      rowsOf("0", "abc", "0", "1", "abe", "1", "3", "abcd", "1", "4", "bbc", "1"),
	} {
		if err := checkWithinWords(rows, "abc", 1, 0, true, bad); err == nil {
			t.Errorf("%s was accepted", name)
		}
	}
	// Nearest 2 of "abc": abc(0), then any of the three at distance 1.
	for _, ok := range []*reply{rowsOf("0", "abc", "0", "1", "abd", "1"), rowsOf("0", "abc", "0", "4", "bbc", "1")} {
		if err := checkNearestWords(rows, "abc", 2, ok); err != nil {
			t.Errorf("valid top-2 rejected: %v", err)
		}
	}
	if err := checkNearestWords(rows, "abc", 2, rowsOf("0", "abc", "0", "2", "xyz", "3")); err == nil {
		t.Error("a top-2 that skips a nearer row was accepted")
	}
}

func TestJoinOracle(t *testing.T) {
	truth := joinTruth(words("abc", "abd", "xyz"), 1)
	if len(truth) != 2 || truth[[2]int{0, 1}] != 1 || truth[[2]int{1, 0}] != 1 {
		t.Fatalf("joinTruth = %v", truth)
	}
	if err := checkJoin(truth, rowsOf("0", "1", "1", "1", "0", "1")); err != nil {
		t.Errorf("right join rejected: %v", err)
	}
	if err := checkJoin(truth, rowsOf("0", "1", "1", "0", "1", "1")); err == nil {
		t.Error("a repeated pair was accepted")
	}
}

func TestIngestWords(t *testing.T) {
	seen := map[string]bool{}
	for w := 0; w < 200000; w++ {
		s := ingestWord(w)
		if seen[s] {
			t.Fatalf("ingestWord(%d) = %q repeats", w, s)
		}
		seen[s] = true
		if len(s) != 10 || strings.Trim(s, "klmnopqrst") != "" {
			t.Fatalf("ingestWord(%d) = %q is not ten symbols of k-t", w, s)
		}
	}
}

// fingerprint hashes everything a replay sends for a sequence.
func fingerprint(s *sequence) string {
	h := sha256.New()
	for _, o := range s.ops {
		fmt.Fprintf(h, "%d %v %d %s\n", o.stmt, o.write, o.target, o.tail)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// The datasets are byte-identical from run to run; one seed gives one
// request sequence and another seed a different one.
func TestSeedDeterminism(t *testing.T) {
	e, err := newEnv()
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	if err := e.buildBinaries(); err != nil {
		t.Fatal(err)
	}
	rels := map[string]*relation.Relation{}
	files := map[string][]byte{}
	for _, d := range []dataset{wordsData, vecsData, dictData} {
		for pass := 0; pass < 2; pass++ {
			if err := d.generate(e); err != nil {
				t.Fatal(err)
			}
			file, err := os.ReadFile(d.path(e))
			if err != nil {
				t.Fatal(err)
			}
			if pass == 1 && !bytes.Equal(file, files[d.rel]) {
				t.Errorf("%s: two generations gave different files", d.rel)
			}
			files[d.rel] = file
		}
		if rels[d.rel], err = d.load(e); err != nil {
			t.Fatal(err)
		}
		if n := rels[d.rel].Len(); n != d.count {
			t.Errorf("%s: %d rows, want %d", d.rel, n, d.count)
		}
	}
	if bytes.HasPrefix(files["words"], files["dict"]) {
		t.Error("dict is a prefix of words; the join would be a subset of the words workloads")
	}
	for _, w := range httpWorkloads {
		var prints [3]string
		for i, seed := range []int64{1, 1, 2} {
			seq, err := w.build(rand.New(rand.NewSource(seed)), rels, w.seqLen)
			if err != nil {
				t.Fatal(err)
			}
			if len(seq.ops) != w.seqLen {
				t.Errorf("%s: %d ops, want %d", w.name, len(seq.ops), w.seqLen)
			}
			prints[i] = fingerprint(seq)
		}
		if prints[0] != prints[1] {
			t.Errorf("%s: the same seed gave different request sequences", w.name)
		}
		// join_dict sends one statement whatever the seed.
		if prints[0] == prints[2] && w.name != "join_dict" {
			t.Errorf("%s: different seeds gave the same request sequence", w.name)
		}
	}
	a, _ := newTSWorkload(1)
	b, _ := newTSWorkload(1)
	c, _ := newTSWorkload(2)
	if fmt.Sprint(a.queries) != fmt.Sprint(b.queries) {
		t.Errorf("%s: the same seed gave different queries", tsName)
	}
	if fmt.Sprint(a.queries[:10]) == fmt.Sprint(c.queries[:10]) {
		t.Errorf("%s: different seeds gave the same queries", tsName)
	}
}

// words_adhoc must outrun the plan cache: all literals distinct.
func TestAdhocLiteralsDistinct(t *testing.T) {
	n := 0
	got := distinct(func() string { n++; return fmt.Sprint(n % 7) }, 7)
	if len(got) != 7 {
		t.Fatalf("distinct returned %d values, want 7", len(got))
	}
}

// The harness prints exactly the names and units BENCHMARK.json lists,
// for the workloads it lists, and the spec obeys the driver's rules.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if fmt.Sprint(names) != fmt.Sprint(workloadNames()) {
		t.Errorf("workloads: BENCHMARK.json %v, harness %v", names, workloadNames())
	}
	match := func(kind string, listed []bound, defs []metricDef) {
		out := newMetrics(defs)
		if len(listed) != len(out) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the harness prints %d", kind, len(listed), len(out))
		}
		for _, b := range listed {
			mv, ok := out[b.Name]
			if !ok {
				t.Errorf("%s: %s is listed but not printed", kind, b.Name)
			} else if mv.Unit != b.Unit {
				t.Errorf("%s: %s has unit %q in BENCHMARK.json, %q in the harness", kind, b.Name, b.Unit, mv.Unit)
			}
			if b.Better != "higher" && b.Better != "lower" {
				t.Errorf("%s: %s has direction %q", kind, b.Name, b.Better)
			}
		}
	}
	match("end_to_end", spec.EndToEnd, endToEndMetrics)
	match("per_layer", spec.PerLayer, perLayerMetrics)
	largest, setup := 0.0, -1.0
	for _, b := range spec.EndToEnd {
		if b.Bound <= 0 || b.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", b.Name, b.Bound)
		}
		largest = max(largest, b.Bound)
		if b.Name == "setup_s" {
			setup = b.Bound
		}
	}
	if setup != largest {
		t.Errorf("setup_s has bound %v; it must have the largest (%v)", setup, largest)
	}
	for _, c := range workCounters {
		if _, ok := newMetrics(perLayerMetrics)[c]; !ok {
			t.Errorf("work counter %s is not a per-layer metric", c)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := bound{Name: "p50_ms", Better: "lower", Bound: 0.10}
	higher := bound{Name: "qps", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		b    bound
		a, v []float64
		want string
	}{
		{lower, []float64{10}, []float64{10.9}, "ok"},
		{lower, []float64{10}, []float64{11.1}, "worse"},
		{lower, []float64{10}, []float64{5}, "ok"},
		{higher, []float64{100}, []float64{91}, "ok"},
		{higher, []float64{100}, []float64{89}, "worse"},
		{higher, []float64{100}, []float64{150}, "ok"},
		{lower, []float64{10, 10.2}, []float64{11.5, 11.6}, "worse"},
		{lower, []float64{10, 12}, []float64{11.5, 11.6}, "unresolved"}, // A's own sets differ by more than the bound
		{lower, []float64{10, 10.1}, []float64{9, 11}, "unresolved"},
	} {
		if got, _ := verdict(c.b, c.a, c.v); got != c.want {
			t.Errorf("verdict(%s, %v, %v) = %s, want %s", c.b.Name, c.a, c.v, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	mk := func(qps float64, failed int) resultFile {
		set := map[string]*runResult{}
		for _, name := range workloadNames() {
			m := newMetrics(endToEndMetrics)
			m.set("qps", qps)
			m.set("p50_ms", 1)
			m.set("p90_ms", 2)
			m.set("setup_s", 0.1)
			set[name] = &runResult{Metrics: m, Failed: failed}
		}
		return resultFile{Sets: []map[string]*runResult{set}}
	}
	bounds := []bound{{Name: "qps", Better: "higher", Bound: 0.1}, {Name: "p50_ms", Better: "lower", Bound: 0.1}}
	var out bytes.Buffer
	if compareFiles(&out, bounds, mk(100, 0), mk(95, 0)) {
		t.Errorf("a 5%% drop under a 10%% bound was reported worse:\n%s", out.String())
	}
	if !compareFiles(&out, bounds, mk(100, 0), mk(80, 0)) {
		t.Error("a 20% drop under a 10% bound was not reported worse")
	}
	if !compareFiles(&out, bounds, mk(100, 0), mk(100, 1)) {
		t.Error("a new failed operation was not reported worse")
	}
	if got := strings.Count(out.String(), "\n"); got < 3*len(workloadNames())*len(bounds) {
		t.Errorf("compare printed %d lines, want a row per workload x metric", got)
	}
}

// endToEnd reads each metric per slice and reports the quartile on the
// good side; failed ops, writes (for latency) and ops that outlive their
// part are left out.
func TestEndToEndSlices(t *testing.T) {
	const ms = int64(1e6)
	var recs []rec
	add := func(slice, n int, lat int64) {
		for i := 0; i < n; i++ {
			recs = append(recs, rec{start: int64(slice)*500*ms + int64(i)*ms, lat: lat, ok: true})
		}
	}
	add(0, 10, 1*ms) // 20 ops/s, 1 ms
	add(1, 20, 2*ms) // 40 ops/s, 2 ms
	add(2, 30, 3*ms) // 60 ops/s, 3 ms
	add(3, 40, 4*ms) // 80 ops/s, 4 ms
	recs = append(recs,
		rec{start: 950 * ms, lat: 100 * ms, ok: true},             // started in part 0, finished in part 1
		rec{start: 10 * ms, lat: 1 * ms, ok: false},               // failed
		rec{start: 1990 * ms, lat: 50 * ms, ok: true},             // finished after the window
		rec{start: 20 * ms, lat: 400 * ms, ok: true, write: true}, // a write: throughput only
	)
	res := &runResult{Metrics: newMetrics(endToEndMetrics), Diagnostics: map[string]float64{}}
	endToEnd(res, recs, 1e9, 2, 2)
	// Slice 0 holds 11 ops with the write: 22, 40, 60, 80 ops/s.
	if got, want := res.Metrics["qps"].Value, 65.0; got != want {
		t.Errorf("qps = %v, want %v (upper quartile of 22, 40, 60, 80)", got, want)
	}
	if got, want := res.Metrics["p50_ms"].Value, 1.75; got != want {
		t.Errorf("p50_ms = %v, want %v (lower quartile of 1, 2, 3, 4)", got, want)
	}
	if got := res.Diagnostics["write_samples"]; got != 1 {
		t.Errorf("write_samples = %v, want 1", got)
	}
}
