// Command bench is the repository benchmark: seven named workloads over
// simqd and tsdb, each measured end to end with tracing off and, in a
// separate traced run, layer by layer. See README.md.
//
//	bash bench/run.sh --workload words_nearest --seed 1 --seconds 10 --trace 0   (what BENCHMARK.json runs)
//	cd bench && go run . -seed 1 -out result.json              every workload, untraced then traced
//	cd bench && go run . -seed 1 -sets 2 -out result.json      twice, compared against itself
//	cd bench && go run . compare A.json B.json
package main

import (
	"cmp"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// workloadNames lists the seven workloads in BENCHMARK.json's order.
func workloadNames() []string {
	var names []string
	for _, w := range httpWorkloads {
		names = append(names, w.name)
	}
	return append(names, tsName)
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	workload := fs.String("workload", "", "run one workload and print the driver's result line; empty runs the whole suite")
	seed := fs.Int64("seed", 1, "seed of the request sequences (the datasets are fixed)")
	seconds := fs.Int("seconds", 10, "length of the measured window of an untraced run")
	trace := fs.Int("trace", 0, "1: the traced run (per-layer metrics); 0: the untraced run (end-to-end metrics)")
	traceOut := fs.String("trace-out", "", "span file of a traced run (default .bench_build/trace_<workload>.json)")
	out := fs.String("out", "", "suite: write the result file here")
	sets := fs.Int("sets", 1, "suite: run everything this many times and compare the first two sets")
	fs.Parse(os.Args[1:])
	if fs.NArg() > 0 || *seconds < 1 || *sets < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: bad arguments; see -h")
		os.Exit(2)
	}

	e, err := newEnv()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	code := run(e, *workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *traceOut, *out, *sets)
	e.close()
	os.Exit(code)
}

func run(e *env, workload string, seed int64, window time.Duration, trace bool, traceOut, out string, sets int) int {
	if err := e.buildBinaries(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if workload != "" {
		res, err := e.runOne(workload, seed, window, trace, traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		report(os.Stderr, workload, res)
		// The driver's line: exactly these four keys, last on stdout.
		line, _ := json.Marshal(struct {
			Correct   bool    `json:"correct"`
			Attempted int     `json:"attempted"`
			Failed    int     `json:"failed"`
			Metrics   metrics `json:"metrics"`
		}{res.Correct, res.Attempted, res.Failed, res.Metrics})
		fmt.Println(string(line))
		if !res.Correct {
			return 1
		}
		return 0
	}
	return e.suite(seed, window, out, sets)
}

// runOne dispatches one run of one workload.
func (e *env) runOne(name string, seed int64, window time.Duration, trace bool, traceOut string) (*runResult, error) {
	if traceOut == "" {
		traceOut = filepath.Join(filepath.Dir(e.bin), "trace_"+name+".json")
	}
	if name == tsName {
		if trace {
			return traceTS(seed, traceOut)
		}
		return runTS(seed, window)
	}
	for _, w := range httpWorkloads {
		if w.name == name {
			if trace {
				return e.traceHTTP(w, seed, traceOut)
			}
			return e.runHTTP(w, seed, window)
		}
	}
	return nil, fmt.Errorf("unknown workload %q; have %s", name, strings.Join(workloadNames(), ", "))
}

// report prints every metric by name with its unit, then the
// diagnostics and any failures.
func report(w *os.File, name string, res *runResult) {
	fmt.Fprintf(w, "%s: correct=%v attempted=%d failed=%d\n", name, res.Correct, res.Attempted, res.Failed)
	for _, k := range sortedKeys(res.Metrics) {
		fmt.Fprintf(w, "  %-26s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	for _, k := range sortedKeys(res.Diagnostics) {
		fmt.Fprintf(w, "  (%s %.6g)\n", k, res.Diagnostics[k])
	}
	for _, msg := range res.Errors {
		fmt.Fprintf(w, "  FAILED: %s\n", msg)
	}
}

func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// resultFile is what -out writes and compare reads.
type resultFile struct {
	Header header `json:"header"`
	// Sets holds one map per suite pass: workload -> the untraced run's
	// result with the traced run's metrics and diagnostics merged in.
	Sets []map[string]*runResult `json:"sets"`
}

type header struct {
	Commit    string         `json:"commit"`
	GoVersion string         `json:"go_version"`
	NProc     int            `json:"nproc"`
	Seed      int64          `json:"seed"`
	Seconds   float64        `json:"seconds"`
	Clients   int            `json:"clients"`
	Requests  map[string]int `json:"request_sequence_lengths"` // ops per cycle of each workload's sequence
}

func (e *env) header(seed int64, window time.Duration) header {
	h := header{
		Commit: "unknown", GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
		Seed: seed, Seconds: window.Seconds(), Clients: clients, Requests: map[string]int{tsName: tsQueries},
	}
	for _, w := range httpWorkloads {
		h.Requests[w.name] = w.seqLen
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = e.root
	if out, err := cmd.Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// suite runs every workload untraced and traced, `sets` times over, and
// writes the result file. With two or more sets it compares the first
// two under BENCHMARK.json's bounds and requires the work counters of
// the read-only workloads to be identical.
func (e *env) suite(seed int64, window time.Duration, out string, sets int) int {
	file := resultFile{Header: e.header(seed, window)}
	failed := false
	for set := 0; set < sets; set++ {
		results := map[string]*runResult{}
		for _, name := range workloadNames() {
			res, err := e.runOne(name, seed, window, false, "")
			if err == nil {
				var traced *runResult
				if traced, err = e.runOne(name, seed, window, true, ""); err == nil {
					res.merge(traced)
				}
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
				failed = true
				continue
			}
			report(os.Stderr, fmt.Sprintf("set %d %s", set, name), res)
			failed = failed || !res.Correct
			results[name] = res
		}
		file.Sets = append(file.Sets, results)
	}
	if out != "" {
		buf, _ := json.MarshalIndent(file, "", "  ")
		if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if sets >= 2 {
		spec, err := loadSpec(e.root)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		a := resultFile{Sets: file.Sets[:1]}
		b := resultFile{Sets: file.Sets[1:2]}
		if compareFiles(os.Stdout, spec.EndToEnd, a, b) {
			failed = true
		}
		if err := sameCounters(file.Sets[0], file.Sets[1]); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			failed = true
		}
	}
	if failed {
		return 1
	}
	return 0
}

// merge folds a traced run into the untraced run of the same workload.
func (r *runResult) merge(traced *runResult) {
	r.Attempted += traced.Attempted
	r.Failed += traced.Failed
	r.Errors = append(r.Errors, traced.Errors...)
	for k, v := range traced.Metrics {
		r.Metrics[k] = v
	}
	for k, v := range traced.Diagnostics {
		if _, dup := r.Diagnostics[k]; !dup {
			r.Diagnostics[k] = v
		}
	}
	r.finish()
}

// sameCounters requires the exact work counters to agree between two
// sets on every read-only workload: they count work, not time, and the
// traced replay is count-based, so any difference is a real change in
// what the engine did.
func sameCounters(a, b map[string]*runResult) error {
	var diffs []string
	for _, w := range httpWorkloads {
		ra, rb := a[w.name], b[w.name]
		if !w.readOnly || ra == nil || rb == nil {
			continue
		}
		for _, c := range workCounters {
			if ra.Metrics[c].Value != rb.Metrics[c].Value {
				diffs = append(diffs, fmt.Sprintf("%s %s: %v vs %v", w.name, c, ra.Metrics[c].Value, rb.Metrics[c].Value))
			}
		}
	}
	if len(diffs) > 0 {
		return errors.New("work counters differ between sets: " + strings.Join(diffs, "; "))
	}
	return nil
}
