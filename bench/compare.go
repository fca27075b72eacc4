package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// benchmarkSpec is the part of BENCHMARK.json the harness reads.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []bound `json:"end_to_end"`
	PerLayer []bound `json:"per_layer"`
}

// bound is one metric's declaration: which way is better and, for an
// end-to-end metric, the share of the baseline's median by which it may
// get worse.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(root string) (*benchmarkSpec, error) {
	buf, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(buf, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &spec, nil
}

// values collects one metric of one workload across a file's sets.
func (f resultFile) values(workload, metric string) []float64 {
	var out []float64
	for _, set := range f.Sets {
		if r := set[workload]; r != nil {
			if mv, ok := r.Metrics[metric]; ok {
				out = append(out, mv.Value)
			}
		}
	}
	return out
}

// verdict compares B against baseline A for one metric. worse: B's
// median is worse than A's by more than the bound. unresolved: either
// file's own sets spread wider than the bound, so the bound cannot be
// resolved either way. ok otherwise.
func verdict(b bound, a, bv []float64) (status string, change float64) {
	ma, mb := median(a), median(bv)
	if ma != 0 {
		change = (mb - ma) / ma
		if b.Better == "higher" {
			change = -change
		}
	}
	switch {
	case spread(a) > b.Bound || spread(bv) > b.Bound:
		return "unresolved", change
	case change > b.Bound:
		return "worse", change
	}
	return "ok", change
}

// compareFiles prints one row per workload x end-to-end metric and
// reports whether any row is worse.
func compareFiles(w io.Writer, bounds []bound, a, b resultFile) (worse bool) {
	fmt.Fprintf(w, "%-14s %-10s %14s %14s %9s %7s  %s\n", "workload", "metric", "A", "B", "change", "bound", "verdict")
	for _, name := range workloadNames() {
		for _, bd := range bounds {
			va, vb := a.values(name, bd.Name), b.values(name, bd.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-14s %-10s %14s %14s %9s %7s  missing\n", name, bd.Name, "-", "-", "-", "-")
				worse = true
				continue
			}
			status, change := verdict(bd, va, vb)
			fmt.Fprintf(w, "%-14s %-10s %14.6g %14.6g %+8.1f%% %6.0f%%  %s\n",
				name, bd.Name, median(va), median(vb), 100*change, 100*bd.Bound, status)
			worse = worse || status == "worse"
		}
		fa, fb := failures(a, name), failures(b, name)
		if fb > fa {
			fmt.Fprintf(w, "%-14s %-10s %14d %14d %9s %7s  worse\n", name, "failed", fa, fb, "", "none")
			worse = true
		}
	}
	return worse
}

// failures sums a workload's failed operations over a file's sets; the
// error rate may not increase at all.
func failures(f resultFile, workload string) int {
	n := 0
	for _, set := range f.Sets {
		if r := set[workload]; r != nil {
			n += r.Failed
		}
	}
	return n
}

// compareMain is `bench compare A.json B.json`: exit 1 when any row is
// worse, 2 on bad usage.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare A.json B.json")
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	spec, err := loadSpec(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	var files [2]resultFile
	for i, path := range args {
		buf, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(buf, &files[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", path, err)
			return 2
		}
	}
	if compareFiles(os.Stdout, spec.EndToEnd, files[0], files[1]) {
		return 1
	}
	return 0
}
