// Command benchcheck compares `go test -bench` output against a
// checked-in baseline with benchstat-style tolerance, and fails CI on
// regressions of the gated benchmarks.
//
// Usage:
//
//	go test -bench . -benchtime=3x -count=3 ./... | tee bench.txt
//	benchcheck -input bench.txt -baseline BENCH_baseline.json
//	benchcheck -input bench.txt -baseline BENCH_baseline.json -update
//
// Repeated runs of one benchmark (-count > 1) collapse to their median,
// which is what benchstat reports as the center.
//
// The baseline stores two kinds of entries:
//
//   - absolute: {"ns_per_op": N} — compared directly; machine-speed
//     dependent, so these only warn unless matched by -gate AND the
//     baseline was recorded on comparable hardware.
//   - relative: {"ratio_of": "OtherBench", "max_ratio": R} — the
//     current run's ns(name)/ns(OtherBench) must stay at or below
//     R*(1+tolerance). Ratios are machine-independent, which makes them
//     the right gate for CI: "a cache-hit execution must stay at least
//     this much cheaper than a cold parse+plan execution" holds on any
//     runner.
//
// Exit status 1 when any gated entry regresses beyond -tolerance.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// baseline is the BENCH_baseline.json schema.
type baseline struct {
	Note       string               `json:"note,omitempty"`
	Tolerance  float64              `json:"tolerance,omitempty"` // default when -tolerance unset
	Benchmarks map[string]*expected `json:"benchmarks"`
}

type expected struct {
	NsPerOp  float64 `json:"ns_per_op,omitempty"`
	RatioOf  string  `json:"ratio_of,omitempty"`
	MaxRatio float64 `json:"max_ratio,omitempty"`
	// Gate marks the entry as build-failing regardless of the -gate
	// regexp, so the baseline file itself documents what is enforced.
	Gate bool `json:"gate,omitempty"`
	// Tolerance overrides the -tolerance flag for this entry; 0 makes
	// max_ratio a hard ceiling (the kernel floors use this: the ceiling
	// already encodes all the headroom it should have).
	Tolerance *float64 `json:"tolerance,omitempty"`
	// Why says what the entry measures and, for a gate, why its
	// ceiling holds; -update keeps it.
	Why string `json:"why,omitempty"`
}

var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op`)

func main() {
	input := flag.String("input", "", "bench output file (default stdin)")
	baseFile := flag.String("baseline", "BENCH_baseline.json", "baseline file")
	gate := flag.String("gate", `^Serving(CacheHit|Prepared)$`, "regexp of benchmark names whose regression fails the build")
	tolerance := flag.Float64("tolerance", 0.30, "allowed fractional regression before failing")
	update := flag.Bool("update", false, "rewrite the baseline's gated entries from the current run")
	flag.Parse()

	data := os.Stdin
	if *input != "" {
		f, err := os.Open(*input)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		data = f
	}
	current, err := parseBench(data)
	if err != nil {
		fail(err)
	}
	if len(current) == 0 {
		fail(fmt.Errorf("no 'ns/op' lines found in input"))
	}

	gateRe, err := regexp.Compile(*gate)
	if err != nil {
		fail(fmt.Errorf("bad -gate: %w", err))
	}

	base := &baseline{Benchmarks: map[string]*expected{}}
	if raw, err := os.ReadFile(*baseFile); err == nil {
		if err := json.Unmarshal(raw, base); err != nil {
			fail(fmt.Errorf("%s: %w", *baseFile, err))
		}
	} else if !*update {
		fail(fmt.Errorf("baseline %s unreadable (run with -update to create it): %w", *baseFile, err))
	}

	if *update {
		updateBaseline(base, current, gateRe)
		var out bytes.Buffer
		enc := json.NewEncoder(&out)
		enc.SetEscapeHTML(false) // the why texts say "<=" and "x <= y"
		enc.SetIndent("", "  ")
		if err := enc.Encode(base); err != nil {
			fail(err)
		}
		if err := os.WriteFile(*baseFile, out.Bytes(), 0o644); err != nil {
			fail(err)
		}
		fmt.Printf("benchcheck: wrote %s (%d entries)\n", *baseFile, len(base.Benchmarks))
		return
	}

	failures := 0
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		want := base.Benchmarks[name]
		gated := gateRe.MatchString(name) || want.Gate
		tol := *tolerance
		if want.Tolerance != nil {
			tol = *want.Tolerance
		}
		got, ok := current[name]
		if !ok {
			fmt.Printf("benchcheck: MISSING  %-40s not in current run\n", name)
			if gated {
				failures++
			}
			continue
		}
		switch {
		case want.RatioOf != "":
			ref, ok := current[want.RatioOf]
			if !ok || ref == 0 {
				fmt.Printf("benchcheck: MISSING  %-40s reference %s not in current run\n", name, want.RatioOf)
				if gated {
					failures++
				}
				continue
			}
			ratio := got / ref
			limit := want.MaxRatio * (1 + tol)
			status := "ok"
			if ratio > limit {
				status = "REGRESSED"
				if gated {
					failures++
				}
			}
			fmt.Printf("benchcheck: %-9s %-40s ratio vs %s = %.3f (limit %.3f)\n",
				status, name, want.RatioOf, ratio, limit)
		case want.NsPerOp > 0:
			delta := (got - want.NsPerOp) / want.NsPerOp
			status := "ok"
			if delta > tol {
				status = "REGRESSED"
				if gated {
					failures++
				}
			}
			fmt.Printf("benchcheck: %-9s %-40s %.0f ns/op vs baseline %.0f (%+.1f%%)\n",
				status, name, got, want.NsPerOp, 100*delta)
		}
	}
	if failures > 0 {
		fail(fmt.Errorf("%d gated benchmark(s) regressed beyond tolerance", failures))
	}
	fmt.Println("benchcheck: all gated benchmarks within tolerance")
}

// updateBaseline refreshes ratio entries' MaxRatio and gated absolute
// entries' NsPerOp from the current run; ungated absolute entries are
// refreshed too (they are informational).
func updateBaseline(base *baseline, current map[string]float64, gateRe *regexp.Regexp) {
	for name, want := range base.Benchmarks {
		got, ok := current[name]
		if !ok {
			continue
		}
		if want.RatioOf != "" {
			if want.Tolerance != nil {
				// An explicit per-entry tolerance marks a POLICY ceiling
				// (e.g. the 0.5 bit-parallel kernel floor), not a recorded
				// measurement; refreshing it from the current run would
				// silently rewrite the contract the gate encodes.
				fmt.Printf("benchcheck: keeping policy ceiling for %s (max_ratio %.3f)\n", name, want.MaxRatio)
				continue
			}
			if ref, ok := current[want.RatioOf]; ok && ref > 0 {
				want.MaxRatio = round3(got / ref)
			}
			continue
		}
		want.NsPerOp = got
	}
	// First run: seed absolute entries for everything parsed.
	if len(base.Benchmarks) == 0 {
		for name, got := range current {
			base.Benchmarks[name] = &expected{NsPerOp: got}
		}
	}
}

func round3(v float64) float64 {
	s := strconv.FormatFloat(v, 'f', 3, 64)
	out, _ := strconv.ParseFloat(s, 64)
	return out
}

// parseBench reads `go test -bench` output and returns the median
// ns/op per benchmark name (sub-benchmarks keep their full slash path;
// the -cpu/GOMAXPROCS suffix is stripped).
func parseBench(f *os.File) (map[string]float64, error) {
	samples := map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		name := strings.TrimPrefix(m[1], "Benchmark")
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			continue
		}
		samples[name] = append(samples[name], ns)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(samples))
	for name, vals := range samples {
		sort.Float64s(vals)
		out[name] = vals[len(vals)/2]
	}
	return out, nil
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "benchcheck: %v\n", err)
	os.Exit(1)
}
