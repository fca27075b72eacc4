// Command simload is a closed-loop load generator for cmd/simqd: N
// workers each keep exactly one request outstanding against the server
// and the tool reports latency quantiles and throughput, written as a
// machine-readable BENCH_serving.json for the CI bench job.
//
// Usage:
//
//	simload -addr http://127.0.0.1:8077 -c 8 -duration 10s -out BENCH_serving.json
//	simload -write-frac 0.2 ...   # 20% of requests are single-row /ingest writes
//
// By default the workload prepares one parameterized range query and
// executes it with rotating targets and radii, which exercises the
// whole serving stack: prepared-statement binding, the planner-decision
// cache and concurrent execution. -no-prepare switches to ad-hoc
// statement text per request (plan-cache path) for comparison.
// -write-frac > 0 turns the run into a mixed read/write workload:
// the chosen fraction of requests become POST /ingest single-row
// inserts, and the report carries separate read and write throughput
// and latency quantiles — the ingest-vs-query numbers in
// EXPERIMENTS.md come from this mode.
//
// -vec-dim > 0 switches the read workload from string similarity to
// vector similarity over the vec column: WITHIN requests carry rotating
// d-dimensional vector-literal targets with the -vec-radius bound,
// NEAREST requests (per -nearest-frac) rotate the same targets, and
// -write-frac writes ingest vector rows. -vec-metric picks the distance
// (l2 or cosine). The vector serving numbers in EXPERIMENTS.md and the
// nightly BENCH_nightly_vector.json come from this mode.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/metric"
)

type listFlag []string

func (l *listFlag) String() string     { return strings.Join(*l, ",") }
func (l *listFlag) Set(v string) error { *l = append(*l, v); return nil }

// defaultTargets are probe words over the datagen words alphabet
// (a-j); rotating them keeps the server's per-query work varied without
// changing the plan shape.
var defaultTargets = []string{
	"abcdefgh", "jihgfedc", "aabbccdd", "fghijabc", "cadgbeif",
	"hhhggffe", "abcabcab", "jjiihhgg", "degijabc", "bdfhjace",
}

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8077", "simqd base URL")
	conc := flag.Int("c", 8, "concurrent workers (closed loop: one request in flight each)")
	duration := flag.Duration("duration", 10*time.Second, "run length (ignored when -n > 0)")
	count := flag.Int("n", 0, "total request budget (0 = run for -duration)")
	warmup := flag.Int("warmup", 100, "unrecorded warm-up requests")
	relName := flag.String("relation", "words", "relation to query")
	ruleSet := flag.String("ruleset", "edits", "rule set for the similarity predicate")
	radius := flag.Int("radius", 1, "WITHIN radius bound per request")
	noPrepare := flag.Bool("no-prepare", false, "send statement text per request instead of a prepared id")
	writeFrac := flag.Float64("write-frac", 0, "fraction of requests that are /ingest writes (0..1)")
	nearestFrac := flag.Float64("nearest-frac", 0, "fraction of read requests that are NEAREST top-k queries (0..1)")
	nearestK := flag.Int("nearest-k", 10, "k for the NEAREST fraction of the workload")
	vecDim := flag.Int("vec-dim", 0, "vector dimension: > 0 switches to a vector-similarity workload over the vec column")
	vecMetric := flag.String("vec-metric", "l2", "distance metric for the vector workload (l2 | cosine)")
	vecRadius := flag.Float64("vec-radius", 1.0, "WITHIN bound for the vector workload")
	label := flag.String("label", "", "workload label embedded in the report (e.g. wal-sync)")
	out := flag.String("out", "BENCH_serving.json", "result file ('-' for stdout)")
	var extra listFlag
	flag.Var(&extra, "query", "extra fixed statement to mix in (repeatable)")
	flag.Parse()
	cfg := flagConfig{
		writeFrac:   *writeFrac,
		nearestFrac: *nearestFrac,
		nearestK:    *nearestK,
		vecDim:      *vecDim,
		vecMetric:   *vecMetric,
		vecRadius:   *vecRadius,
	}
	if err := cfg.validate(); err != nil {
		failUsage(err)
	}

	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: *conc * 2}}

	if err := waitHealthy(client, *addr, 10*time.Second); err != nil {
		fail(err)
	}

	vec := *vecDim > 0
	stmt := fmt.Sprintf("SELECT seq, dist FROM %s WHERE seq SIMILAR TO ? WITHIN ? USING %s LIMIT 20", *relName, *ruleSet)
	nearestStmt := fmt.Sprintf("SELECT seq, dist FROM %s WHERE seq NEAREST %d TO ? USING %s", *relName, *nearestK, *ruleSet)
	targets := defaultTargets
	var radiusArg any = *radius
	if vec {
		stmt = fmt.Sprintf("SELECT id, dist FROM %s WHERE vec SIMILAR TO ? WITHIN ? USING %s LIMIT 20", *relName, *vecMetric)
		nearestStmt = fmt.Sprintf("SELECT id, dist FROM %s WHERE vec NEAREST %d TO ? USING %s", *relName, *nearestK, *vecMetric)
		targets = vecTargets(*vecDim)
		radiusArg = *vecRadius
	}
	var preparedID, nearestID string
	if !*noPrepare {
		id, err := prepare(client, *addr, stmt)
		if err != nil {
			fail(err)
		}
		preparedID = id
		if *nearestFrac > 0 {
			if nearestID, err = prepare(client, *addr, nearestStmt); err != nil {
				fail(err)
			}
		}
	}

	// Warm up (fills the statement cache, warms connections).
	for i := 0; i < *warmup; i++ {
		body := requestBody(preparedID, stmt, targets[i%len(targets)], radiusArg, vec, extra, i)
		if *nearestFrac > 0 && i%2 == 1 {
			body = nearestBody(nearestID, nearestStmt, targets[i%len(targets)], vec)
		}
		if _, err := post(client, *addr+"/v1/query", body); err != nil {
			fail(fmt.Errorf("warmup request: %w", err))
		}
	}

	type workerResult struct {
		latencies []float64 // read latencies, milliseconds
		writeLats []float64 // write latencies, milliseconds
		errs      errorCounts
		writeErrs errorCounts
	}
	results := make([]workerResult, *conc)
	deadline := time.Now().Add(*duration)
	var issued int64
	var issuedMu sync.Mutex
	takeTicket := func() (int, bool) {
		if *count <= 0 {
			return 0, time.Now().Before(deadline)
		}
		issuedMu.Lock()
		defer issuedMu.Unlock()
		if issued >= int64(*count) {
			return 0, false
		}
		issued++
		return int(issued), true
	}

	start := time.Now()
	var wg sync.WaitGroup
	for wkr := 0; wkr < *conc; wkr++ {
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			r := &results[wkr]
			for i := 0; ; i++ {
				seq, ok := takeTicket()
				if !ok {
					return
				}
				n := wkr*1_000_003 + i + seq
				// Deterministic read/write interleave: the stride 997 is
				// coprime to 1000, so write tickets spread evenly through
				// the sequence instead of forming contiguous bursts —
				// the quantiles then measure reads *under* concurrent
				// writes, not alternating single-mode phases.
				if *writeFrac > 0 && float64(n*997%1000) < *writeFrac*1000 {
					body := ingestBody(*relName, n)
					if vec {
						body = ingestVecBody(*relName, *vecDim, n)
					}
					t0 := time.Now()
					_, err := post(client, *addr+"/v1/ingest", body)
					if err != nil {
						r.writeErrs.count(err)
						continue
					}
					r.writeLats = append(r.writeLats, float64(time.Since(t0).Microseconds())/1000)
					continue
				}
				body := requestBody(preparedID, stmt, targets[n%len(targets)], radiusArg, vec, extra, n)
				// Deterministic WITHIN/NEAREST interleave (stride 991 is
				// coprime to 1000, like the write stride below).
				if *nearestFrac > 0 && float64(n*991%1000) < *nearestFrac*1000 {
					body = nearestBody(nearestID, nearestStmt, targets[n%len(targets)], vec)
				}
				t0 := time.Now()
				_, err := post(client, *addr+"/v1/query", body)
				if err != nil {
					r.errs.count(err)
					continue
				}
				r.latencies = append(r.latencies, float64(time.Since(t0).Microseconds())/1000)
			}
		}(wkr)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var all, writes []float64
	var readErrs, writeErrs errorCounts
	for _, r := range results {
		all = append(all, r.latencies...)
		writes = append(writes, r.writeLats...)
		readErrs.add(r.errs)
		writeErrs.add(r.writeErrs)
	}
	errors, writeErrors := readErrs.total(), writeErrs.total()
	if len(all) == 0 && len(writes) == 0 {
		fail(fmt.Errorf("no successful requests (errors=%d)", errors+writeErrors))
	}
	sort.Float64s(all)
	sort.Float64s(writes)
	report := map[string]any{
		"config": map[string]any{
			"addr":         *addr,
			"concurrency":  *conc,
			"duration_s":   elapsed.Seconds(),
			"prepared":     !*noPrepare,
			"statement":    stmt,
			"radius":       *radius,
			"warmup":       *warmup,
			"write_frac":   *writeFrac,
			"nearest_frac": *nearestFrac,
			"nearest_k":    *nearestK,
			"vec_dim":      *vecDim,
			"vec_metric":   *vecMetric,
			"vec_radius":   *vecRadius,
		},
		"total_requests": len(all) + len(writes),
		"errors":         errors + writeErrors,
		// Back-compat top-level fields describe the read side.
		"throughput_rps": float64(len(all)) / elapsed.Seconds(),
		"latency_ms":     latencySummary(all),
		"reads": map[string]any{
			"count":            len(all),
			"errors":           errors,
			"http_errors":      readErrs.http,
			"transport_errors": readErrs.transport,
			"throughput_rps":   float64(len(all)) / elapsed.Seconds(),
			"latency_ms":       latencySummary(all),
		},
	}
	if *label != "" {
		report["label"] = *label
	}
	if *writeFrac > 0 {
		w := map[string]any{
			"count":            len(writes),
			"errors":           writeErrors,
			"http_errors":      writeErrs.http,
			"transport_errors": writeErrs.transport,
		}
		if len(writes) > 0 {
			w["throughput_rps"] = float64(len(writes)) / elapsed.Seconds()
			w["latency_ms"] = latencySummary(writes)
		}
		report["writes"] = w
	}
	enc, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fail(err)
	}
	enc = append(enc, '\n')
	if *out == "-" {
		os.Stdout.Write(enc)
	} else {
		if err := os.WriteFile(*out, enc, 0o644); err != nil {
			fail(err)
		}
	}
	fmt.Fprintf(os.Stderr, "simload: %d reads in %.2fs (%.0f req/s), p50=%.3fms p99=%.3fms, %d errors -> %s\n",
		len(all), elapsed.Seconds(), float64(len(all))/elapsed.Seconds(),
		quantile(all, 0.5), quantile(all, 0.99), errors, *out)
	if len(writes) > 0 {
		fmt.Fprintf(os.Stderr, "simload: %d writes (%.0f req/s), p50=%.3fms p99=%.3fms, %d errors\n",
			len(writes), float64(len(writes))/elapsed.Seconds(),
			quantile(writes, 0.5), quantile(writes, 0.99), writeErrors)
	}
	// Fail the run past a 1% error rate: a load result riddled with
	// rejected or dropped requests measures error handling, not the
	// engine, and must not land in a baseline.
	if total := len(all) + len(writes) + errors + writeErrors; float64(errors+writeErrors) > 0.01*float64(total) {
		fail(fmt.Errorf("error rate too high: %d errors (%d http, %d transport) in %d requests",
			errors+writeErrors, readErrs.http+writeErrs.http, readErrs.transport+writeErrs.transport, total))
	}
}

// errorCounts classifies failed requests: http counts responses the
// server answered with a non-200 status (the request reached the engine
// and was rejected), transport counts connection/decode failures where
// no well-formed response came back at all. The two fail differently —
// http errors are usually a workload-shape bug, transport errors a
// saturated or dying server — so BENCH_serving.json reports them apart.
type errorCounts struct {
	http      int
	transport int
}

func (e *errorCounts) count(err error) {
	var se statusError
	if errors.As(err, &se) {
		e.http++
		return
	}
	e.transport++
}

func (e *errorCounts) add(o errorCounts) {
	e.http += o.http
	e.transport += o.transport
}

func (e errorCounts) total() int { return e.http + e.transport }

// latencySummary renders the standard quantile block over a sorted
// latency slice.
func latencySummary(sorted []float64) map[string]float64 {
	if len(sorted) == 0 {
		return map[string]float64{}
	}
	sum := 0.0
	for _, v := range sorted {
		sum += v
	}
	return map[string]float64{
		"mean": sum / float64(len(sorted)),
		"p50":  quantile(sorted, 0.50),
		"p90":  quantile(sorted, 0.90),
		"p99":  quantile(sorted, 0.99),
		"max":  sorted[len(sorted)-1],
	}
}

// vecTargets builds the rotating probe vectors of the vector workload:
// ten deterministic d-dimensional points in [-1,1)^d (fixed seed, so
// every run probes the same targets),
// rendered in the canonical vector-literal syntax.
func vecTargets(dim int) []string {
	rng := rand.New(rand.NewSource(42))
	out := make([]string, 10)
	for i := range out {
		v := make(metric.Vector, dim)
		for j := range v {
			v[j] = float32(rng.Float64()*2 - 1)
		}
		out[i] = metric.Format(v)
	}
	return out
}

// nearestBody builds one NEAREST top-k request: the prepared statement
// when available, literal text otherwise.
func nearestBody(preparedID, stmt, target string, vec bool) map[string]any {
	if preparedID != "" {
		return map[string]any{"id": preparedID, "params": []any{target}}
	}
	return map[string]any{"query": literalStatement(stmt, target, nil, vec)}
}

// ingestBody builds one /ingest write: a unique single row derived from
// the request counter, over the datagen words alphabet.
func ingestBody(rel string, n int) map[string]any {
	b := make([]byte, 0, 10)
	b = append(b, 'w')
	for v := n; v > 0; v /= 10 {
		b = append(b, byte('a'+v%10))
	}
	return map[string]any{
		"relation": rel,
		"rows":     []map[string]any{{"seq": string(b), "attrs": map[string]string{"src": "simload"}}},
	}
}

// ingestVecBody builds one vector-row /ingest write, the vector derived
// deterministically from the request counter.
func ingestVecBody(rel string, dim, n int) map[string]any {
	rng := rand.New(rand.NewSource(int64(n)))
	v := make(metric.Vector, dim)
	for j := range v {
		v[j] = float32(rng.Float64()*2 - 1)
	}
	return map[string]any{
		"relation": rel,
		"rows":     []map[string]any{{"vec": metric.Format(v), "attrs": map[string]string{"src": "simload"}}},
	}
}

// requestBody builds one /query body: usually the prepared statement
// with rotated bindings; every len(extra)+1-th request (when -query
// statements were given) sends one of those verbatim instead.
func requestBody(preparedID, stmt, target string, radius any, vec bool, extra []string, n int) map[string]any {
	if len(extra) > 0 && n%(len(extra)+4) < len(extra) {
		return map[string]any{"query": extra[n%(len(extra)+4)]}
	}
	if preparedID != "" {
		return map[string]any{"id": preparedID, "params": []any{target, radius}}
	}
	return map[string]any{"query": literalStatement(stmt, target, radius, vec)}
}

// literalStatement substitutes the rotating bindings into the canonical
// parameterized statement for the -no-prepare path: the target (quoted
// for string workloads, raw vector-literal syntax for vector ones) then
// the radius, when the statement has a second slot.
func literalStatement(stmt, target string, radius any, vec bool) string {
	t := fmt.Sprintf("%q", target)
	if vec {
		t = target
	}
	s := strings.Replace(stmt, "?", t, 1)
	if radius != nil {
		s = strings.Replace(s, "?", fmt.Sprint(radius), 1)
	}
	return s
}

// quantile reads the q-th quantile from a sorted slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := q * float64(len(sorted)-1)
	lo := int(math.Floor(idx))
	hi := int(math.Ceil(idx))
	if lo == hi {
		return sorted[lo]
	}
	frac := idx - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

func waitHealthy(client *http.Client, addr string, patience time.Duration) error {
	deadline := time.Now().Add(patience)
	for {
		resp, err := client.Get(addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server at %s not healthy after %s: %v", addr, patience, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func prepare(client *http.Client, addr, stmt string) (string, error) {
	out, err := post(client, addr+"/v1/prepare", map[string]any{"query": stmt})
	if err != nil {
		return "", fmt.Errorf("prepare: %w", err)
	}
	id, _ := out["id"].(string)
	if id == "" {
		return "", fmt.Errorf("prepare: no id in response %v", out)
	}
	return id, nil
}

func post(client *http.Client, url string, body map[string]any) (map[string]any, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("%s: bad response: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, statusError{msg: fmt.Sprintf("%s: %s: %v", url, resp.Status, out["error"])}
	}
	return out, nil
}

// statusError marks a request the server answered with a non-200
// status: the transport worked, the engine rejected the request.
type statusError struct{ msg string }

func (e statusError) Error() string { return e.msg }

// flagConfig gathers the workload-shape flags for validation; every
// combination the generator would silently mangle is rejected up front.
type flagConfig struct {
	writeFrac   float64
	nearestFrac float64
	nearestK    int
	vecDim      int
	vecMetric   string
	vecRadius   float64
}

// validate rejects the flag combinations that would otherwise produce a
// nonsense workload: out-of-range or NaN fractions, a non-positive
// NEAREST k (the server rejects k < 1 per request, so every read would
// 400), a negative vector dimension, an unregistered metric name, and a
// non-finite or non-positive vector radius (NaN slips through plain
// range checks — every comparison with NaN is false — and ±Inf turns
// WITHIN into a full-table dump or a constant miss).
func (c flagConfig) validate() error {
	if err := validateFrac("-write-frac", c.writeFrac); err != nil {
		return err
	}
	if err := validateFrac("-nearest-frac", c.nearestFrac); err != nil {
		return err
	}
	if c.nearestK <= 0 {
		return fmt.Errorf("-nearest-k must be >= 1, got %d", c.nearestK)
	}
	if c.vecDim < 0 {
		return fmt.Errorf("-vec-dim must be >= 0, got %d", c.vecDim)
	}
	if c.vecDim > 0 {
		if _, ok := metric.Lookup(c.vecMetric); !ok {
			return fmt.Errorf("-vec-metric %q is not a registered metric (have: %s)",
				c.vecMetric, strings.Join(metric.Names(), ", "))
		}
		if math.IsNaN(c.vecRadius) || math.IsInf(c.vecRadius, 0) || c.vecRadius <= 0 {
			return fmt.Errorf("-vec-radius must be a finite positive number, got %g", c.vecRadius)
		}
	}
	return nil
}

// validateFrac checks that a workload-mix fraction lies in [0,1]. NaN
// is rejected explicitly: it slips through a plain `< 0 || > 1` range
// check (every comparison with NaN is false) and would silently skew
// the read/write interleave arithmetic.
func validateFrac(name string, v float64) error {
	if math.IsNaN(v) || v < 0 || v > 1 {
		return fmt.Errorf("%s must be in [0,1], got %g", name, v)
	}
	return nil
}

// failUsage reports a flag-validation error with the usage text and
// exits non-zero (2, matching flag.Parse's own exit code for bad
// flags).
func failUsage(err error) {
	fmt.Fprintf(os.Stderr, "simload: %v\n", err)
	flag.Usage()
	os.Exit(2)
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "simload: %v\n", err)
	os.Exit(1)
}
