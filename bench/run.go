package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/relation"
)

// metricDef declares one metric the harness prints. The two lists are
// what BENCHMARK.json must list, name for name and unit for unit; a unit
// test holds them together.
type metricDef struct{ name, unit string }

// endToEndMetrics are measured with tracing off, on every workload.
var endToEndMetrics = []metricDef{
	{"qps", "1/s"},   // successful ops per second; upper quartile of the window's slices
	{"p50_ms", "ms"}, // client-observed latency of read ops; lower quartile of the per-slice medians
	{"p90_ms", "ms"}, // lower quartile of the per-slice 90th percentiles
	{"setup_s", "s"}, // process start -> /healthz -> first answer of every statement shape; median of setupRuns
}

// perLayerMetrics come from the traced run. A metric that does not apply
// to a workload (write_p50_ms on a read-only one, l2_ns_per_vec on
// words) is printed as 0.
var perLayerMetrics = []metricDef{
	{"trace_overhead", "ratio"},      // 1 - traced qps / untraced qps over the same ops
	{"trace_self_coverage", "ratio"}, // sum of span self times / sum of root span durations
	{"write_p50_ms", "ms"},           // ingest latency (ingest_mix)
	// cmd/simqd
	{"http_overhead_ms", "ms"}, // median(client latency - the reply's elapsed_ms)
	{"resp_bytes_per_op", "B"},
	{"rows_per_op", "count"},
	// internal/query
	{"parse_us", "us"},
	{"parse_plan_us", "us"},
	{"exec_us", "us"},
	{"plan_cache_hit_ratio", "ratio"},
	{"candidates_per_op", "count"},
	{"verifications_per_op", "count"},
	{"rows_per_verification", "ratio"},
	// internal/index
	{"index_probe_us", "us"},
	{"index_nodes_per_probe", "count"},
	{"index_verifs_per_probe", "count"},
	// internal/editdp, internal/metric
	{"myers_ns_per_cand", "ns"},
	{"l2_ns_per_vec", "ns"},
	{"l2_bytes_per_vec", "B"},
	// internal/relation
	{"scan_ns_per_row", "ns"},
	{"insert_us", "us"},
	// internal/storage
	{"commit_us", "us"},
	{"wal_bytes_per_user_byte", "ratio"},
	{"checkpoint_s", "s"},
	{"recovery_s", "s"},
	// internal/tsdb, internal/rtree, internal/dft
	{"dft_feature_us", "us"},
	{"ts_nodes_per_query", "count"},
	{"ts_candidates_per_answer", "ratio"},
	{"ts_scan_over_index", "ratio"},
}

// workCounters repeat exactly between two runs of one seed on a
// read-only workload; the suite asserts it.
var workCounters = []string{"candidates_per_op", "verifications_per_op", "wal_bytes_per_user_byte"}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metricValue

// newMetrics returns every metric of defs at 0.
func newMetrics(defs []metricDef) metrics {
	m := metrics{}
	for _, d := range defs {
		m[d.name] = metricValue{Unit: d.unit}
	}
	return m
}

func (m metrics) set(name string, v float64) {
	mv, ok := m[name]
	if !ok {
		panic("undeclared metric " + name)
	}
	mv.Value = v
	m[name] = mv
}

// runResult is one run of one workload. The first four fields are the
// line the driver reads; the rest goes to the report and the -out file.
type runResult struct {
	Correct     bool               `json:"correct"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Metrics     metrics            `json:"metrics"`
	Diagnostics map[string]float64 `json:"diagnostics,omitempty"`
	Errors      []string           `json:"errors,omitempty"`
}

func (r *runResult) fail(n int, format string, args ...any) {
	r.Failed += n
	if len(r.Errors) < 10 {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

// setupRuns is how many times a run sets the workload up; setup_s is the
// median, because one process start is too noisy to gate on.
const setupRuns = 5

// oracleSample is how many read ops of a replay the brute-force oracle
// recomputes. They are drawn from the first quarter of the sequence,
// which both the traced and the untraced replay are sure to cover.
const oracleSample = 24

// prepareData generates and loads the workload's datasets and builds
// its request sequence from seed.
func (e *env) prepareData(w *httpWorkload, seed int64) (map[string]*relation.Relation, *sequence, error) {
	rels := map[string]*relation.Relation{}
	for _, d := range w.data {
		if err := d.generate(e); err != nil {
			return nil, nil, err
		}
		rel, err := d.load(e)
		if err != nil {
			return nil, nil, err
		}
		rels[d.rel] = rel
	}
	seq, err := w.build(rand.New(rand.NewSource(seed)), rels, w.seqLen)
	return rels, seq, err
}

// oracleKeep draws the sequence indices whose replies the oracle checks.
func oracleKeep(seq *sequence, seed int64) map[int]bool {
	rng := rand.New(rand.NewSource(seed ^ 0x6f7261636c65))
	keep := map[int]bool{}
	quarter := len(seq.ops) / 4
	for tries := 0; len(keep) < min(oracleSample, quarter) && tries < 100*oracleSample; tries++ {
		if i := rng.Intn(quarter); !seq.ops[i].write {
			keep[i] = true
		}
	}
	return keep
}

// tally folds a replay's own failures into res.
func tally(res *runResult, rp replayResult) {
	res.Attempted += len(rp.recs) + rp.unsent
	res.Failed += len(rp.recs) - okOps(rp.recs)
	res.Errors = append(res.Errors, rp.errs...)
	if rp.unsent > 0 {
		res.fail(rp.unsent, "%d ops not finished within %s", rp.unsent, replayDeadline)
	}
}

// judge runs the oracle over the replies the replays kept.
func judge(res *runResult, seq *sequence, kept map[int][]byte) {
	if len(kept) == 0 {
		res.fail(1, "no reply reached the oracle")
	}
	for _, idx := range sortedKeys(kept) {
		var r reply
		if err := json.Unmarshal(kept[idx], &r); err != nil {
			res.fail(1, "op %d: reply does not decode: %v", idx, err)
		} else if err := seq.check(seq.ops[idx], &r); err != nil {
			res.fail(1, "op %d (%s): oracle: %v", idx, seq.literal(seq.ops[idx]), err)
		}
	}
	res.Diagnostics["oracle_checked"] = float64(len(kept))
}

// latencies returns the sorted millisecond latencies of the successful
// reads (or writes) of a replay.
func latencies(recs []rec, write bool) []float64 {
	var out []float64
	for _, rc := range recs {
		if rc.ok && rc.write == write {
			out = append(out, float64(rc.lat)/1e6)
		}
	}
	sort.Float64s(out)
	return out
}

func okOps(recs []rec) int {
	n := 0
	for _, rc := range recs {
		if rc.ok {
			n++
		}
	}
	return n
}

// slicesPerPart is how many equal slices each part of an HTTP workload's
// measured window (one server instance's share) is cut into. Each gated metric is
// read per slice, and the run reports the quartile on the good side of
// the per-slice values: on a shared two-core box a neighbour, a
// collection or a slow instance only ever makes a slice slower, so the
// good quartile repeats between runs where the median slice does not. A
// real regression moves every slice and so moves the quartile with it.
const slicesPerPart = 4

// endToEnd fills the gated throughput and latency metrics from the ops
// that completed inside the window — parts of length part laid end to
// end — and the ungated tail as diagnostics: p99 and max do not repeat
// within a tenth between identical runs on two cores, so they are
// printed, not bounded.
func endToEnd(res *runResult, recs []rec, part time.Duration, parts, perPart int64) {
	slices := parts * perPart
	per := part.Nanoseconds() / perPart
	done := make([]float64, slices)
	lats := make([][]float64, slices)
	for _, rc := range recs {
		i := (rc.start + rc.lat) / per
		// An op that outlives its part belongs to no slice: the next part's
		// first slice must not be credited with it.
		if !rc.ok || i >= slices || i/perPart != rc.start/part.Nanoseconds() {
			continue
		}
		done[i]++
		if !rc.write {
			lats[i] = append(lats[i], float64(rc.lat)/1e6)
		}
	}
	var qps, p50, p90 []float64
	for i := range done {
		qps = append(qps, done[i]/(float64(per)/1e9))
		sort.Float64s(lats[i])
		p50 = append(p50, percentile(lats[i], 50))
		p90 = append(p90, percentile(lats[i], 90))
	}
	sort.Float64s(qps)
	sort.Float64s(p50)
	sort.Float64s(p90)
	res.Metrics.set("qps", percentile(qps, 75))
	res.Metrics.set("p50_ms", percentile(p50, 25))
	res.Metrics.set("p90_ms", percentile(p90, 25))

	reads := latencies(recs, false)
	tail := tailPercentile(len(reads))
	res.Diagnostics["read_samples"] = float64(len(reads))
	res.Diagnostics["p99_ms"] = percentile(reads, 99)
	res.Diagnostics["max_ms"] = percentile(reads, 100)
	res.Diagnostics["tail_percentile"] = tail
	res.Diagnostics["tail_ms"] = percentile(reads, tail)
	if writes := latencies(recs, true); len(writes) > 0 {
		res.Diagnostics["write_samples"] = float64(len(writes))
		res.Diagnostics["write_p50_ms"] = percentile(writes, 50)
	}
}

// runHTTP is one untraced run of an HTTP workload. The window is shared
// out over setupRuns fresh servers: each is set up (timed), warmed up and
// replayed for its share, continuing the sequence where the last one
// stopped. One process instance differs from the next by a few percent
// for its whole life (heap layout, where the scheduler put it), which no
// amount of measuring inside it averages out; reading the metrics across
// instances does (see endToEnd).
func (e *env) runHTTP(w *httpWorkload, seed int64, window time.Duration) (*runResult, error) {
	_, seq, err := e.prepareData(w, seed)
	if err != nil {
		return nil, err
	}
	res := &runResult{Metrics: newMetrics(endToEndMetrics), Diagnostics: map[string]float64{}}
	share := window / setupRuns
	keep, kept := oracleKeep(seq, seed), map[int][]byte{}
	var setups []float64
	var recs []rec
	first := 0
	for i := 0; i < setupRuns; i++ {
		s, took, err := openSession(e, w, seq)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
		if err := s.warm(first); err != nil {
			return nil, s.fail(err)
		}
		rp := s.replay(replayOpts{first: first, window: share, keep: keep, kept: kept})
		tally(res, rp)
		for _, rc := range rp.recs {
			rc.start += int64(i) * share.Nanoseconds() // lay the instances end to end
			recs = append(recs, rc)
		}
		first += len(rp.recs)
		if w.wal && i == setupRuns-1 {
			if _, err := s.durability(e); err != nil {
				res.fail(1, "durability: %v", err)
			}
		}
		s.close()
		if res.Failed > 0 {
			res.Errors = append(res.Errors, "server stderr:\n"+s.srv.stderr.String())
			break
		}
	}
	judge(res, seq, kept)
	res.Metrics.set("setup_s", median(setups))
	endToEnd(res, recs, share, setupRuns, slicesPerPart)
	res.finish()
	return res, nil
}

// finish derives the verdict and the error rate from the counts.
func (r *runResult) finish() {
	r.Correct = r.Failed == 0
	r.Diagnostics["error_rate"] = float64(r.Failed) / float64(max(r.Attempted, 1))
}

// traceHTTP is the traced run: one set-up, then the first quarter of
// the sequence twice — once as the untraced run issues it, once with
// every reply decoded and a span pair recorded per request — and then
// the in-process layer probes.
func (e *env) traceHTTP(w *httpWorkload, seed int64, traceOut string) (*runResult, error) {
	rels, seq, err := e.prepareData(w, seed)
	if err != nil {
		return nil, err
	}
	res := &runResult{Metrics: newMetrics(perLayerMetrics), Diagnostics: map[string]float64{}}
	s, _, err := openSession(e, w, seq)
	if err != nil {
		return nil, err
	}
	defer s.close()
	if err := s.warm(0); err != nil {
		return nil, s.fail(err)
	}
	quarter := len(seq.ops) / 4
	keep := oracleKeep(seq, seed)
	kept := map[int][]byte{}
	plain := s.replay(replayOpts{count: quarter, keep: keep, kept: kept})
	tally(res, plain)
	judge(res, seq, kept)
	tr := newTracer()
	clear(kept)
	traced := s.replay(replayOpts{count: quarter, keep: keep, kept: kept, decode: true, tr: tr})
	tally(res, traced)
	judge(res, seq, kept)

	m := res.Metrics
	plainQPS := float64(okOps(plain.recs)) / plain.wall.Seconds()
	tracedQPS := float64(okOps(traced.recs)) / traced.wall.Seconds()
	m.set("trace_overhead", 1-tracedQPS/plainQPS)
	res.Diagnostics["traced_ops"] = float64(len(traced.recs))
	res.Diagnostics["traced_qps"] = tracedQPS
	var overhead []float64
	var reads, bytes, rows, cand, verif, hits float64
	for _, rc := range traced.recs {
		if !rc.ok || rc.write {
			continue
		}
		reads++
		overhead = append(overhead, float64(rc.lat)/1e6-rc.elapsedMS)
		bytes += float64(rc.bytes)
		rows += float64(rc.rows)
		cand += float64(rc.cand)
		verif += float64(rc.verif)
		if rc.hit {
			hits++
		}
	}
	if reads > 0 {
		m.set("http_overhead_ms", median(overhead))
		m.set("resp_bytes_per_op", bytes/reads)
		m.set("rows_per_op", rows/reads)
		m.set("candidates_per_op", cand/reads)
		m.set("verifications_per_op", verif/reads)
		m.set("plan_cache_hit_ratio", hits/reads)
	}
	if verif > 0 {
		m.set("rows_per_verification", rows/verif)
	}
	if writes := latencies(traced.recs, true); len(writes) > 0 {
		m.set("write_p50_ms", percentile(writes, 50))
	}
	if w.wal {
		recovery, err := s.durability(e)
		if err != nil {
			res.fail(1, "durability: %v", err)
		}
		m.set("recovery_s", recovery.Seconds())
	}
	s.close()
	if err := e.probeLayers(w, seq, rels, tr, m); err != nil {
		return nil, err
	}
	m.set("trace_self_coverage", selfCoverage(tr.spans))
	if err := tr.write(traceOut); err != nil {
		return nil, err
	}
	res.finish()
	if res.Failed > 0 {
		res.Errors = append(res.Errors, "server stderr:\n"+s.srv.stderr.String())
	}
	return res, nil
}

// durability closes ingest_mix. While both clients are still writing,
// simqd is killed with SIGKILL and restarted on the same -wal; every
// acknowledged row must be back under its id, and every row that is back
// must be one the harness sent. Returns the restart time: process start
// to the answer of the query that reads the ingested rows back. The kill
// takes the process only — the operating system's cache survives, so
// this checks the WAL protocol, not the disk.
func (s *session) durability(e *env) (time.Duration, error) {
	var writers sync.WaitGroup
	for c := 0; c < clients; c++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			var buf bytes.Buffer
			for i := 0; i < 200; i++ {
				if _, err := s.do(op{stmt: -1, write: true}, &buf, nil); err != nil {
					return // the server was killed under this write, on purpose
				}
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	s.srv.kill()
	writers.Wait()

	srv, err := e.startServer(s.client, s.srv.args...)
	if err != nil {
		return 0, fmt.Errorf("restart: %w", err)
	}
	defer srv.kill()
	var buf bytes.Buffer
	body := mustJSON(map[string]string{"query": `SELECT id, seq FROM words WHERE src = "bench"`})
	if err := post(s.client, srv.base+"/v1/query", body, &buf); err != nil {
		return 0, fmt.Errorf("read back: %w", err)
	}
	recovery := time.Since(srv.started)
	var r reply
	if err := json.Unmarshal(buf.Bytes(), &r); err != nil {
		return 0, fmt.Errorf("read back: %w", err)
	}
	back := map[string]string{} // id -> seq
	words := map[string]bool{}
	for _, row := range r.Rows {
		if len(row) != 2 {
			return 0, fmt.Errorf("read back: row %v", row)
		}
		if !s.sent[row[1]] || words[row[1]] {
			return 0, fmt.Errorf("row %s %q is readable after restart but was never sent, or is there twice", row[0], row[1])
		}
		back[row[0]], words[row[1]] = row[1], true
	}
	for id, word := range s.acked {
		if back[strconv.Itoa(id)] != word {
			return 0, fmt.Errorf("acknowledged row %d %q is not readable after restart (found %q)", id, word, back[strconv.Itoa(id)])
		}
	}
	return recovery, nil
}
