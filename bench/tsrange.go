package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"time"

	"repro/internal/stock"
	"repro/internal/tsdb"
)

// ts_range is the paper's own experiment: range queries under a safe
// transformation (the 20-day moving average) answered through the
// k-index, with the transformation applied to the index on the fly. tsdb
// is not reachable through simqd, so the workload runs in-process with
// one caller; it is the only one that runs internal/dft ->
// rtree.SearchTransformed -> exact verification.
const (
	tsName    = "ts_range"
	tsWhy     = "the paper's experiment, in-process: 12000 random walks x 128 under MovingAvg(128, 20) via the DFT k-index; the only workload through dft, rtree and tsdb"
	tsSeries  = 12000
	tsLength  = 128
	tsK       = 2   // DFT coefficients kept in the index, as internal/exp
	tsWindow  = 20  // moving-average length
	tsEps     = 2.0 // answers exist from about 1.5 up (see newTSWorkload); at 2.0 the median query has one, the largest a few dozen
	tsQueries = 2000
)

type tsWorkload struct {
	series  [][]float64
	queries [][]float64
	mavg    *tsdb.Transform
}

// newTSWorkload derives the queries from seed; the series are fixed (see
// dataSeed). Query cost is heavy-tailed — the candidates an R*-tree
// probe returns range from none to thousands with where the query falls
// — so a random draw of targets would make one seed's pool dearer than
// another's by several percent. Every seed therefore queries the same
// panel, every (tsSeries/tsQueries)-th series; the seed sets their order
// and their noise. A query
// is the circular 20-day moving average of a stored series plus noise:
// "which series, once smoothed, look like this smoothed series". tsdb
// compares T(X) with the query's normal form, which has unit variance
// while a smoothed series has less, so even a query's own source sits
// about 1.5 away; tsEps is chosen just above that floor.
func newTSWorkload(seed int64) (*tsWorkload, error) {
	mavg, err := tsdb.MovingAvg(tsLength, tsWindow)
	if err != nil {
		return nil, err
	}
	series := stock.Walks(dataSeed, tsSeries, tsLength)
	rng := rand.New(rand.NewSource(seed))
	panel := make([][]float64, tsQueries)
	for i, j := range rng.Perm(tsQueries) {
		panel[i] = series[j*(tsSeries/tsQueries)]
	}
	queries := perturbSeries(rng, panel)
	for i, q := range queries {
		if queries[i], err = tsdb.MovingAverage(q, tsWindow); err != nil {
			return nil, err
		}
	}
	return &tsWorkload{series: series, queries: queries, mavg: mavg}, nil
}

// setup is the workload's set-up: Add x N, then Build.
func (w *tsWorkload) setup() (*tsdb.DB, time.Duration, error) {
	start := time.Now()
	db, err := tsdb.New(tsK)
	if err != nil {
		return nil, 0, err
	}
	for _, s := range w.series {
		if _, err := db.Add(s); err != nil {
			return nil, 0, err
		}
	}
	if err := db.Build(); err != nil {
		return nil, 0, err
	}
	return db, time.Since(start), nil
}

// check is the no-false-dismissal oracle: the index answers with exactly
// the ids the sequential scan finds.
func (w *tsWorkload) check(db *tsdb.DB, q []float64, got []tsdb.Match) error {
	want, _, err := db.RangeScan(q, w.mavg, tsEps)
	if err != nil {
		return err
	}
	ids := func(ms []tsdb.Match) []int {
		out := make([]int, len(ms))
		for i, m := range ms {
			out[i] = m.ID
		}
		sort.Ints(out)
		return out
	}
	if g, s := ids(got), ids(want); !slices.Equal(g, s) {
		return fmt.Errorf("RangeIndex ids %v, RangeScan ids %v", g, s)
	}
	return nil
}

// replay issues queries from position first until count or window runs
// out, recording one rec per query, and checks every keepEvery-th answer.
func (w *tsWorkload) replay(db *tsdb.DB, res *runResult, first, count int, window time.Duration, tr *tracer) ([]rec, []tsdb.Stats, time.Duration) {
	const keepEvery = 97
	var recs []rec
	var stats []tsdb.Stats
	type kept struct {
		pos int
		got []tsdb.Match
	}
	var keep []kept
	begin := time.Now()
	for pos := 0; (count == 0 || pos < count) && (window == 0 || time.Since(begin) < window); pos++ {
		q := w.queries[(first+pos)%len(w.queries)]
		start := time.Now()
		got, st, err := db.RangeIndex(q, w.mavg, tsEps)
		end := time.Now()
		recs = append(recs, rec{start: start.Sub(begin).Nanoseconds(), lat: end.Sub(start).Nanoseconds(),
			ok: err == nil, rows: len(got)})
		stats = append(stats, st)
		if tr != nil {
			tr.add("tsdb.range_index", start, end, -1, pos)
		}
		if err != nil {
			res.fail(0, "query %d: %v", pos, err)
		} else if pos%keepEvery == 0 && len(keep) < oracleSample {
			keep = append(keep, kept{first + pos, got})
		}
	}
	wall := time.Since(begin)
	res.Attempted += len(recs)
	res.Failed += len(recs) - okOps(recs)
	for _, k := range keep {
		if err := w.check(db, w.queries[k.pos%len(w.queries)], k.got); err != nil {
			res.fail(1, "query %d: oracle: %v", k.pos, err)
		}
	}
	res.Diagnostics["oracle_checked"] += float64(len(keep))
	return recs, stats, wall
}

// warm runs a few queries so the first measured one does not pay for
// cold caches and lazily sized buffers.
func (w *tsWorkload) warm(db *tsdb.DB) error {
	for _, q := range w.queries[len(w.queries)-50:] {
		if _, _, err := db.RangeIndex(q, w.mavg, tsEps); err != nil {
			return err
		}
	}
	return nil
}

// runTS is the untraced run. Like runHTTP it shares the window out over
// its set-ups, here setupRuns freshly built DBs.
func runTS(seed int64, window time.Duration) (*runResult, error) {
	w, err := newTSWorkload(seed)
	if err != nil {
		return nil, err
	}
	res := &runResult{Metrics: newMetrics(endToEndMetrics), Diagnostics: map[string]float64{}}
	share := window / setupRuns
	var setups []float64
	var all []rec
	for i := 0; i < setupRuns; i++ {
		db, took, err := w.setup()
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
		if err := w.warm(db); err != nil {
			return nil, err
		}
		// The previous DB is garbage by now; collect it here, not while
		// the next share is being timed.
		runtime.GC()
		recs, _, _ := w.replay(db, res, len(all), 0, share, nil)
		for _, rc := range recs {
			rc.start += int64(i) * share.Nanoseconds()
			all = append(all, rc)
		}
	}
	res.Metrics.set("setup_s", median(setups))
	endToEnd(res, all, share, setupRuns, 1)
	res.finish()
	return res, nil
}

func traceTS(seed int64, traceOut string) (*runResult, error) {
	w, err := newTSWorkload(seed)
	if err != nil {
		return nil, err
	}
	res := &runResult{Metrics: newMetrics(perLayerMetrics), Diagnostics: map[string]float64{}}
	db, _, err := w.setup()
	if err != nil {
		return nil, err
	}
	if err := w.warm(db); err != nil {
		return nil, err
	}
	quarter := len(w.queries) / 4
	plain, _, plainWall := w.replay(db, res, 0, quarter, 0, nil)
	tr := newTracer()
	traced, stats, tracedWall := w.replay(db, res, 0, quarter, 0, tr)
	m := res.Metrics
	plainQPS := float64(okOps(plain)) / plainWall.Seconds()
	tracedQPS := float64(okOps(traced)) / tracedWall.Seconds()
	m.set("trace_overhead", 1-tracedQPS/plainQPS)
	res.Diagnostics["traced_ops"] = float64(len(traced))
	res.Diagnostics["traced_qps"] = tracedQPS

	var nodes, cands, answers float64
	for i, st := range stats {
		nodes += float64(st.NodeAccesses)
		cands += float64(st.Candidates)
		answers += float64(traced[i].rows)
	}
	m.set("ts_nodes_per_query", nodes/float64(len(stats)))
	m.set("rows_per_op", answers/float64(len(stats)))
	if answers > 0 {
		m.set("ts_candidates_per_answer", cands/answers)
	}

	// The paper's headline ratio, on a sample small enough for the scan.
	const scanSample = 32
	for i := 0; i < scanSample; i++ {
		q := w.queries[i]
		tr.timed("tsdb.range_scan", -1, i, func() { _, _, err = db.RangeScan(q, w.mavg, tsEps) })
		if err != nil {
			return nil, err
		}
		tr.timed("tsdb.feature_point", -1, i, func() { _, _, _, _, err = tsdb.FeaturePoint(q, tsK) })
		if err != nil {
			return nil, err
		}
	}
	m.set("ts_scan_over_index", median(tr.durationsUS("tsdb.range_scan"))/median(tr.durationsUS("tsdb.range_index")))
	m.set("dft_feature_us", median(tr.durationsUS("tsdb.feature_point")))
	m.set("trace_self_coverage", selfCoverage(tr.spans))
	if err := tr.write(traceOut); err != nil {
		return nil, err
	}
	res.finish()
	return res, nil
}
