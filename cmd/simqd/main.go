// Command simqd is the similarity query server: it loads relations and
// rule sets once, then serves prepared and ad-hoc queries — and, with a
// WAL attached, concurrent writes — over HTTP/JSON. It is the
// long-lived counterpart of the cmd/simq shell — the process that makes
// the engine's statement cache and MVCC snapshots pay off under
// sustained mixed traffic.
//
// Usage:
//
//	simqd -addr :8077 -load words=words.rel [-rules edits.rules]
//	      [-wal data.wal] [-wal-sync=false] [-timeout 10s]
//
// Endpoints (wrong-method requests on any of them answer 405). The API
// lives under /v1/ only; the bare pre-v1 paths answer 404:
//
//	POST /v1/query       {"query": "...", "params": [...]}      run a statement (SELECT or DML)
//	                     {"id": "p1", "params": [...]}          run a prepared statement
//	                     {"named": {"k": v}}                    named parameters
//	                     {"timeout_ms": 500}                    per-request deadline override
//	POST /v1/prepare     {"query": "... ? ..."}                 compile, returns {"id", "params", "names"}
//	POST /v1/explain     {"query": "...", "params": [...]}      plan without executing
//	POST /v1/ingest      {"relation": "words", "rows": [{"seq": "...", "vec": "[0.1,0.2]", "attrs": {...}}]}
//	                                                            batch insert (one WAL commit)
//	POST /v1/checkpoint                                         snapshot + WAL truncation on demand
//	GET  /v1/stats                                              server, plan-cache, runtime and write counters
//	GET  /healthz                                               liveness (unversioned: infrastructure probe)
//	GET  /metrics                                               Prometheus text exposition (unversioned: scrape target)
//
// Every error answers the same JSON envelope regardless of endpoint:
// {"error": "...", "code": "bad_request|timeout|precondition_failed|internal|...",
// "trace_id": "..."} — the trace_id matches the X-Trace-Id response
// header, so a client error report names the exact server-side request.
//
// Observability: every /v1/query, /v1/explain and /v1/ingest response
// carries an X-Trace-Id header (also echoed as "trace_id" in the
// /v1/query body).
// With -pprof the net/http/pprof handlers mount under /debug/pprof/.
// With -slow-query-ms N engine tracing turns on and any query at or
// over N milliseconds is logged to stderr as one JSON line carrying the
// statement, bound parameters, chosen plan and the executed span tree —
// the same tree EXPLAIN ANALYZE renders.
//
// With -wal every mutation (DML through /v1/query and batches through
// /v1/ingest) is logged before it is applied, and a restarted server
// replays the log over the -load base state. Without -wal mutations are
// in-memory only.
//
// The server shuts down gracefully on SIGINT/SIGTERM: listeners close,
// in-flight requests get a drain window, then the process exits. Each
// statement runs on its request's goroutine. A read runs under a
// deadline (-timeout, optionally tightened per request), which the
// engine checks per block, length band, vector-view node and join
// outer row, so a read past its deadline stops within one of them: one
// that has written no rows yet answers 504, and nothing of it runs on.
// /v1/query streams its rows block by block, so a reply that fails
// after its first block keeps status 200 and ends with the error
// envelope's fields (reply.go). DML requests are exempt: a write runs
// to completion so the response always tells the truth about whether
// the commit happened.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/metric"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/rewrite"
	"repro/internal/storage"
)

type listFlag []string

func (l *listFlag) String() string     { return strings.Join(*l, ",") }
func (l *listFlag) Set(v string) error { *l = append(*l, v); return nil }

func main() {
	addr := flag.String("addr", ":8077", "listen address")
	var loads, ruleFiles listFlag
	flag.Var(&loads, "load", "NAME=FILE relation to load (repeatable)")
	flag.Var(&ruleFiles, "rules", "rule file to register (repeatable)")
	timeout := flag.Duration("timeout", 10*time.Second, "default per-request execution deadline")
	drain := flag.Duration("drain", 5*time.Second, "graceful-shutdown drain window")
	cacheSize := flag.Int("plan-cache", 512, "statement cache capacity (0 disables)")
	parallelism := flag.Int("parallelism", 0, "worker count for parallel plans (0 = GOMAXPROCS)")
	maxPrepared := flag.Int("max-prepared", 1024, "prepared-statement registry capacity (oldest evicted past it)")
	walPath := flag.String("wal", "", "write-ahead log file (empty = in-memory mutations only)")
	walSync := flag.Bool("wal-sync", true, "fsync the WAL on every commit (batched across concurrent commits by group commit)")
	groupCommit := flag.Bool("group-commit", true, "batch concurrent commit fsyncs into one (only meaningful with -wal-sync)")
	ckptInterval := flag.Duration("checkpoint-interval", 0, "write a snapshot checkpoint (and truncate the WAL) this often; 0 disables the timer")
	ckptWALMB := flag.Int("checkpoint-wal-mb", 0, "checkpoint when the WAL grows past this many MiB (checked every 15s); 0 disables the size trigger")
	pprofOn := flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/")
	slowQueryMS := flag.Int("slow-query-ms", 0, "log a structured JSON line (with the span tree) for queries slower than this; 0 disables. Enables engine tracing.")
	flag.Parse()
	opts := []query.Option{query.WithPlanCacheSize(*cacheSize)}
	if *parallelism > 0 {
		opts = append(opts, query.WithParallelism(*parallelism))
	}
	eng, err := buildEngine(loads, ruleFiles, opts...)
	if err != nil {
		fail(err)
	}
	var st *storage.Store
	if *walPath != "" {
		st, err = storage.Open(*walPath, eng.Catalog())
		if err != nil {
			fail(err)
		}
		st.SetSync(*walSync)
		st.SetGroupCommit(*groupCommit)
		eng.SetStore(st)
		m := st.Metrics()
		fmt.Fprintf(os.Stderr, "simqd: WAL %s replayed %d tx / %d ops\n",
			*walPath, m.ReplayedTx, m.ReplayedOp)
	}
	stopCkpt := startCheckpointer(st, *ckptInterval, *ckptWALMB)
	defer stopCkpt()

	if *slowQueryMS > 0 {
		// The slow-query log needs the span tree, which is only collected
		// while engine tracing is on; the overhead benchmark bounds the
		// cost at a few percent on a mixed workload.
		eng.SetTracing(true)
	}
	registerProcessGauges(eng.Catalog())

	s := &server{
		eng: eng, store: st, timeout: *timeout, started: time.Now(),
		maxPrepared: *maxPrepared,
		prepared:    map[string]*query.PreparedQuery{},
		pprofOn:     *pprofOn,
		slowQueryMS: *slowQueryMS,
		slowLog:     os.Stderr,
	}

	srv := &http.Server{Addr: *addr, Handler: s.routes()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "simqd: serving on %s (%d relations, %d rule sets)\n",
		*addr, len(eng.Catalog().Names()), len(eng.RuleSets()))

	select {
	case err := <-errc:
		fail(err)
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "simqd: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintf(os.Stderr, "simqd: drain incomplete: %v\n", err)
	}
	if st != nil {
		if err := st.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "simqd: WAL close: %v\n", err)
		}
	}
}

// buildEngine loads relations and rule sets the same way cmd/simq does;
// with no -rules files a default unit-edit set "edits" over a-z is
// registered.
func buildEngine(loads, ruleFiles []string, opts ...query.Option) (*query.Engine, error) {
	cat := relation.NewCatalog()
	for _, spec := range loads {
		eq := strings.IndexByte(spec, '=')
		if eq < 0 {
			return nil, fmt.Errorf("-load wants NAME=FILE, got %q", spec)
		}
		name, file := spec[:eq], spec[eq+1:]
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		rel, err := relation.Load(name, f)
		f.Close()
		if err != nil {
			return nil, err
		}
		cat.Add(rel)
		fmt.Fprintf(os.Stderr, "simqd: loaded %s: %d tuples\n", name, rel.Len())
	}
	eng := query.NewEngine(cat, opts...)
	if len(ruleFiles) == 0 {
		rs := rewrite.MustRuleSet("edits", rewrite.UnitEdits("abcdefghijklmnopqrstuvwxyz").Rules())
		if err := eng.RegisterRuleSet(rs); err != nil {
			return nil, err
		}
	}
	for _, file := range ruleFiles {
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		rs, err := rewrite.ParseRuleSet(strings.TrimSuffix(file, ".rules"), f)
		f.Close()
		if err != nil {
			return nil, err
		}
		if err := eng.RegisterRuleSet(rs); err != nil {
			return nil, err
		}
	}
	return eng, nil
}

// startCheckpointer runs the background checkpoint policy: a periodic
// snapshot every interval, plus a WAL-size trigger checked on a fixed
// 15-second cadence (a size check is one mutex-guarded counter read —
// cheap enough to poll, and a crash loses at most the poll window of
// extra replay work). Returns a stop function; no-op when the store is
// nil or both triggers are disabled.
func startCheckpointer(st *storage.Store, interval time.Duration, walMB int) func() {
	if st == nil || (interval <= 0 && walMB <= 0) {
		return func() {}
	}
	tick := interval
	if tick <= 0 || (walMB > 0 && tick > 15*time.Second) {
		tick = 15 * time.Second
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(tick)
		defer t.Stop()
		last := time.Now()
		for {
			select {
			case <-done:
				return
			case <-t.C:
			}
			due := interval > 0 && time.Since(last) >= interval
			if !due && walMB > 0 {
				due = st.Metrics().WALBytes >= int64(walMB)<<20
			}
			if !due {
				continue
			}
			info, err := st.Checkpoint()
			if err != nil {
				fmt.Fprintf(os.Stderr, "simqd: checkpoint failed: %v\n", err)
				continue
			}
			last = time.Now()
			fmt.Fprintf(os.Stderr, "simqd: checkpoint lsn=%d rows=%d bytes=%d in %s\n",
				info.LSN, info.Rows, info.Bytes, info.Duration.Round(time.Millisecond))
		}
	}()
	return func() { close(done); wg.Wait() }
}

// server carries the shared engine plus serving state. The engine is
// safe for concurrent queries and mutations; the prepared-statement
// registry has its own lock.
type server struct {
	eng         *query.Engine
	store       *storage.Store // nil when running without a WAL
	timeout     time.Duration
	started     time.Time
	maxPrepared int
	pprofOn     bool
	slowQueryMS int       // log queries slower than this (0 = off)
	slowLog     io.Writer // slow-query JSON destination (stderr in main)

	mu       sync.RWMutex
	prepared map[string]*query.PreparedQuery
	order    []string // prepared ids, oldest first, for eviction
	nextID   int64

	requests atomic.Int64
	errors   atomic.Int64
	timeouts atomic.Int64
	inFlight atomic.Int64
	writes   atomic.Int64 // /v1/ingest requests served
	ingested atomic.Int64 // rows inserted through /v1/ingest
	traceSeq atomic.Int64 // per-process trace-id sequence
	slowMu   sync.Mutex   // serializes slow-query log lines
}

// newTraceID mints a per-request trace id: a process-wide sequence plus
// the server start time, so ids are unique across restarts in the same
// log stream.
func (s *server) newTraceID() string {
	return fmt.Sprintf("%x-%d", s.started.UnixNano(), s.traceSeq.Add(1))
}

// trace mints the request's trace id and sets the X-Trace-Id response
// header; every handler calls it first so success and error bodies
// alike can echo the id.
func (s *server) trace(w http.ResponseWriter) string {
	id := s.newTraceID()
	w.Header().Set("X-Trace-Id", id)
	return id
}

// routes registers every endpoint with Go 1.22 method patterns, so a
// wrong-method request on a registered path answers 405 Method Not
// Allowed (with an Allow header) instead of 404. The API endpoints
// mount under /v1/; /healthz and /metrics stay unversioned on purpose —
// probes and scrape configs address the process, not the API revision.
func (s *server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/query", s.handleQuery)
	mux.HandleFunc("POST /v1/prepare", s.handlePrepare)
	mux.HandleFunc("POST /v1/explain", s.handleExplain)
	mux.HandleFunc("POST /v1/ingest", s.handleIngest)
	mux.HandleFunc("POST /v1/checkpoint", s.handleCheckpoint)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	if s.pprofOn {
		// The default pprof mux entries, mounted explicitly so the flag
		// gates them (importing net/http/pprof for its side effect would
		// expose them unconditionally on DefaultServeMux).
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// handleMetrics serves the process-wide registry in the Prometheus text
// exposition format.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	obs.Default.WritePrometheus(w)
}

// registerProcessGauges registers scrape-time callback gauges for
// runtime health and catalog populations. Safe to call more than once
// (re-registration replaces the callback).
func registerProcessGauges(cat *relation.Catalog) {
	obs.Default.GaugeFunc("simq_goroutines",
		"Live goroutines in the serving process.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	obs.Default.GaugeFunc("simq_heap_alloc_bytes",
		"Bytes of allocated heap objects (runtime.MemStats.HeapAlloc).",
		func() float64 {
			var m runtime.MemStats
			runtime.ReadMemStats(&m)
			return float64(m.HeapAlloc)
		})
	obs.Default.GaugeFunc("simq_catalog_rows",
		"Visible rows across all relations in the catalog.",
		func() float64 {
			var n int
			for _, name := range cat.Names() {
				if t, ok := cat.Lookup(name); ok {
					n += t.Stats().Count
				}
			}
			return float64(n)
		})
	obs.Default.GaugeFunc("simq_catalog_vec_rows",
		"Visible rows carrying a vector column across all relations.",
		func() float64 {
			var n int
			for _, name := range cat.Names() {
				if t, ok := cat.Lookup(name); ok {
					n += t.Stats().VecCount
				}
			}
			return float64(n)
		})
	obs.Default.GaugeFunc("simq_catalog_tombstones",
		"Dead rows still occupying arena slots across all relations.",
		func() float64 {
			var n int
			for _, name := range cat.Names() {
				if r, ok := cat.Lookup(name); ok {
					n += r.Tombstones()
				}
			}
			return float64(n)
		})
	obs.Default.GaugeFunc("simq_snapshot_epoch",
		"Highest commit epoch across the catalog's relations.",
		func() float64 {
			var max uint64
			for _, name := range cat.Names() {
				if t, ok := cat.Lookup(name); ok {
					if v := t.Version(); v > max {
						max = v
					}
				}
			}
			return float64(max)
		})
}

// request is the body of /v1/query and /v1/explain.
type request struct {
	Query     string         `json:"query,omitempty"`
	ID        string         `json:"id,omitempty"`
	Params    []any          `json:"params,omitempty"`
	Named     map[string]any `json:"named,omitempty"`
	TimeoutMS int            `json:"timeout_ms,omitempty"`
}

// queryResponse is the /v1/query reply. handleQuery streams it block by
// block (reply.go) rather than marshalling it; the body is byte for
// byte json.Marshal's.
type queryResponse struct {
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	Plan    string     `json:"plan,omitempty"` // EXPLAIN ANALYZE only: the executed span tree
	replyTail
}

// replyTail is what follows the rows of a completed /v1/query reply.
type replyTail struct {
	RowCount  int       `json:"row_count"`
	Stats     statsBody `json:"stats"`
	ElapsedMS float64   `json:"elapsed_ms"`
	TraceID   string    `json:"trace_id"`
}

type statsBody struct {
	Candidates    int  `json:"candidates"`
	Verifications int  `json:"verifications"`
	PlanCacheHit  bool `json:"plan_cache_hit"`
}

// handleQuery runs a statement and streams its rows into the reply as
// the engine produces them (see reply.go for the commit and error
// rules). elapsed_ms spans the execution and the encoding of every row.
func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	traceID := s.trace(w)
	req, ok := s.decode(w, r, traceID)
	if !ok {
		return
	}
	start := time.Now()
	pq, cached, err := s.statement(req)
	if err != nil {
		s.fail(w, traceID, err)
		return
	}
	rw := newReplyWriter(w)
	defer rw.release()
	res, err := s.execute(r.Context(), pq, req, rw)
	if err != nil {
		if !rw.committed {
			s.fail(w, traceID, err)
			return
		}
		_, body := s.failure(traceID, err)
		rw.fail(body)
		return
	}
	res.Stats.PlanCacheHit = cached
	elapsed := time.Since(start)
	s.maybeLogSlow(traceID, req, res, rw.rows, elapsed)
	plan := ""
	if pq.Analyzed() {
		plan = res.Plan()
	}
	rw.finish(res.Columns, plan, replyTail{
		RowCount: rw.rows,
		Stats: statsBody{
			Candidates:    res.Stats.Candidates,
			Verifications: res.Stats.Verifications,
			PlanCacheHit:  res.Stats.PlanCacheHit,
		},
		ElapsedMS: float64(elapsed.Microseconds()) / 1000,
		TraceID:   traceID,
	})
}

// maybeLogSlow emits one structured JSON line for a query that ran at
// or over the -slow-query-ms threshold: the statement (or prepared id),
// its bound parameters, the plan the engine chose, and — when engine
// tracing is on, which -slow-query-ms implies — the executed span tree.
func (s *server) maybeLogSlow(traceID string, req *request, res *query.Result, rows int, elapsed time.Duration) {
	if s.slowQueryMS <= 0 || s.slowLog == nil ||
		elapsed < time.Duration(s.slowQueryMS)*time.Millisecond {
		return
	}
	line := map[string]any{
		"slow_query": true,
		"ts":         time.Now().UTC().Format(time.RFC3339Nano),
		"trace_id":   traceID,
		"elapsed_ms": float64(elapsed.Microseconds()) / 1000,
	}
	if req.Query != "" {
		line["query"] = req.Query
	}
	if req.ID != "" {
		line["prepared_id"] = req.ID
	}
	if len(req.Params) > 0 {
		line["params"] = req.Params
	}
	if len(req.Named) > 0 {
		line["named"] = req.Named
	}
	if res != nil {
		line["rows"] = rows
		line["plan"] = res.Plan()
		line["plan_cache_hit"] = res.Stats.PlanCacheHit
		if res.Trace != nil {
			line["trace"] = res.Trace
		}
	}
	buf, err := json.Marshal(line)
	if err != nil {
		return
	}
	s.slowMu.Lock()
	s.slowLog.Write(append(buf, '\n'))
	s.slowMu.Unlock()
}

func (s *server) handlePrepare(w http.ResponseWriter, r *http.Request) {
	traceID := s.trace(w)
	req, ok := s.decode(w, r, traceID)
	if !ok {
		return
	}
	if req.Query == "" {
		s.fail(w, traceID, errBad("prepare requires \"query\""))
		return
	}
	pq, err := s.eng.Prepare(req.Query)
	if err != nil {
		s.fail(w, traceID, err)
		return
	}
	s.mu.Lock()
	s.nextID++
	id := fmt.Sprintf("p%d", s.nextID)
	s.prepared[id] = pq
	s.order = append(s.order, id)
	// Bound the registry: evict the oldest statements (their ids then
	// answer 400 and clients re-prepare), so a /v1/prepare-per-request
	// client cannot grow server memory without limit.
	for len(s.order) > s.maxPrepared {
		delete(s.prepared, s.order[0])
		s.order = s.order[1:]
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"id":     id,
		"params": pq.NumParams(),
		"names":  pq.ParamNames(),
	})
}

func (s *server) handleExplain(w http.ResponseWriter, r *http.Request) {
	traceID := s.trace(w)
	req, ok := s.decode(w, r, traceID)
	if !ok {
		return
	}
	pq, _, err := s.statement(req)
	if err != nil {
		s.fail(w, traceID, err)
		return
	}
	s.requests.Add(1)
	var plan string
	if len(req.Named) > 0 {
		plan, err = pq.ExplainNamed(req.Named)
	} else {
		plan, err = pq.Explain(req.Params...)
	}
	if err != nil {
		s.fail(w, traceID, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"plan": plan})
}

// ingestRequest is the body of /ingest: a batch of rows for one
// relation, committed as a single WAL transaction. A row may carry a
// seq, a vec (canonical vector-literal text, e.g. "[0.1,0.2]"), or
// both.
type ingestRequest struct {
	Relation string `json:"relation"`
	Rows     []struct {
		Seq   string            `json:"seq"`
		Vec   string            `json:"vec,omitempty"`
		Attrs map[string]string `json:"attrs,omitempty"`
	} `json:"rows"`
}

func (s *server) handleIngest(w http.ResponseWriter, r *http.Request) {
	traceID := s.trace(w)
	var req ingestRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20))
	if err := dec.Decode(&req); err != nil {
		s.fail(w, traceID, errBad("bad JSON: "+err.Error()))
		return
	}
	if req.Relation == "" || len(req.Rows) == 0 {
		s.fail(w, traceID, errBad(`ingest requires "relation" and at least one row`))
		return
	}
	if _, ok := s.eng.Catalog().Lookup(req.Relation); !ok {
		s.fail(w, traceID, errBad(fmt.Sprintf("unknown relation %q", req.Relation)))
		return
	}
	start := time.Now()
	ops := make([]storage.Op, len(req.Rows))
	for i, row := range req.Rows {
		ops[i] = storage.Op{Kind: storage.OpInsert, Rel: req.Relation, Seq: row.Seq, Attrs: row.Attrs}
		if row.Vec != "" {
			v, err := metric.Parse(row.Vec)
			if err != nil {
				s.fail(w, traceID, errBad(fmt.Sprintf("row %d: %v", i, err)))
				return
			}
			ops[i].Vec = v
		}
	}
	var res storage.CommitResult
	var err error
	if s.store != nil {
		res, err = s.store.Commit(ops)
	} else {
		res, err = storage.Apply(s.eng.Catalog(), ops)
	}
	if err != nil {
		s.fail(w, traceID, err)
		return
	}
	ids := res.InsertedIDs
	s.writes.Add(1)
	s.ingested.Add(int64(len(ids)))
	writeJSON(w, http.StatusOK, map[string]any{
		"inserted":   len(ids),
		"ids":        ids,
		"elapsed_ms": float64(time.Since(start).Microseconds()) / 1000,
	})
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

// handleCheckpoint triggers a snapshot checkpoint on demand (the same
// operation the -checkpoint-* policy runs in the background): the
// catalog is serialized to the snapshot file and the WAL truncated, so
// the next restart replays only the post-checkpoint tail.
func (s *server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	traceID := s.trace(w)
	if s.store == nil {
		s.fail(w, traceID, errPrecondition("no WAL configured (-wal); nothing to checkpoint"))
		return
	}
	info, err := s.store.Checkpoint()
	if err != nil {
		s.fail(w, traceID, errInternal(err))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"lsn":         info.LSN,
		"relations":   info.Rels,
		"rows":        info.Rows,
		"bytes":       info.Bytes,
		"duration_ms": float64(info.Duration.Microseconds()) / 1e3,
	})
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	preparedCount := len(s.prepared)
	s.mu.RUnlock()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	body := map[string]any{
		"uptime_s":         time.Since(s.started).Seconds(),
		"goroutines":       runtime.NumGoroutine(),
		"heap_alloc_bytes": mem.HeapAlloc,
		"requests":         s.requests.Load(),
		"errors":           s.errors.Load(),
		"timeouts":         s.timeouts.Load(),
		"in_flight":        s.inFlight.Load(),
		"prepared":         preparedCount,
		"plan_cache":       s.eng.CacheStats(),
		"batch_size":       s.eng.BatchSize(),
		"ingest_requests":  s.writes.Load(),
		"ingested_rows":    s.ingested.Load(),
	}
	if s.store != nil {
		body["store"] = s.store.Metrics()
		if ck := s.store.LastCheckpoint(); !ck.At.IsZero() {
			body["checkpoint"] = map[string]any{
				"lsn":         ck.LSN,
				"rows":        ck.Rows,
				"bytes":       ck.Bytes,
				"age_s":       time.Since(ck.At).Seconds(),
				"duration_ms": float64(ck.Duration.Microseconds()) / 1e3,
			}
		}
	}
	writeJSON(w, http.StatusOK, body)
}

// statement resolves a request's statement: a prepared statement by
// id, or statement text through the engine's statement cache
// (Engine.Statement). cached reports that the request lexed and parsed
// nothing, which a prepared id never does.
func (s *server) statement(req *request) (pq *query.PreparedQuery, cached bool, err error) {
	switch {
	case req.ID != "":
		s.mu.RLock()
		pq := s.prepared[req.ID]
		s.mu.RUnlock()
		if pq == nil {
			return nil, false, errBad(fmt.Sprintf("unknown prepared statement %q", req.ID))
		}
		return pq, true, nil
	case req.Query == "":
		return nil, false, errBad("request needs \"query\" or \"id\"")
	}
	return s.eng.Statement(req.Query)
}

// execute runs a statement bound to the request's params on the
// handler's goroutine, streaming its rows into out, under the request's
// deadline: a read stops at the engine's next cancellation point once
// the deadline passes or the client goes away, and fails as a timeout.
// The engine runs DML to completion whatever the context, so a write's
// response always tells whether the commit happened.
func (s *server) execute(ctx context.Context, pq *query.PreparedQuery, req *request, out *replyWriter) (*query.Result, error) {
	s.requests.Add(1)
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)
	timeout := s.timeout
	if d := time.Duration(req.TimeoutMS) * time.Millisecond; d > 0 && d < timeout {
		timeout = d
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	var res *query.Result
	var err error
	if len(req.Named) > 0 {
		res, err = pq.ExecuteNamedTo(ctx, out.block, req.Named)
	} else {
		res, err = pq.ExecuteTo(ctx, out.block, req.Params...)
	}
	if err != nil && ctx.Err() != nil && errors.Is(err, ctx.Err()) {
		err = errTimeout(err)
	}
	return res, err
}

func (s *server) decode(w http.ResponseWriter, r *http.Request, traceID string) (*request, bool) {
	if r.Method != http.MethodPost {
		// Unreachable behind the method-qualified mux patterns; kept as a
		// guard for handlers mounted elsewhere.
		s.fail(w, traceID, httpError{http.StatusMethodNotAllowed, "method_not_allowed", "POST required"})
		return nil, false
	}
	var req request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	if err := dec.Decode(&req); err != nil {
		s.fail(w, traceID, errBad("bad JSON: "+err.Error()))
		return nil, false
	}
	return &req, true
}

type httpError struct {
	status int
	code   string // machine-readable envelope code
	msg    string
}

func (e httpError) Error() string { return e.msg }

func errBad(msg string) error { return httpError{http.StatusBadRequest, "bad_request", msg} }

func errTimeout(err error) error {
	return httpError{http.StatusGatewayTimeout, "timeout", "query deadline exceeded: " + err.Error()}
}

func errPrecondition(msg string) error {
	return httpError{http.StatusPreconditionFailed, "precondition_failed", msg}
}

func errInternal(err error) error {
	return httpError{http.StatusInternalServerError, "internal", err.Error()}
}

// errorBody is the uniform JSON error envelope every endpoint answers
// with: a human-readable message, a machine-readable code, and the
// request's trace id (matching the X-Trace-Id header) so a client-side
// error report names the exact server-side request.
type errorBody struct {
	Error   string `json:"error"`
	Code    string `json:"code"`
	TraceID string `json:"trace_id"`
}

func (s *server) fail(w http.ResponseWriter, traceID string, err error) {
	status, body := s.failure(traceID, err)
	writeJSON(w, status, body)
}

// failure counts a failed request and returns its status and envelope.
func (s *server) failure(traceID string, err error) (int, errorBody) {
	s.errors.Add(1)
	status, code := http.StatusBadRequest, "bad_request"
	var he httpError
	if errors.As(err, &he) {
		status = he.status
		if he.code != "" {
			code = he.code
		}
	}
	if code == "timeout" {
		s.timeouts.Add(1)
	}
	return status, errorBody{Error: err.Error(), Code: code, TraceID: traceID}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "simqd: %v\n", err)
	os.Exit(1)
}
