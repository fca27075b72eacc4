package main

// Tests for the observability surface: the /metrics exposition, trace-id
// echoing, the slow-query log line, runtime fields in /stats, and the
// -pprof gate.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestMetricsEndpoint drives a write and a query through the server,
// scrapes /metrics, and checks the dump is valid Prometheus text
// exposition covering the query, plan-cache, WAL, index and process
// series.
func TestMetricsEndpoint(t *testing.T) {
	s := newTestServer(t, t.TempDir())
	registerProcessGauges(s.eng.Catalog())
	mux := s.routes()

	if rec := do(t, mux, http.MethodPost, "/v1/ingest", map[string]any{
		"relation": "words",
		"rows":     []map[string]any{{"seq": "couleur"}},
	}); rec.Code != http.StatusOK {
		t.Fatalf("/v1/ingest = %d: %s", rec.Code, rec.Body)
	}
	if rec := do(t, mux, http.MethodPost, "/v1/query", map[string]any{
		"query": `SELECT seq FROM words WHERE seq SIMILAR TO "color" WITHIN 1 USING edits`,
	}); rec.Code != http.StatusOK {
		t.Fatalf("/v1/query = %d: %s", rec.Code, rec.Body)
	}

	rec := do(t, mux, http.MethodGet, "/metrics", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q, want Prometheus text exposition", ct)
	}
	body := rec.Body.String()
	if err := obs.CheckExposition(bytes.NewReader(rec.Body.Bytes())); err != nil {
		t.Fatalf("/metrics is not valid exposition: %v\n%s", err, body)
	}
	for _, series := range []string{
		"simq_queries_total",
		"simq_query_seconds_bucket",
		`simq_plan_cache_total{event="miss"}`,
		"simq_wal_appends_total",
		"simq_wal_bytes_total",
		"simq_wal_fsync_seconds_count",
		"simq_store_commits_total",
		`simq_index_nodes_total{event="visited"}`,
		`simq_index_insert_depth_count{index="bktree"}`,
		"simq_goroutines",
		"simq_heap_alloc_bytes",
		"simq_catalog_rows",
		"simq_snapshot_epoch",
	} {
		if !strings.Contains(body, series) {
			t.Errorf("/metrics missing series %q", series)
		}
	}
}

// TestMetricsTraceIDEcho pins that every /query response carries the
// request's trace id both as the X-Trace-Id header and in the body.
func TestMetricsTraceIDEcho(t *testing.T) {
	mux := newTestServer(t, "").routes()
	rec := do(t, mux, http.MethodPost, "/v1/query", map[string]any{
		"query": `SELECT seq FROM words LIMIT 1`,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/query = %d: %s", rec.Code, rec.Body)
	}
	hdr := rec.Header().Get("X-Trace-Id")
	if hdr == "" {
		t.Fatal("missing X-Trace-Id header")
	}
	var body struct {
		TraceID string `json:"trace_id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.TraceID != hdr {
		t.Fatalf("body trace_id %q != header %q", body.TraceID, hdr)
	}
	// Explain answers with a trace id too.
	rec = do(t, mux, http.MethodPost, "/v1/explain", map[string]any{
		"query": `SELECT seq FROM words LIMIT 1`,
	})
	if rec.Header().Get("X-Trace-Id") == "" {
		t.Error("/v1/explain missing X-Trace-Id header")
	}
}

// TestMetricsSlowQueryLog exercises maybeLogSlow directly with a
// synthetic elapsed time (wall-clock thresholds are not reproducible in
// a unit test): over the threshold one structured JSON line appears
// with the statement, plan and span tree; under it, nothing.
func TestMetricsSlowQueryLog(t *testing.T) {
	s := newTestServer(t, "")
	var buf bytes.Buffer
	s.slowQueryMS = 5
	s.slowLog = &buf
	s.eng.SetTracing(true) // what -slow-query-ms implies in main()

	res, err := s.eng.Execute(`SELECT seq FROM words WHERE seq SIMILAR TO "color" WITHIN 1 USING edits`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil {
		t.Fatal("tracing on but no trace collected")
	}
	req := &request{Query: `SELECT seq FROM words WHERE seq SIMILAR TO "color" WITHIN 1 USING edits`}

	s.maybeLogSlow("tid-under", req, res, len(res.Rows), 2*time.Millisecond)
	if buf.Len() != 0 {
		t.Fatalf("under-threshold query logged: %s", buf.String())
	}

	s.maybeLogSlow("tid-over", req, res, len(res.Rows), 12*time.Millisecond)
	line := buf.String()
	if !strings.HasSuffix(line, "\n") || strings.Count(line, "\n") != 1 {
		t.Fatalf("slow log is not one line: %q", line)
	}
	var entry struct {
		SlowQuery bool            `json:"slow_query"`
		TraceID   string          `json:"trace_id"`
		ElapsedMS float64         `json:"elapsed_ms"`
		Query     string          `json:"query"`
		Rows      int             `json:"rows"`
		Plan      string          `json:"plan"`
		Trace     json.RawMessage `json:"trace"`
	}
	if err := json.Unmarshal([]byte(line), &entry); err != nil {
		t.Fatalf("slow log line is not JSON: %v\n%s", err, line)
	}
	if !entry.SlowQuery || entry.TraceID != "tid-over" || entry.ElapsedMS != 12 {
		t.Errorf("slow log fields = %+v", entry)
	}
	if entry.Query != req.Query || entry.Rows != len(res.Rows) || entry.Plan == "" {
		t.Errorf("slow log payload = %+v", entry)
	}
	var span obs.Span
	if err := json.Unmarshal(entry.Trace, &span); err != nil || span.Op == "" {
		t.Errorf("slow log trace not a span tree: %v %q", err, entry.Trace)
	}

	// Threshold disabled: nothing is ever written.
	buf.Reset()
	s.slowQueryMS = 0
	s.maybeLogSlow("tid-off", req, res, len(res.Rows), time.Second)
	if buf.Len() != 0 {
		t.Errorf("slow log written with threshold disabled: %s", buf.String())
	}
}

// TestStatsRuntimeFields pins the /stats runtime additions.
func TestStatsRuntimeFields(t *testing.T) {
	mux := newTestServer(t, "").routes()
	rec := do(t, mux, http.MethodGet, "/v1/stats", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/stats = %d", rec.Code)
	}
	var stats map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	g, ok := stats["goroutines"].(float64)
	if !ok || g < 1 {
		t.Errorf("stats goroutines = %v", stats["goroutines"])
	}
	h, ok := stats["heap_alloc_bytes"].(float64)
	if !ok || h <= 0 {
		t.Errorf("stats heap_alloc_bytes = %v", stats["heap_alloc_bytes"])
	}
}

// TestPprofGate: the profiling endpoints exist only under -pprof.
func TestPprofGate(t *testing.T) {
	s := newTestServer(t, "")
	if rec := do(t, s.routes(), http.MethodGet, "/debug/pprof/cmdline", nil); rec.Code != http.StatusNotFound {
		t.Errorf("pprof off: /debug/pprof/cmdline = %d, want 404", rec.Code)
	}
	s.pprofOn = true
	if rec := do(t, s.routes(), http.MethodGet, "/debug/pprof/cmdline", nil); rec.Code != http.StatusOK {
		t.Errorf("pprof on: /debug/pprof/cmdline = %d, want 200", rec.Code)
	}
}
