package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// doRaw is do with a verbatim (possibly malformed) body.
func doRaw(t *testing.T, mux *http.ServeMux, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	return rec
}

// decodeEnvelope parses the uniform error envelope and asserts its
// invariants: non-empty message and code, and a trace_id matching the
// X-Trace-Id header.
func decodeEnvelope(t *testing.T, rec interface {
	Header() http.Header
}, body []byte) errorBody {
	t.Helper()
	var env errorBody
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("error body is not the JSON envelope: %v (%s)", err, body)
	}
	if env.Error == "" || env.Code == "" || env.TraceID == "" {
		t.Fatalf("incomplete envelope: %+v", env)
	}
	if hdr := rec.Header().Get("X-Trace-Id"); hdr != env.TraceID {
		t.Fatalf("trace_id mismatch: header %q vs body %q", hdr, env.TraceID)
	}
	return env
}

// TestV1Aliases drives every API endpoint through its /v1/ path, and
// checks that the bare pre-v1 paths are gone: each answers 404 whatever
// the method.
func TestV1Aliases(t *testing.T) {
	s := newTestServer(t, t.TempDir())
	mux := s.routes()

	// /v1/prepare → /v1/query by id round trip.
	rec := do(t, mux, http.MethodPost, "/v1/prepare", map[string]any{
		"query": `SELECT seq, dist FROM words WHERE seq SIMILAR TO ? WITHIN 1 USING edits`,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/prepare = %d: %s", rec.Code, rec.Body)
	}
	var prep struct {
		ID     string `json:"id"`
		Params int    `json:"params"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &prep); err != nil {
		t.Fatal(err)
	}
	if prep.Params != 1 {
		t.Fatalf("/v1/prepare params = %d, want 1", prep.Params)
	}
	rec = do(t, mux, http.MethodPost, "/v1/query", map[string]any{
		"id": prep.ID, "params": []any{"color"},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/query by id = %d: %s", rec.Code, rec.Body)
	}
	var qres struct {
		Rows    [][]string `json:"rows"`
		TraceID string     `json:"trace_id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &qres); err != nil {
		t.Fatal(err)
	}
	if len(qres.Rows) != 3 { // color, colour, colon
		t.Fatalf("/v1/query rows = %v", qres.Rows)
	}
	if qres.TraceID == "" || rec.Header().Get("X-Trace-Id") != qres.TraceID {
		t.Fatalf("/v1/query trace_id = %q, header %q", qres.TraceID, rec.Header().Get("X-Trace-Id"))
	}

	// /v1/explain returns a plan.
	rec = do(t, mux, http.MethodPost, "/v1/explain", map[string]any{
		"query": `SELECT seq FROM words WHERE seq SIMILAR TO "color" WITHIN 1 USING edits`,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/explain = %d: %s", rec.Code, rec.Body)
	}
	var eres struct {
		Plan string `json:"plan"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &eres); err != nil {
		t.Fatal(err)
	}
	if eres.Plan == "" {
		t.Fatal("/v1/explain returned empty plan")
	}

	// /v1/ingest inserts one row.
	rec = do(t, mux, http.MethodPost, "/v1/ingest", map[string]any{
		"relation": "words",
		"rows":     []map[string]any{{"seq": "couleur"}},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/ingest = %d: %s", rec.Code, rec.Body)
	}

	// /v1/stats parses and carries the serving counters.
	rec = do(t, mux, http.MethodGet, "/v1/stats", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/stats = %d", rec.Code)
	}
	var stats map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if _, ok := stats["requests"]; !ok {
		t.Fatalf("/v1/stats missing requests counter: %v", stats)
	}

	// /v1/checkpoint works (store attached).
	rec = do(t, mux, http.MethodPost, "/v1/checkpoint", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/checkpoint = %d: %s", rec.Code, rec.Body)
	}

	// The bare paths are not registered: 404, not 405, for either method.
	for _, path := range []string{"/query", "/prepare", "/explain", "/ingest", "/checkpoint", "/stats"} {
		for _, method := range []string{http.MethodGet, http.MethodPost} {
			if rec := do(t, mux, method, path, map[string]any{"query": "SELECT seq FROM words"}); rec.Code != http.StatusNotFound {
				t.Errorf("%s %s = %d, want 404", method, path, rec.Code)
			}
		}
	}

	// Wrong-method requests on v1 paths answer 405.
	for _, path := range []string{"/v1/query", "/v1/prepare", "/v1/stats"} {
		method := http.MethodGet
		if path == "/v1/stats" {
			method = http.MethodPost
		}
		if rec := do(t, mux, method, path, nil); rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("%s %s = %d, want 405", method, path, rec.Code)
		}
	}
}

// TestErrorEnvelope pins the uniform error contract across endpoints: every handler failure answers
// {"error","code","trace_id"} with the trace id echoed in X-Trace-Id.
func TestErrorEnvelope(t *testing.T) {
	s := newTestServer(t, "") // no WAL: /checkpoint hits its precondition
	mux := s.routes()

	cases := []struct {
		name   string
		method string
		path   string
		body   any
		raw    string // when non-empty, sent verbatim instead of body
		status int
		code   string
	}{
		{name: "parse error", method: http.MethodPost, path: "/v1/prepare",
			body: map[string]any{"query": "SELEKT nope"}, status: 400, code: "bad_request"},
		{name: "parse error v1", method: http.MethodPost, path: "/v1/query",
			body: map[string]any{"query": "SELEKT nope"}, status: 400, code: "bad_request"},
		{name: "missing query", method: http.MethodPost, path: "/v1/query",
			body: map[string]any{}, status: 400, code: "bad_request"},
		{name: "LIMIT 0", method: http.MethodPost, path: "/v1/query",
			body: map[string]any{"query": "SELECT seq FROM words LIMIT 0"}, status: 400, code: "bad_request"},
		{name: "unknown prepared id", method: http.MethodPost, path: "/v1/query",
			body: map[string]any{"id": "p999"}, status: 400, code: "bad_request"},
		{name: "prepare without query", method: http.MethodPost, path: "/v1/prepare",
			body: map[string]any{}, status: 400, code: "bad_request"},
		{name: "explain bad statement", method: http.MethodPost, path: "/v1/explain",
			body: map[string]any{"query": "EXPLAIN EXPLAIN"}, status: 400, code: "bad_request"},
		{name: "ingest unknown relation", method: http.MethodPost, path: "/v1/ingest",
			body:   map[string]any{"relation": "nosuch", "rows": []map[string]any{{"seq": "x"}}},
			status: 400, code: "bad_request"},
		{name: "ingest bad JSON", method: http.MethodPost, path: "/v1/ingest",
			raw: "{not json", status: 400, code: "bad_request"},
		{name: "checkpoint without WAL", method: http.MethodPost, path: "/v1/checkpoint",
			raw: "{}", status: 412, code: "precondition_failed"}, // a body changes nothing
		{name: "checkpoint without WAL v1", method: http.MethodPost, path: "/v1/checkpoint",
			status: 412, code: "precondition_failed"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rec := do(t, mux, c.method, c.path, c.body)
			if c.raw != "" {
				rec = doRaw(t, mux, c.method, c.path, c.raw)
			}
			if rec.Code != c.status {
				t.Fatalf("status = %d, want %d: %s", rec.Code, c.status, rec.Body)
			}
			env := decodeEnvelope(t, rec, rec.Body.Bytes())
			if env.Code != c.code {
				t.Errorf("code = %q, want %q", env.Code, c.code)
			}
		})
	}

	// A bound LIMIT ? = 0 is a bind error, not "no limit".
	rec := do(t, mux, http.MethodPost, "/v1/prepare", map[string]any{"query": "SELECT seq FROM words LIMIT ?"})
	var prep struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &prep); err != nil || prep.ID == "" {
		t.Fatalf("/v1/prepare = %d: %s", rec.Code, rec.Body)
	}
	rec = do(t, mux, http.MethodPost, "/v1/query", map[string]any{"id": prep.ID, "params": []any{0}})
	if env := decodeEnvelope(t, rec, rec.Body.Bytes()); rec.Code != 400 || env.Code != "bad_request" {
		t.Errorf("bound LIMIT 0: status %d code %q, want 400 bad_request: %s", rec.Code, env.Code, rec.Body)
	}

	// Distinct requests get distinct trace ids.
	r1 := do(t, mux, http.MethodPost, "/v1/query", map[string]any{"query": "SELEKT"})
	r2 := do(t, mux, http.MethodPost, "/v1/query", map[string]any{"query": "SELEKT"})
	e1 := decodeEnvelope(t, r1, r1.Body.Bytes())
	e2 := decodeEnvelope(t, r2, r2.Body.Bytes())
	if e1.TraceID == e2.TraceID {
		t.Errorf("trace ids not unique: %q", e1.TraceID)
	}
}

// TestV1DistanceJoinOverHTTP runs an ON dist(...) join through the v1
// surface end to end: EXPLAIN surfaces the length-view index probe and
// the result matches the engine's row count.
func TestV1DistanceJoinOverHTTP(t *testing.T) {
	mux := newTestServer(t, "").routes()
	stmt := `SELECT a.seq, b.seq FROM words a, words b ON dist(a.seq, b.seq) <= 1 USING edits WHERE a.id != b.id`

	rec := do(t, mux, http.MethodPost, "/v1/explain", map[string]any{"query": stmt})
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/explain = %d: %s", rec.Code, rec.Body)
	}
	var eres struct {
		Plan string `json:"plan"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &eres); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(eres.Plan, "IndexJoin(probe a.seq into lengthview(b)") {
		t.Fatalf("join plan lacks the length-view index probe: %q", eres.Plan)
	}

	rec = do(t, mux, http.MethodPost, "/v1/query", map[string]any{"query": stmt})
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/query = %d: %s", rec.Code, rec.Body)
	}
	var qres struct {
		Rows [][]string `json:"rows"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &qres); err != nil {
		t.Fatal(err)
	}
	// color↔colour and color↔colon within one edit, both directions.
	if len(qres.Rows) != 4 {
		t.Fatalf("join rows = %v", qres.Rows)
	}
}

// TestAdhocSharesPreparedStatement: statement text sent to /v1/query
// with params goes through the engine's statement cache, so a repeat is
// a plan-cache hit, and a /v1/prepare of the same text (modulo
// whitespace) registers that same statement.
func TestAdhocSharesPreparedStatement(t *testing.T) {
	s := newTestServer(t, "")
	mux := s.routes()
	const stmt = `SELECT seq FROM words WHERE seq SIMILAR TO ? WITHIN 1 USING edits`
	type reply struct {
		Rows  [][]string `json:"rows"`
		Stats struct {
			PlanCacheHit bool `json:"plan_cache_hit"`
		} `json:"stats"`
	}
	query := func(body map[string]any) reply {
		t.Helper()
		rec := do(t, mux, http.MethodPost, "/v1/query", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("/v1/query %v = %d: %s", body, rec.Code, rec.Body)
		}
		var r reply
		if err := json.Unmarshal(rec.Body.Bytes(), &r); err != nil {
			t.Fatal(err)
		}
		return r
	}
	for i, want := range []bool{false, true} {
		r := query(map[string]any{"query": stmt, "params": []any{"color"}})
		if r.Stats.PlanCacheHit != want || len(r.Rows) != 3 {
			t.Fatalf("ad hoc call %d: plan_cache_hit %v (want %v), rows %v", i+1, r.Stats.PlanCacheHit, want, r.Rows)
		}
	}
	rec := do(t, mux, http.MethodPost, "/v1/prepare", map[string]any{"query": "SELECT seq FROM words\n WHERE seq SIMILAR TO ? WITHIN 1 USING edits"})
	var prep struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &prep); err != nil || prep.ID == "" {
		t.Fatalf("/v1/prepare = %d: %s", rec.Code, rec.Body)
	}
	if r := query(map[string]any{"id": prep.ID, "params": []any{"color"}}); !r.Stats.PlanCacheHit {
		t.Error("an execution by prepared id reported lexing and parsing its text")
	}
	if cs := s.eng.CacheStats(); cs.Entries != 1 {
		t.Errorf("statement cache holds %d entries, want 1", cs.Entries)
	}
}
