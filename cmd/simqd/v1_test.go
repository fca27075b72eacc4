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

// TestV1Aliases drives every API endpoint through its /v1/ path and its
// legacy alias: both routes reach the same handler, so the responses
// must agree shape-for-shape.
func TestV1Aliases(t *testing.T) {
	s := newTestServer(t, t.TempDir())
	mux := s.routes()

	for _, prefix := range []string{"", "/v1"} {
		// /prepare → /query by id round trip under each prefix.
		rec := do(t, mux, http.MethodPost, prefix+"/prepare", map[string]any{
			"query": `SELECT seq, dist FROM words WHERE seq SIMILAR TO ? WITHIN 1 USING edits`,
		})
		if rec.Code != http.StatusOK {
			t.Fatalf("%s/prepare = %d: %s", prefix, rec.Code, rec.Body)
		}
		var prep struct {
			ID     string `json:"id"`
			Params int    `json:"params"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &prep); err != nil {
			t.Fatal(err)
		}
		if prep.Params != 1 {
			t.Fatalf("%s/prepare params = %d, want 1", prefix, prep.Params)
		}
		rec = do(t, mux, http.MethodPost, prefix+"/query", map[string]any{
			"id": prep.ID, "params": []any{"color"},
		})
		if rec.Code != http.StatusOK {
			t.Fatalf("%s/query by id = %d: %s", prefix, rec.Code, rec.Body)
		}
		var qres struct {
			Rows    [][]string `json:"rows"`
			TraceID string     `json:"trace_id"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &qres); err != nil {
			t.Fatal(err)
		}
		if len(qres.Rows) != 3 { // color, colour, colon
			t.Fatalf("%s/query rows = %v", prefix, qres.Rows)
		}
		if qres.TraceID == "" || rec.Header().Get("X-Trace-Id") != qres.TraceID {
			t.Fatalf("%s/query trace_id = %q, header %q", prefix, qres.TraceID, rec.Header().Get("X-Trace-Id"))
		}

		// /explain returns a plan.
		rec = do(t, mux, http.MethodPost, prefix+"/explain", map[string]any{
			"query": `SELECT seq FROM words WHERE seq SIMILAR TO "color" WITHIN 1 USING edits`,
		})
		if rec.Code != http.StatusOK {
			t.Fatalf("%s/explain = %d: %s", prefix, rec.Code, rec.Body)
		}
		var eres struct {
			Plan string `json:"plan"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &eres); err != nil {
			t.Fatal(err)
		}
		if eres.Plan == "" {
			t.Fatalf("%s/explain returned empty plan", prefix)
		}

		// /ingest inserts one row.
		rec = do(t, mux, http.MethodPost, prefix+"/ingest", map[string]any{
			"relation": "words",
			"rows":     []map[string]any{{"seq": "couleur" + prefix}},
		})
		if rec.Code != http.StatusOK {
			t.Fatalf("%s/ingest = %d: %s", prefix, rec.Code, rec.Body)
		}

		// /stats parses and carries the serving counters.
		rec = do(t, mux, http.MethodGet, prefix+"/stats", nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s/stats = %d", prefix, rec.Code)
		}
		var stats map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
			t.Fatal(err)
		}
		if _, ok := stats["requests"]; !ok {
			t.Fatalf("%s/stats missing requests counter: %v", prefix, stats)
		}

		// /checkpoint works under both prefixes (store attached).
		rec = do(t, mux, http.MethodPost, prefix+"/checkpoint", nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s/checkpoint = %d: %s", prefix, rec.Code, rec.Body)
		}
	}

	// Wrong-method requests on v1 paths answer 405 like the legacy ones.
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

// TestErrorEnvelope pins the uniform error contract across endpoints
// and API versions: every handler failure answers
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
		{name: "parse error", method: http.MethodPost, path: "/query",
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
		{name: "ingest bad JSON", method: http.MethodPost, path: "/ingest",
			raw: "{not json", status: 400, code: "bad_request"},
		{name: "checkpoint without WAL", method: http.MethodPost, path: "/checkpoint",
			status: 412, code: "precondition_failed"},
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
