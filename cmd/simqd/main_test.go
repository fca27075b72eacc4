package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/rewrite"
	"repro/internal/storage"
)

// newTestServer builds a server over a small in-memory engine; walDir
// non-empty attaches a WAL-backed store.
func newTestServer(t *testing.T, walDir string) *server {
	t.Helper()
	cat := relation.NewCatalog()
	words := relation.New("words")
	for _, w := range []string{"color", "colour", "colon", "cool"} {
		words.Insert(w, nil)
	}
	cat.Add(words)
	eng := query.NewEngine(cat)
	rs := rewrite.MustRuleSet("edits", rewrite.UnitEdits("abcdefghijklmnopqrstuvwxyz").Rules())
	if err := eng.RegisterRuleSet(rs); err != nil {
		t.Fatal(err)
	}
	s := &server{
		eng: eng, timeout: 5 * time.Second, started: time.Now(),
		maxPrepared: 16,
		prepared:    map[string]*query.PreparedQuery{},
	}
	if walDir != "" {
		st, err := storage.Open(filepath.Join(walDir, "test.wal"), cat)
		if err != nil {
			t.Fatal(err)
		}
		st.SetSync(false)
		eng.SetStore(st)
		s.store = st
		t.Cleanup(func() { st.Close() })
	}
	return s
}

func do(t *testing.T, mux *http.ServeMux, method, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	return rec
}

// TestWrongMethodIs405 pins the routing fix: a wrong-method request on
// a registered route must answer 405 Method Not Allowed (with an Allow
// header), not 404.
func TestWrongMethodIs405(t *testing.T) {
	mux := newTestServer(t, "").routes()
	cases := []struct{ method, path string }{
		{http.MethodGet, "/v1/query"},
		{http.MethodGet, "/v1/prepare"},
		{http.MethodGet, "/v1/explain"},
		{http.MethodGet, "/v1/ingest"},
		{http.MethodDelete, "/v1/query"},
		{http.MethodPost, "/healthz"},
		{http.MethodPost, "/v1/stats"},
	}
	for _, c := range cases {
		rec := do(t, mux, c.method, c.path, nil)
		if rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("%s %s = %d, want 405", c.method, c.path, rec.Code)
		}
		if rec.Header().Get("Allow") == "" {
			t.Errorf("%s %s: missing Allow header", c.method, c.path)
		}
	}
	// Unregistered paths still 404.
	if rec := do(t, mux, http.MethodGet, "/nosuch", nil); rec.Code != http.StatusNotFound {
		t.Errorf("GET /nosuch = %d, want 404", rec.Code)
	}
}

func TestIngestQueryRoundTrip(t *testing.T) {
	s := newTestServer(t, t.TempDir())
	mux := s.routes()

	rec := do(t, mux, http.MethodPost, "/v1/ingest", map[string]any{
		"relation": "words",
		"rows": []map[string]any{
			{"seq": "couleur", "attrs": map[string]string{"lang": "fr"}},
			{"seq": "kolor", "attrs": map[string]string{"lang": "pl"}},
		},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/ingest = %d: %s", rec.Code, rec.Body)
	}
	var ing struct {
		Inserted int   `json:"inserted"`
		IDs      []int `json:"ids"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &ing); err != nil {
		t.Fatal(err)
	}
	if ing.Inserted != 2 || len(ing.IDs) != 2 {
		t.Fatalf("ingest response = %+v", ing)
	}

	rec = do(t, mux, http.MethodPost, "/v1/query", map[string]any{
		"query": `SELECT seq FROM words WHERE lang = "pl"`,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/query = %d: %s", rec.Code, rec.Body)
	}
	var qres struct {
		Rows [][]string `json:"rows"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &qres); err != nil {
		t.Fatal(err)
	}
	if len(qres.Rows) != 1 || qres.Rows[0][0] != "kolor" {
		t.Fatalf("query rows = %v", qres.Rows)
	}

	// DML through /query.
	rec = do(t, mux, http.MethodPost, "/v1/query", map[string]any{
		"query": `DELETE FROM words WHERE seq SIMILAR TO "kolor" WITHIN 1 USING edits`,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("DML /query = %d: %s", rec.Code, rec.Body)
	}
	var dres struct {
		Rows [][]string `json:"rows"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &dres); err != nil {
		t.Fatal(err)
	}
	if len(dres.Rows) != 1 || dres.Rows[0][0] != "2" { // kolor + color
		t.Fatalf("delete count rows = %v", dres.Rows)
	}

	// Write metrics surface in /stats.
	rec = do(t, mux, http.MethodGet, "/v1/stats", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/stats = %d", rec.Code)
	}
	var stats map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats["ingest_requests"].(float64) != 1 || stats["ingested_rows"].(float64) != 2 {
		t.Errorf("stats write counters = %v / %v", stats["ingest_requests"], stats["ingested_rows"])
	}
	store, ok := stats["store"].(map[string]any)
	if !ok {
		t.Fatalf("stats missing store section: %v", stats)
	}
	if store["commits"].(float64) < 2 || store["wal_bytes"].(float64) <= 0 {
		t.Errorf("store metrics = %v", store)
	}
}

func TestIngestValidation(t *testing.T) {
	mux := newTestServer(t, "").routes()
	for _, body := range []map[string]any{
		{},
		{"relation": "words"},
		{"relation": "nosuch", "rows": []map[string]any{{"seq": "x"}}},
		{"relation": "words", "rows": []map[string]any{{"vec": "not a vector"}}},
		{"relation": "words", "rows": []map[string]any{{"vec": "[]"}}},
	} {
		if rec := do(t, mux, http.MethodPost, "/v1/ingest", body); rec.Code != http.StatusBadRequest {
			t.Errorf("ingest %v = %d, want 400", body, rec.Code)
		}
	}
}

// TestVecIngestQueryRoundTrip drives vector rows through /ingest (WAL
// attached) and runs NEAREST and WITHIN over them, prepared and ad hoc.
func TestVecIngestQueryRoundTrip(t *testing.T) {
	s := newTestServer(t, t.TempDir())
	mux := s.routes()

	rec := do(t, mux, http.MethodPost, "/v1/ingest", map[string]any{
		"relation": "words",
		"rows": []map[string]any{
			{"vec": "[0,0]"},
			{"vec": "[1,0]"},
			{"vec": "[0,3]"},
		},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/ingest = %d: %s", rec.Code, rec.Body)
	}

	rec = do(t, mux, http.MethodPost, "/v1/query", map[string]any{
		"query": `SELECT id, dist FROM words WHERE vec NEAREST 2 TO [0, 0] USING l2`,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/query = %d: %s", rec.Code, rec.Body)
	}
	var qres struct {
		Rows [][]string `json:"rows"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &qres); err != nil {
		t.Fatal(err)
	}
	// The string rows (ids 0-3) have no vector, so the nearest are the
	// ingested vector rows 4 and 5.
	if len(qres.Rows) != 2 || qres.Rows[0][0] != "4" || qres.Rows[1][0] != "5" {
		t.Fatalf("NEAREST rows = %v", qres.Rows)
	}

	// Prepared vector query with a string-encoded vector parameter.
	rec = do(t, mux, http.MethodPost, "/v1/prepare", map[string]any{
		"query": `SELECT id FROM words WHERE vec SIMILAR TO ? WITHIN ? USING l2`,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/prepare = %d: %s", rec.Code, rec.Body)
	}
	var prep struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &prep); err != nil {
		t.Fatal(err)
	}
	rec = do(t, mux, http.MethodPost, "/v1/query", map[string]any{
		"id": prep.ID, "params": []any{"[0,0]", 1.5},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("prepared vec /query = %d: %s", rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &qres); err != nil {
		t.Fatal(err)
	}
	if len(qres.Rows) != 2 {
		t.Fatalf("prepared WITHIN rows = %v", qres.Rows)
	}

	// EXPLAIN surfaces the metric and access path.
	rec = do(t, mux, http.MethodPost, "/v1/explain", map[string]any{
		"query": `SELECT id FROM words WHERE vec NEAREST 2 TO [0, 0] USING l2`,
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
	if !strings.Contains(eres.Plan, "metric=l2") {
		t.Fatalf("explain plan lacks metric: %q", eres.Plan)
	}
}

// TestPreparedDMLOverHTTP drives a parameterized INSERT through
// /prepare + /query by id.
func TestPreparedDMLOverHTTP(t *testing.T) {
	mux := newTestServer(t, "").routes()
	rec := do(t, mux, http.MethodPost, "/v1/prepare", map[string]any{
		"query": `INSERT INTO words (seq, lang) VALUES (?, ?)`,
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
	if prep.Params != 2 {
		t.Fatalf("prepare params = %d", prep.Params)
	}
	rec = do(t, mux, http.MethodPost, "/v1/query", map[string]any{
		"id": prep.ID, "params": []any{"farbe", "de"},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("prepared DML exec = %d: %s", rec.Code, rec.Body)
	}
	rec = do(t, mux, http.MethodPost, "/v1/query", map[string]any{
		"query": `SELECT seq FROM words WHERE lang = "de"`,
	})
	var qres struct {
		Rows [][]string `json:"rows"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &qres); err != nil {
		t.Fatal(err)
	}
	if len(qres.Rows) != 1 || qres.Rows[0][0] != "farbe" {
		t.Fatalf("prepared insert rows = %v", qres.Rows)
	}
}

// newParallelTestServer is newTestServer with every scan and join
// planned as a 4-slice parallel plan — GatherMerge(shards=4) in
// EXPLAIN — over a WAL in walDir.
func newParallelTestServer(t *testing.T, walDir string) *server {
	t.Helper()
	cat := relation.NewCatalog()
	words := relation.New("words")
	for _, w := range []string{"color", "colour", "colon", "cool", "dolor", "clamor"} {
		words.Insert(w, nil)
	}
	cat.Add(words)
	eng := query.NewEngine(cat, query.WithParallelism(4), query.WithParallelMinRows(1))
	rs := rewrite.MustRuleSet("edits", rewrite.UnitEdits("abcdefghijklmnopqrstuvwxyz").Rules())
	if err := eng.RegisterRuleSet(rs); err != nil {
		t.Fatal(err)
	}
	st, err := storage.Open(filepath.Join(walDir, "test.wal"), cat)
	if err != nil {
		t.Fatal(err)
	}
	st.SetSync(false)
	eng.SetStore(st)
	t.Cleanup(func() { st.Close() })
	return &server{
		eng: eng, store: st, timeout: 5 * time.Second, started: time.Now(),
		maxPrepared: 16,
		prepared:    map[string]*query.PreparedQuery{},
	}
}

// TestShardedServerRoundTrip: queries, DML and /ingest work over HTTP
// against an engine whose plans fan out over four slices, the WAL
// replays the writes, and /v1/stats carries no per-shard block (the
// relation layout has none).
func TestShardedServerRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := newParallelTestServer(t, dir)
	mux := s.routes()

	rec := do(t, mux, http.MethodPost, "/v1/query", map[string]any{
		"query": `SELECT seq, dist FROM words WHERE seq SIMILAR TO "color" WITHIN 1 USING edits OR seq = "zzz"`,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("query: %d %s", rec.Code, rec.Body)
	}
	var qres struct {
		Rows [][]string `json:"rows"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &qres); err != nil {
		t.Fatal(err)
	}
	if len(qres.Rows) != 4 { // color, colour, colon, dolor
		t.Fatalf("query rows = %v", qres.Rows)
	}

	rec = do(t, mux, http.MethodPost, "/v1/explain", map[string]any{
		"query": `SELECT * FROM words WHERE seq SIMILAR TO "color" WITHIN 1 USING edits OR seq = "zzz"`,
	})
	if rec.Code != http.StatusOK || !bytes.Contains(rec.Body.Bytes(), []byte("GatherMerge(shards=4")) {
		t.Fatalf("explain of a parallel scan lacks GatherMerge(shards=4: %d %s", rec.Code, rec.Body)
	}

	rec = do(t, mux, http.MethodPost, "/v1/ingest", map[string]any{
		"relation": "words",
		"rows":     []map[string]any{{"seq": "pallor"}, {"seq": "sailor"}},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("ingest: %d %s", rec.Code, rec.Body)
	}

	rec = do(t, mux, http.MethodPost, "/v1/query", map[string]any{
		"query": `DELETE FROM words WHERE seq = "cool"`,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("delete: %d %s", rec.Code, rec.Body)
	}

	rec = do(t, mux, http.MethodGet, "/v1/stats", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("stats: %d %s", rec.Code, rec.Body)
	}
	var stats map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if _, ok := stats["shards"]; ok {
		t.Fatalf("/v1/stats carries a shards block: %s", rec.Body)
	}
	if _, ok := stats["store"]; !ok {
		t.Fatalf("/v1/stats lacks the store block: %s", rec.Body)
	}

	s.store.Close()
	cat := relation.NewCatalog()
	base := relation.New("words")
	for _, w := range []string{"color", "colour", "colon", "cool", "dolor", "clamor"} {
		base.Insert(w, nil)
	}
	cat.Add(base)
	st, err := storage.Open(filepath.Join(dir, "test.wal"), cat)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	words, _ := cat.Lookup("words")
	var got []string
	for _, tu := range words.Tuples() {
		got = append(got, tu.Seq)
	}
	if want := "color colour colon dolor clamor pallor sailor"; strings.Join(got, " ") != want {
		t.Fatalf("replayed rows = %v, want %s", got, want)
	}
}
