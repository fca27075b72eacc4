package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/rewrite"
)

// FuzzReplyJSON: the reply's string appender writes what encoding/json
// writes, for any string — HTML characters, control bytes, invalid
// UTF-8 and the JavaScript line separators included.
func FuzzReplyJSON(f *testing.F) {
	for _, s := range []string{"", "color", `<a href="x">&amp;</a>`, "\x00\x01\x1f\x7f",
		"\b\f\n\r\t", `back\slash "quoted"`, "\xff\xfe", "ok\xe2\x82", "\u2028\u2029", "h\u00e9llo \U0001F600"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendString(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("appendString(%q) = %s, json.Marshal = %s", s, got, want)
		}
		row := []string{s, "", s + "<"}
		want, _ = json.Marshal(row)
		if got := appendStrings(nil, row); !bytes.Equal(got, want) {
			t.Fatalf("appendStrings(%q) = %s, json.Marshal = %s", row, got, want)
		}
	})
}

// streamWords is the relation of the streaming tests: 3 000 five-letter
// words in id order, then rows whose bytes every JSON escape touches.
func streamWords() []string {
	words := make([]string, 0, 3010)
	for i := 0; i < 3000; i++ {
		b := []byte("aaaaa")
		for j, n := 4, i; j >= 0; j, n = j-1, n/26 {
			b[j] = byte('a' + n%26)
		}
		words = append(words, string(b))
	}
	return append(words, "a<b>&c", "tab\there", "nul\x00", "bad\xffutf8", "line\u2028sep", `q"uo\te`)
}

// newStreamServer serves streamWords through a serial engine
// (shards 1) or one that runs scans as that many parallel slices under
// a GatherMerge(shards=N).
func newStreamServer(t *testing.T, shards int) *server {
	t.Helper()
	cat := relation.NewCatalog()
	rel := relation.New("words")
	for _, w := range streamWords() {
		rel.Insert(w, nil)
	}
	cat.Add(rel)
	eng := query.NewEngine(cat, query.WithParallelism(shards), query.WithParallelMinRows(1))
	rs := rewrite.MustRuleSet("edits", rewrite.UnitEdits("abcdefghijklmnopqrstuvwxyz").Rules())
	if err := eng.RegisterRuleSet(rs); err != nil {
		t.Fatal(err)
	}
	return &server{
		eng: eng, timeout: 5 * time.Second, started: time.Now(),
		maxPrepared: 16,
		prepared:    map[string]*query.PreparedQuery{},
	}
}

// TestStreamedReplyMatchesMarshal: a streamed /v1/query body is byte
// for byte json.Encoder's encoding of the queryResponse the engine's
// collected result makes, at every reply size around the block
// boundary, serial and parallel, for SELECT, DML and EXPLAIN text.
// elapsed_ms and trace_id are taken from the body itself.
func TestStreamedReplyMatchesMarshal(t *testing.T) {
	cases := []struct {
		name, stmt string
		rows       int
		dml        bool
	}{
		{"0 rows", `SELECT id, seq FROM words WHERE seq = "zzzzzz"`, 0, false},
		{"1 row", `SELECT id, seq FROM words WHERE seq = "aaabc"`, 1, false},
		{"256 rows", `SELECT id, seq FROM words LIMIT 256`, 256, false},
		{"257 rows", `SELECT id, seq FROM words LIMIT 257`, 257, false},
		{"3000 rows", `SELECT * FROM words LIMIT 3000`, 3000, false},
		{"escapes", `SELECT id, seq FROM words`, 3006, false},
		{"filtered", `SELECT id, seq FROM words WHERE seq != "q"`, 3006, false},
		{"ordered", `SELECT id, seq, dist FROM words WHERE seq SIMILAR TO "aaccc" WITHIN 2 USING edits ORDER BY dist DESC`, -1, false},
		{"explain", `EXPLAIN SELECT id FROM words WHERE seq SIMILAR TO "aaccc" WITHIN 1 USING edits`, 1, false},
		{"insert", `INSERT INTO words (seq) VALUES ("zz<z")`, 1, true},
	}
	for _, shards := range []int{1, 4} {
		s := newStreamServer(t, shards)
		mux := s.routes()
		for _, c := range cases {
			t.Run(fmt.Sprintf("shards=%d/%s", shards, c.name), func(t *testing.T) {
				var want *query.Result
				if !c.dml {
					var err error
					if want, err = s.eng.Execute(c.stmt); err != nil {
						t.Fatal(err)
					}
				} else {
					want = &query.Result{Columns: []string{"count"}, Rows: [][]string{{"1"}}}
				}
				rec := do(t, mux, http.MethodPost, "/v1/query", map[string]any{"query": c.stmt})
				if rec.Code != http.StatusOK {
					t.Fatalf("status %d: %s", rec.Code, rec.Body)
				}
				body := rec.Body.Bytes()
				var got queryResponse
				if err := json.Unmarshal(body, &got); err != nil {
					t.Fatalf("reply is not JSON: %v\n%s", err, body)
				}
				if c.rows >= 0 && got.RowCount != c.rows {
					t.Fatalf("row_count %d, want %d", got.RowCount, c.rows)
				}
				var exp bytes.Buffer
				json.NewEncoder(&exp).Encode(queryResponse{Columns: want.Columns, Rows: want.Rows, replyTail: got.replyTail})
				if !bytes.Equal(body, exp.Bytes()) {
					t.Fatalf("streamed reply differs from json.Encoder's:\n got %.400s\nwant %.400s", body, exp.Bytes())
				}
			})
		}
	}
}

// blockingRecorder is an httptest.ResponseRecorder whose first Write —
// the reply's first flushBytes of blocks — runs a hook before it
// returns.
type blockingRecorder struct {
	*httptest.ResponseRecorder
	onFirst func()
	writes  int
}

func (r *blockingRecorder) Write(p []byte) (int, error) {
	r.writes++
	if r.writes == 1 {
		r.onFirst()
	}
	return r.ResponseRecorder.Write(p)
}

// postQuery sends one /v1/query through the server's mux into rec.
func postQuery(t *testing.T, s *server, rec http.ResponseWriter, body map[string]any) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	s.routes().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(b)))
}

// midStreamReply decodes a reply that failed after its first block:
// status 200, the rows written so far, and the error envelope's fields
// in place of the tail.
func midStreamReply(t *testing.T, rec *httptest.ResponseRecorder) (rows [][]string, env errorBody) {
	t.Helper()
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, want 200 (the first block commits it): %s", rec.Code, rec.Body)
	}
	var reply struct {
		Rows     [][]string      `json:"rows"`
		RowCount *int            `json:"row_count"`
		Stats    json.RawMessage `json:"stats"`
		errorBody
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
		t.Fatalf("reply is not JSON: %v\n%.300s", err, rec.Body)
	}
	if reply.RowCount != nil || reply.Stats != nil {
		t.Fatalf("failed reply carries the success tail: %.300s", rec.Body)
	}
	if hdr := rec.Header().Get("X-Trace-Id"); reply.TraceID == "" || hdr != reply.TraceID {
		t.Fatalf("trace_id %q, header %q", reply.TraceID, hdr)
	}
	return reply.Rows, reply.errorBody
}

// TestStreamErrorAfterFirstBlock: a statement that fails in its third
// block has already committed status 200 and written two blocks; the
// reply closes the rows and ends with the error envelope's fields.
func TestStreamErrorAfterFirstBlock(t *testing.T) {
	s := newStreamServer(t, 1)
	// Rows 0-675 ("aaa" and two letters) match through the similarity
	// conjunct, which gives them a distance; row 703 ("aabbb", 3 edits
	// away) matches only through the id test and has none, so projecting
	// dist fails in the third block.
	stmt := `SELECT id, dist FROM words WHERE seq SIMILAR TO "aaaaa" WITHIN 2 USING edits OR id = "703"`
	rec := httptest.NewRecorder()
	postQuery(t, s, rec, map[string]any{"query": stmt})
	rows, env := midStreamReply(t, rec)
	if len(rows) != 512 || rows[511][0] != "511" {
		t.Fatalf("%d rows before the error, want the two blocks before it", len(rows))
	}
	if env.Code != "bad_request" || !strings.Contains(env.Error, "dist is not available") {
		t.Fatalf("error fields %+v", env)
	}
	if s.errors.Load() != 1 {
		t.Fatalf("errors counter %d, want 1", s.errors.Load())
	}
}

// cutRows checks the rows a reply stopped mid-stream carried: whole
// blocks, the relation's first rows in id order, not all of them.
func cutRows(t *testing.T, rows [][]string) {
	t.Helper()
	if len(rows) == 0 || len(rows)%256 != 0 || len(rows) >= len(streamWords()) {
		t.Fatalf("%d rows before the reply stopped, want some whole blocks", len(rows))
	}
	for i, r := range rows {
		if r[0] != fmt.Sprint(i) {
			t.Fatalf("row %d is %v", i, r)
		}
	}
}

// TestStreamDeadlineAfterFirstBlock: a deadline that passes while the
// first blocks are being written stops the statement at its next
// block, and the committed reply ends with the timeout's fields.
func TestStreamDeadlineAfterFirstBlock(t *testing.T) {
	s := newStreamServer(t, 1)
	rec := &blockingRecorder{ResponseRecorder: httptest.NewRecorder(), onFirst: func() { time.Sleep(150 * time.Millisecond) }}
	postQuery(t, s, rec, map[string]any{"query": `SELECT id, seq FROM words`, "timeout_ms": 50})
	rows, env := midStreamReply(t, rec.ResponseRecorder)
	cutRows(t, rows)
	if env.Code != "timeout" {
		t.Fatalf("error fields %+v, want code timeout", env)
	}
	if s.timeouts.Load() != 1 {
		t.Fatalf("timeouts counter %d, want 1", s.timeouts.Load())
	}
}

// TestStreamDeadlineBeforeFirstBlock: a deadline that passes before the
// first block answers 504 with the plain envelope, and the execution
// has stopped by then: nothing is in flight once the handler returns,
// and nothing writes after the 504. A scan that matches no row answers
// within a fraction of the time the whole statement takes.
func TestStreamDeadlineBeforeFirstBlock(t *testing.T) {
	s := newStreamServer(t, 1)
	timedOut := func(stmt string) time.Duration {
		t.Helper()
		rec := httptest.NewRecorder()
		start := time.Now()
		postQuery(t, s, rec, map[string]any{"query": stmt, "timeout_ms": 1})
		took := time.Since(start)
		if rec.Code != http.StatusGatewayTimeout {
			t.Fatalf("status %d, want 504: %.300s", rec.Code, rec.Body)
		}
		if n := s.inFlight.Load(); n != 0 {
			t.Fatalf("%d executions still in flight after the 504", n)
		}
		if env := decodeEnvelope(t, rec, rec.Body.Bytes()); env.Code != "timeout" {
			t.Fatalf("envelope %+v", env)
		}
		return took
	}
	// A self-join sorted by distance: no row leaves before every pair
	// within 1 edit of 3 000 words has been found.
	timedOut(`SELECT a.id, b.id, dist FROM words a, words b ON dist(a.seq, b.seq) <= 1 USING edits ORDER BY dist`)

	// A pattern no word is within 1 edit of: the scan emits nothing.
	const scan = `SELECT id FROM words WHERE seq SIMILAR TO PATTERN "((a|b)(c|d)|(e|f)(g|h))*xyzzy" WITHIN 1 USING edits`
	rec := httptest.NewRecorder()
	start := time.Now()
	postQuery(t, s, rec, map[string]any{"query": scan})
	whole := time.Since(start)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"row_count":0`) {
		t.Fatalf("the whole scan: status %d, %.300s", rec.Code, rec.Body)
	}
	if took := timedOut(scan); took > whole/2 {
		t.Fatalf("the 504 took %v; the whole scan takes %v", took, whole)
	}
}

// TestExplainAnalyzeReplyCarriesPlan: EXPLAIN ANALYZE through
// /v1/query answers the statement's rows plus the executed span tree in
// a "plan" field after them; a plain statement's reply has no such
// field.
func TestExplainAnalyzeReplyCarriesPlan(t *testing.T) {
	s := newStreamServer(t, 1)
	mux := s.routes()
	const stmt = `SELECT id, seq FROM words WHERE seq SIMILAR TO "aaccc" WITHIN 1 USING edits`
	plain := do(t, mux, http.MethodPost, "/v1/query", map[string]any{"query": stmt})
	analyzed := do(t, mux, http.MethodPost, "/v1/query", map[string]any{"query": "EXPLAIN ANALYZE " + stmt})
	var p, a queryResponse
	if err := json.Unmarshal(plain.Body.Bytes(), &p); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(analyzed.Body.Bytes(), &a); err != nil {
		t.Fatal(err)
	}
	if p.Plan != "" || bytes.Contains(plain.Body.Bytes(), []byte(`"plan"`)) {
		t.Fatalf("plain reply carries a plan: %s", plain.Body)
	}
	if !strings.Contains(a.Plan, "IndexRange(words via lengthview") || !strings.Contains(a.Plan, "rows=") {
		t.Fatalf("analyzed reply's plan is not the executed span tree: %q", a.Plan)
	}
	if fmt.Sprint(a.Rows) != fmt.Sprint(p.Rows) || a.RowCount != p.RowCount || p.RowCount == 0 {
		t.Fatalf("analyzed rows %v differ from the statement's %v", a.Rows, p.Rows)
	}
	if i, j := bytes.Index(analyzed.Body.Bytes(), []byte(`"rows"`)), bytes.Index(analyzed.Body.Bytes(), []byte(`"plan"`)); j < i {
		t.Fatalf("plan precedes the rows: %s", analyzed.Body)
	}
}

// TestStreamCancelledRequest: a client that goes away after the first
// write stops the statement at its next block, like a deadline.
func TestStreamCancelledRequest(t *testing.T) {
	s := newStreamServer(t, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rec := &blockingRecorder{ResponseRecorder: httptest.NewRecorder(), onFirst: cancel}
	req := httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(`{"query": "SELECT id, seq FROM words"}`)).WithContext(ctx)
	s.routes().ServeHTTP(rec, req)
	rows, env := midStreamReply(t, rec.ResponseRecorder)
	cutRows(t, rows)
	if env.Code != "timeout" {
		t.Fatalf("error fields %+v, want code timeout", env)
	}
}
