package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// session drives one running simqd with one workload's sequence.
type session struct {
	w      *httpWorkload
	seq    *sequence
	srv    *server
	client *http.Client
	heads  [][]byte // per prepared statement: `{"id":"pN","params":`

	// ingest_mix bookkeeping for the durability check: every write ever
	// sent to this server, and the ones it acknowledged (id -> seq).
	writes atomic.Int64
	mu     sync.Mutex
	sent   map[string]bool
	acked  map[int]string
}

func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout:   10 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 2 * clients},
	}
}

// post sends one JSON body and returns the response body in buf.
func post(client *http.Client, url string, body []byte, buf *bytes.Buffer) error {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(buf.Bytes()))
	}
	return nil
}

// openSession starts a fresh simqd for w on its default flags, prepares
// the workload's statements and answers the first op of every statement
// shape, which also triggers the lazy index builds. The time from
// process start to the last of those answers is the workload's set-up
// time.
func openSession(e *env, w *httpWorkload, seq *sequence) (*session, time.Duration, error) {
	var args []string
	for _, d := range w.data {
		args = append(args, "-load", d.loadFlag(e))
	}
	if w.wal {
		args = append(args, "-wal", e.newWAL(), "-wal-sync", "-group-commit")
	}
	client := newHTTPClient()
	srv, err := e.startServer(client, args...)
	if err != nil {
		return nil, 0, err
	}
	s := &session{w: w, seq: seq, srv: srv, client: client, sent: map[string]bool{}, acked: map[int]string{}}
	var buf bytes.Buffer
	for _, stmt := range w.prepared {
		if err := post(client, srv.base+"/v1/prepare", mustJSON(map[string]string{"query": stmt}), &buf); err != nil {
			return nil, 0, s.fail(fmt.Errorf("prepare %q: %w", stmt, err))
		}
		var out struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(buf.Bytes(), &out); err != nil || out.ID == "" {
			return nil, 0, s.fail(fmt.Errorf("prepare %q: bad reply %s", stmt, buf.Bytes()))
		}
		s.heads = append(s.heads, []byte(`{"id":"`+out.ID+`","params":`))
	}
	shapes := map[[2]int]bool{}
	for _, o := range seq.ops {
		shape := [2]int{o.stmt, 0}
		if o.write {
			shape[1] = 1
		}
		if shapes[shape] {
			continue
		}
		shapes[shape] = true
		if _, err := s.do(o, &buf, nil); err != nil {
			return nil, 0, s.fail(fmt.Errorf("first answer: %w", err))
		}
	}
	return s, time.Since(srv.started), nil
}

// fail stops the server and attaches its stderr to err.
func (s *session) fail(err error) error {
	s.srv.kill()
	return fmt.Errorf("%w\nserver stderr:\n%s", err, s.srv.stderr.String())
}

func (s *session) close() { s.srv.kill() }

// do issues one op and leaves the raw reply in buf. With a non-nil r the
// reply is decoded into it; writes are always decoded, to learn the
// acknowledged id.
func (s *session) do(o op, buf *bytes.Buffer, r *reply) (time.Duration, error) {
	var body []byte
	path := "/v1/query"
	var word string
	switch {
	case o.write:
		path = "/v1/ingest"
		word = ingestWord(int(s.writes.Add(1)))
		body = []byte(`{"relation":"words","rows":[{"seq":"` + word + `","attrs":{"src":"bench"}}]}`)
		s.mu.Lock()
		s.sent[word] = true
		s.mu.Unlock()
	case o.stmt >= 0:
		head := s.heads[o.stmt]
		body = make([]byte, 0, len(head)+len(o.tail)+1)
		body = append(append(append(body, head...), o.tail...), '}')
	default:
		body = o.tail
	}
	start := time.Now()
	err := post(s.client, s.srv.base+path, body, buf)
	lat := time.Since(start)
	if err != nil {
		return lat, err
	}
	if o.write {
		var wr reply
		if err := json.Unmarshal(buf.Bytes(), &wr); err != nil || len(wr.IDs) != 1 {
			return lat, fmt.Errorf("ingest reply %s", buf.Bytes())
		}
		s.mu.Lock()
		s.acked[wr.IDs[0]] = word
		s.mu.Unlock()
		return lat, nil
	}
	if r != nil {
		if err := json.Unmarshal(buf.Bytes(), r); err != nil {
			return lat, fmt.Errorf("query reply: %w", err)
		}
	}
	return lat, nil
}

// rec is what one replayed op left behind. The reply fields are filled
// only when the replay decodes replies.
type rec struct {
	start     int64 // ns since the replay began
	lat       int64 // ns, as the client saw it
	write     bool
	ok        bool
	elapsedMS float64 // the reply's own elapsed_ms
	cand      int
	verif     int
	rows      int
	bytes     int
	hit       bool
}

// replayOpts selects what a replay covers and what it keeps.
type replayOpts struct {
	first  int            // sequence position of the first op; positions wrap
	count  int            // ops to issue; 0 means until window runs out
	window time.Duration  // stop issuing after this long; 0 means count only
	decode bool           // decode every reply (the traced run)
	tr     *tracer        // record client and handler spans
	keep   map[int]bool   // sequence indices whose first raw reply the oracle gets
	kept   map[int][]byte // where those replies go: sequence index -> raw reply
}

type replayResult struct {
	recs   []rec
	wall   time.Duration
	errs   []string // first few failures, for the report
	unsent int      // ops of a counted replay cut off by the deadline
}

// replayDeadline bounds a counted replay; ops it cuts off count as
// failed.
const replayDeadline = 60 * time.Second

// replay runs the closed loop: `clients` goroutines take the next
// position from a shared counter, so the ops issued are always a prefix
// of the sequence whatever the interleaving.
func (s *session) replay(o replayOpts) replayResult {
	var next atomic.Int64
	var mu sync.Mutex
	var res replayResult
	begin := time.Now()
	stopAt := begin.Add(replayDeadline)
	if o.window > 0 {
		stopAt = begin.Add(o.window)
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			var recs []rec
			var r reply
			for {
				pos := int(next.Add(1) - 1)
				if (o.count > 0 && pos >= o.count) || time.Now().After(stopAt) {
					break
				}
				idx := (o.first + pos) % len(s.seq.ops)
				cur := s.seq.ops[idx]
				var rp *reply
				if o.decode && !cur.write {
					r = reply{}
					rp = &r
				}
				start := time.Now()
				lat, err := s.do(cur, &buf, rp)
				rc := rec{start: start.Sub(begin).Nanoseconds(), lat: lat.Nanoseconds(),
					write: cur.write, ok: err == nil, bytes: buf.Len()}
				if rp != nil && err == nil {
					rc.elapsedMS, rc.cand, rc.verif = r.ElapsedMS, r.Stats.Candidates, r.Stats.Verifications
					rc.rows, rc.hit = len(r.Rows), r.Stats.PlanCacheHit
					if o.tr != nil {
						// The reply carries only the handler's duration, so its
						// span is centred in the client's: the two gaps are the
						// request and response halves of the HTTP overhead.
						end := start.Add(lat)
						handler := min(time.Duration(r.ElapsedMS*1e6), lat)
						hs := start.Add((lat - handler) / 2)
						root := o.tr.add("client.request", start, end, -1, pos)
						o.tr.add("simqd.handler", hs, hs.Add(handler), root, pos)
					}
				}
				recs = append(recs, rc)
				if err != nil || (o.keep[idx] && !cur.write) {
					mu.Lock()
					if err != nil && len(res.errs) < 5 {
						res.errs = append(res.errs, fmt.Sprintf("op %d: %v", pos, err))
					}
					if _, dup := o.kept[idx]; err == nil && !dup {
						o.kept[idx] = append([]byte(nil), buf.Bytes()...)
					}
					mu.Unlock()
				}
			}
			mu.Lock()
			res.recs = append(res.recs, recs...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	res.wall = time.Since(begin)
	if o.count > 0 && len(res.recs) < o.count {
		res.unsent = o.count - len(res.recs)
	}
	return res
}

// warm issues the workload's warm-up: the warmOps positions of the
// sequence that come before position next, unrecorded. The replay then
// starts at next, so the caches hold what a server that has been cycling
// over the sequence would hold, and no warm-up statement is met again
// before the whole plan cache has turned over.
func (s *session) warm(next int) error {
	n, cycle := s.w.warmOps, len(s.seq.ops)
	res := s.replay(replayOpts{first: ((next-n)%cycle + cycle) % cycle, count: n})
	if len(res.errs) > 0 {
		return fmt.Errorf("warm-up: %s", res.errs[0])
	}
	return nil
}
