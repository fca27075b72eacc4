package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded by the harness around a call into
// a layer. Start and End are nanoseconds since the tracer was created;
// Parent indexes the span that caused this one (-1 for a root); spans of
// one request share Req.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends; nothing is written
// while requests are in flight.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records one span and returns its index, for use as a Parent.
func (t *tracer) add(name string, start, end time.Time, parent, req int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Name: name, Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
		Parent: parent, Req: req,
	})
	return len(t.spans) - 1
}

// timed runs fn inside a span.
func (t *tracer) timed(name string, parent, req int, fn func()) int {
	start := time.Now()
	fn()
	return t.add(name, start, time.Now(), parent, req)
}

// durationsUS returns the duration, in microseconds, of every span
// called name.
func (t *tracer) durationsUS(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/1e3)
		}
	}
	return out
}

func (t *tracer) write(path string) error {
	buf, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its child spans cover. Overlapping children are
// counted once, and a child is clipped to its parent's interval.
func selfTimes(spans []span) []int64 {
	children := make([][]span, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// selfCoverage is the sum of all self times over the sum of the root
// spans' durations: 1 when every child lies inside its parent, which is
// what makes per-layer self times add up to the replayed request time.
func selfCoverage(spans []span) float64 {
	var selfSum, rootSum int64
	for i, d := range selfTimes(spans) {
		selfSum += d
		if spans[i].Parent < 0 {
			rootSum += spans[i].dur()
		}
	}
	if rootSum == 0 {
		return 0
	}
	return float64(selfSum) / float64(rootSum)
}
