package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer's exported
// function (or, for "httpapi.ServeHTTP", the server process's wrapper
// around the wire handler). Spans of one request share Req; Parent names
// the span that caused this one (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    int64  `json:"req,omitempty"`
	Start  int64  `json:"start_unix_ns"`
	End    int64  `json:"end_unix_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// add records a finished span and returns its ID.
func (t *tracer) add(name string, parent, req int64, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req,
		Start: start.UnixNano(), End: end.UnixNano()})
	return id
}

// adopt appends spans recorded elsewhere (the server process), parenting
// each under the local span of the same request when there is one.
func (t *tracer) adopt(remote []span, parentName string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	byReq := map[int64]int64{}
	for _, s := range t.spans {
		if s.Name == parentName && s.Req != 0 {
			byReq[s.Req] = s.ID
		}
	}
	for _, s := range remote {
		s.ID = int64(len(t.spans) + 1)
		s.Parent = byReq[s.Req]
		t.spans = append(t.spans, s)
	}
}

// total sums the durations of every span with the given name.
func (t *tracer) total(name string) (sum time.Duration, n int) {
	if t == nil {
		return 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Name == name {
			sum += s.dur()
			n++
		}
	}
	return sum, n
}

// write dumps the spans as a JSON array.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
