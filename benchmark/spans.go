package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer. Spans of one
// operation share a trace; parent names the span that caused this one.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"` // 0: a root
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the log was opened
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// record appends a root span of its own trace.
func (l *spanLog) record(name, trace string, start time.Time, d time.Duration) int {
	return l.child(0, name, trace, start, d)
}

// child appends a span under parent. The onion replay runs the same input
// slice once per depth, so a replay span's children did not run inside its
// wall-clock interval: they are the same work one layer further in, stitched
// under it by the shared trace.
func (l *spanLog) child(parent int, name, trace string, start time.Time, d time.Duration) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	if trace == "" {
		trace = name
	}
	s := start.Sub(l.epoch)
	l.spans = append(l.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Start: int64(s), End: int64(s + d)})
	return id
}

// selfTimes returns, per span name, the summed duration of its spans minus
// the part their children cover. A child is taken to cover its own duration,
// never more than the parent's.
func selfTimes(spans []span) map[string]time.Duration {
	covered := make(map[int]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	self := make(map[string]time.Duration)
	for _, s := range spans {
		d := s.End - s.Start
		self[s.Name] += time.Duration(d - min(d, covered[s.ID]))
	}
	return self
}

func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{l.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
