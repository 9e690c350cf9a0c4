package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// Spans recorded by the traced pass, from the benchmark's own files
// around the calls into each layer. They are kept in memory and written
// once, when the pass ends, as Chrome trace-event JSON (open the file in
// chrome://tracing or https://ui.perfetto.dev).

// span is one timed interval at a layer boundary. Spans of one request
// share its id; parent names the span that caused this one.
type span struct {
	name       string
	request    string
	parent     string
	lane       int
	start, end time.Time
}

type spanLog struct {
	mu    sync.Mutex
	spans []span
	epoch time.Time
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// timed runs fn as a span and returns its duration.
func (l *spanLog) timed(name, request, parent string, lane int, fn func()) time.Duration {
	s := span{name: name, request: request, parent: parent, lane: lane, start: time.Now()}
	fn()
	s.end = time.Now()
	l.add(s)
	return s.end.Sub(s.start)
}

func (l *spanLog) add(s span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// write renders the spans as complete ("X") trace events.
func (l *spanLog) write(path string) error {
	type event struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`  // µs since the pass began
		Dur  float64           `json:"dur"` // µs
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Args map[string]string `json:"args,omitempty"`
	}
	l.mu.Lock()
	events := make([]event, len(l.spans))
	for i, s := range l.spans {
		events[i] = event{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.lane,
			Ts:   float64(s.start.Sub(l.epoch)) / float64(time.Microsecond),
			Dur:  float64(s.end.Sub(s.start)) / float64(time.Microsecond),
			Args: map[string]string{"request": s.request, "parent": s.parent},
		}
	}
	l.mu.Unlock()
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
