package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed interval of the traced run: run -> workload ->
// repetition -> generator or driver call. Times are Unix nanoseconds so
// spans recorded in a child line up with the parent's.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the spans in memory until the run ends. A nil tracer is
// tracing off: every method is a no-op, so the untraced run records
// nothing.
type tracer struct {
	spans []span
}

// begin opens a span under parent and returns its id.
func (t *tracer) begin(parent int, name string) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: time.Now().UnixNano()})
	return id
}

func (t *tracer) end(id int) {
	if t != nil && id > 0 {
		t.spans[id-1].End = time.Now().UnixNano()
	}
}

// adopt files a child process's spans under parent.
func (t *tracer) adopt(parent int, child []span) {
	if t == nil {
		return
	}
	for _, s := range child {
		s.ID, s.Parent = len(t.spans)+1, parent
		t.spans = append(t.spans, s)
	}
}

// writeChrome writes the spans as Chrome trace_event JSON (complete
// events, microseconds from the first span), viewable in Perfetto.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	doc := struct {
		TraceEvents []event `json:"traceEvents"`
	}{TraceEvents: []event{}}
	var origin int64
	if len(t.spans) > 0 {
		origin = t.spans[0].Start
	}
	for _, s := range t.spans {
		doc.TraceEvents = append(doc.TraceEvents, event{
			Name: s.Name, Cat: "benchmark", Ph: "X",
			Ts: float64(s.Start-origin) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: 1,
			Args: map[string]int{"id": s.ID, "parent": s.Parent},
		})
	}
	b, err := json.MarshalIndent(&doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
