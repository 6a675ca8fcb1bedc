package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// The harness's own spans: one per call into a layer's public function,
// recorded from outside the program under test. Spans live in memory and
// are written as Chrome Trace Event JSON when the part ends. A nil
// *tracer records nothing, so one op function serves both runs.

// span is {name, start, end, parent, op id}; track is the Chrome tid
// (one per load-generating goroutine), parent an index into the
// tracer's spans or -1.
type span struct {
	name       string
	track      int
	start, end time.Duration // since tracer.t0
	parent     int
	op         int64
}

type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span now and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, track, parent int, op int64) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, track: track, start: now, end: -1, parent: parent, op: op})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// child records a span rebuilt after the fact inside an already closed
// parent — a phase the callee timed itself (a Report's ConvertOut, a
// Response's Timing). It is laid end-aligned at offset before the
// parent's end and clamped to the parent, so the trace stays nested; a
// nanosecond is shaved off its start so that back-to-back children do
// not touch once the times are written as floating-point microseconds.
func (t *tracer) child(name string, parent int, beforeEnd, dur time.Duration) {
	if t == nil || parent < 0 || dur <= 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent]
	end := max(p.end-beforeEnd, p.start)
	start := max(end-dur, p.start)
	if end-start > time.Nanosecond {
		start += time.Nanosecond
	}
	t.spans = append(t.spans, span{name: name, track: p.track, start: start, end: end, parent: parent, op: p.op})
}

// selfByOp returns, for every op id, each layer's self time in
// milliseconds: a span's duration minus the part its children cover,
// summed by span name.
func (t *tracer) selfByOp() map[int64]map[string]float64 {
	out := map[int64]map[string]float64{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	covered := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 && s.end >= s.start {
			covered[s.parent] += s.end - s.start
		}
	}
	for i, s := range t.spans {
		if s.end < s.start {
			continue // never closed: the op failed part-way
		}
		m := out[s.op]
		if m == nil {
			m = map[string]float64{}
			out[s.op] = m
		}
		m[s.name] += float64(s.end-s.start-covered[i]) / float64(time.Millisecond)
	}
	return out
}

// write stores the spans as Chrome Trace Event JSON (load it at
// https://ui.perfetto.dev): one track per load-generating goroutine,
// children nested in their parents.
func (t *tracer) write(path string) error {
	if t == nil || path == "" {
		return nil
	}
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat,omitempty"`
		Ph   string         `json:"ph"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		Args map[string]any `json:"args,omitempty"`
	}
	t.mu.Lock()
	spans := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.end >= s.start {
			spans = append(spans, s)
		}
	}
	t.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.track != b.track {
			return a.track < b.track
		}
		if a.start != b.start {
			return a.start < b.start
		}
		return a.end > b.end // parents before their children
	})
	var events []event
	seen := map[int]bool{}
	for _, s := range spans {
		if !seen[s.track] {
			seen[s.track] = true
			events = append(events, event{Name: "thread_name", Ph: "M", Pid: 1, Tid: s.track,
				Args: map[string]any{"name": fmt.Sprintf("load generator %d", s.track)}})
		}
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	for _, s := range spans {
		events = append(events, event{Name: s.name, Cat: "benchmark", Ph: "X", Pid: 1, Tid: s.track,
			TS: us(s.start), Dur: us(s.end - s.start), Args: map[string]any{"op": s.op}})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
