package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"mobiletel/internal/dyngraph"
	"mobiletel/internal/graph"
)

// span is one timed call into a layer. Spans of one op (an election, a
// round, an experiment) share Op. An aggregated span (GraphAt) stands for
// Count calls whose durations sum to Dur; Start is its first call's start.
type span struct {
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Parent int    `json:"parent"` // index into the span list, -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Dur    int64  `json:"dur_ns"`
	Count  int64  `json:"count"`
}

// tracer records spans in memory; they are written out when the run ends.
// A nil *tracer records nothing and reads no clock, so untraced runs share
// the traced code path at the cost of one nil check per layer call.
type tracer struct {
	base  time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(op int64, parent int, name string) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Op: op, Name: name, Parent: parent, Start: t.now(), Count: 1})
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	s := &t.spans[i]
	s.End = t.now()
	s.Dur = s.End - s.Start
}

// record adds a span timed by the caller: count calls totalling dur ns
// under parent, the first starting at start (ns since the tracer's base).
// It returns the span's index, or -1 when nothing was recorded.
func (t *tracer) record(op int64, parent int, name string, start, dur, count int64) int {
	if t == nil || count == 0 {
		return -1
	}
	t.spans = append(t.spans, span{Op: op, Name: name, Parent: parent,
		Start: start, End: start + dur, Dur: dur, Count: count})
	return len(t.spans) - 1
}

// selfTimes returns each span's duration minus the time its children
// cover. Children of one parent never overlap (the benchmark is a single
// closed-loop client), so the covered time is the sum of their durations.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.Dur
		if s.Parent >= 0 {
			self[s.Parent] -= s.Dur
		}
	}
	for i := range self {
		if self[i] < 0 {
			self[i] = 0
		}
	}
	return self
}

// layerTime sums duration, self time and calls per span name.
type layerTime struct {
	Name      string
	Spans     int64
	Calls     int64
	Dur, Self int64
}

func summarize(spans []span) []layerTime {
	self := selfTimes(spans)
	byName := map[string]*layerTime{}
	var names []string
	for i, s := range spans {
		lt, ok := byName[s.Name]
		if !ok {
			lt = &layerTime{Name: s.Name}
			byName[s.Name] = lt
			names = append(names, s.Name)
		}
		lt.Spans++
		lt.Calls += s.Count
		lt.Dur += s.Dur
		lt.Self += self[i]
	}
	sort.Strings(names)
	out := make([]layerTime, len(names))
	for i, n := range names {
		out[i] = *byName[n]
	}
	return out
}

// totals is the summed duration of each span name, in seconds.
func (t *tracer) totals() map[string]float64 {
	out := map[string]float64{}
	for _, s := range t.spans {
		out[s.Name] += float64(s.Dur) / 1e9
	}
	return out
}

// write stores the spans as JSON lines in dir/spans-<workload>.jsonl.
func (t *tracer) write(dir, workload string) (string, error) {
	path := filepath.Join(dir, "spans-"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close() // the encode error is the one to report
			return "", fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // the flush error is the one to report
		return "", fmt.Errorf("writing spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("writing spans: %w", err)
	}
	return path, nil
}

// timedSchedule wraps a schedule to time GraphAt, the only schedule method
// the engine calls per round. A call that returns a different graph than
// the previous call is an epoch rebuild.
type timedSchedule struct {
	dyngraph.Schedule
	tr *tracer

	first, ns, calls, rebuilds, rebuildNS int64
	last                                  *graph.Graph
}

func (s *timedSchedule) GraphAt(r int) *graph.Graph {
	t0 := s.tr.now()
	g := s.Schedule.GraphAt(r)
	d := s.tr.now() - t0
	if s.calls == 0 {
		s.first = t0
	}
	s.calls++
	s.ns += d
	if s.last != nil && g != s.last {
		s.rebuilds++
		s.rebuildNS += d
	}
	s.last = g
	return g
}

// flush records the calls since the last flush as one aggregated span
// under parent and resets the call counters.
func (s *timedSchedule) flush(op int64, parent int) {
	s.tr.record(op, parent, "dyngraph.GraphAt", s.first, s.ns, s.calls)
	s.calls, s.ns = 0, 0
}
