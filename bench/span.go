package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of the traced pass. Spans are recorded from
// the harness's side of each layer boundary: around calls into a layer's
// public functions, or around a process / HTTP round trip.
type span struct {
	Name     string        `json:"name"`
	Start    time.Duration `json:"start"` // since the tracer's epoch
	End      time.Duration `json:"end"`
	Parent   int           `json:"parent"` // index into the span list, -1 for a root
	Workload string        `json:"workload"`
	Op       int           `json:"op"`
	Rep      int           `json:"rep"`
}

func (s span) duration() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. It is safe for the
// two client goroutines of the fleet-burst loop.
type tracer struct {
	mu       sync.Mutex
	epoch    time.Time
	workload string
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{epoch: time.Now(), workload: workload}
}

// begin opens a span and returns its index, which the caller passes to
// end and uses as the parent of nested spans.
func (t *tracer) begin(name string, parent, op, rep int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Name: name, Parent: parent, Workload: t.workload, Op: op, Rep: rep,
		Start: time.Since(t.epoch),
	})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) time.Duration {
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	return now - t.spans[id].Start
}

// millis returns the durations of every span with the given name, in
// milliseconds, in recording order.
func (t *tracer) millis(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.duration())/float64(time.Millisecond))
		}
	}
	return out
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its direct children cover. Children may overlap each
// other (two clients under one loop span) and are clipped to the parent,
// so the covered part is the measure of the union of their intervals.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		var covered time.Duration
		edge := s.Start // everything before edge is already counted
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.duration() - covered
	}
	return self
}

// writeChrome writes the spans as Chrome trace-event JSON (open in
// Perfetto or chrome://tracing). Each root span and its descendants share
// a track; self time rides in args.
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()

	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`  // microseconds
		Dur  float64        `json:"dur"` // microseconds
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	self := selfTimes(spans)
	track := make([]int, len(spans))
	events := make([]event, len(spans))
	for i, s := range spans {
		track[i] = i
		if s.Parent >= 0 {
			track[i] = track[s.Parent]
		}
		events[i] = event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: track[i],
			Ts:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.duration()) / float64(time.Microsecond),
			Args: map[string]any{
				"workload": s.Workload, "op": s.Op, "rep": s.Rep, "parent": s.Parent,
				"self_us": float64(self[i]) / float64(time.Microsecond),
			},
		}
	}
	data, err := json.Marshal(struct {
		TraceEvents []event `json:"traceEvents"`
	}{events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
