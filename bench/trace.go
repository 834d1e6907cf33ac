package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one traced call into a layer: a name (layer.operation), the
// span that caused it, and the workload it belongs to.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // -1 for a root
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNs  int64  `json:"start_ns"` // since the tracer was created
	EndNs    int64  `json:"end_ns"`
}

// tracer records spans around the driver's calls into internal/*. It
// keeps them in memory and writes them out once, when the run ends. A
// nil *tracer is the untraced pass: begin and end do nothing, so the
// call sites are the same in both passes.
type tracer struct {
	workload string
	t0       time.Time
	mu       sync.Mutex
	spans    []span
	// selfNs is the time spent inside begin/end themselves — the
	// tracer's own cost, reported as part of proc.trace_overhead.
	selfNs int64
}

const noSpan = -1

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return noSpan
	}
	now := time.Now()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Workload: t.workload,
		StartNs: now.Sub(t.t0).Nanoseconds(),
	})
	t.selfNs += time.Since(now).Nanoseconds()
	t.mu.Unlock()
	return id
}

// end closes a span and returns its duration (0 when untraced).
func (t *tracer) end(id int) time.Duration {
	if t == nil || id == noSpan {
		return 0
	}
	now := time.Now()
	t.mu.Lock()
	s := &t.spans[id]
	s.EndNs = now.Sub(t.t0).Nanoseconds()
	d := time.Duration(s.EndNs - s.StartNs)
	t.selfNs += time.Since(now).Nanoseconds()
	t.mu.Unlock()
	return d
}

// seconds is the summed duration of every span with the given name.
func (t *tracer) seconds(name string) float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var ns int64
	for _, s := range t.spans {
		if s.Name == name {
			ns += s.EndNs - s.StartNs
		}
	}
	return float64(ns) / 1e9
}

// durations lists the duration in seconds of each span with the name.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.EndNs-s.StartNs)/1e9)
		}
	}
	return out
}

// selfSeconds returns, per span name, duration minus the part covered
// by direct children: the time a layer spent itself.
func (t *tracer) selfSeconds() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNs - s.StartNs
		}
	}
	out := make(map[string]float64)
	for _, s := range t.spans {
		out[s.Name] += float64(s.EndNs-s.StartNs-child[s.ID]) / 1e9
	}
	return out
}

// write dumps the spans and the per-name self times as one JSON file.
func (t *tracer) write(path string) error {
	self := t.selfSeconds()
	t.mu.Lock()
	doc := struct {
		Workload    string             `json:"workload"`
		Spans       []span             `json:"spans"`
		SelfSeconds map[string]float64 `json:"self_seconds"`
	}{t.workload, t.spans, self}
	data, err := json.MarshalIndent(doc, "", " ")
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
