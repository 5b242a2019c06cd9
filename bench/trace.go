package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a library layer, recorded from inside
// bench/ around the public function it wraps. Parent is the index of
// the enclosing span in the trace (-1 for a root); Iter numbers the
// repetition of the workload step the span belongs to.
type span struct {
	Name     string `json:"name"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
	Iter     int    `json:"iter"`
	StartNS  int64  `json:"start"`
	EndNS    int64  `json:"end"`
}

// tracer keeps spans in memory until the run ends. Traced passes are
// single-goroutine, so it needs no lock.
type tracer struct {
	t0       time.Time
	workload string
	on       bool // off: do still times the call but records nothing
	spans    []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), on: true} }

func (t *tracer) begin(name string, parent, iter int) int {
	t.spans = append(t.spans, span{
		Name: name, Parent: parent, Workload: t.workload, Iter: iter,
		StartNS: time.Since(t.t0).Nanoseconds(),
	})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id]
	s.EndNS = time.Since(t.t0).Nanoseconds()
	return time.Duration(s.EndNS - s.StartNS)
}

// do wraps one call in a span.
func (t *tracer) do(name string, parent, iter int, fn func()) time.Duration {
	if !t.on {
		start := time.Now()
		fn()
		return time.Since(start)
	}
	id := t.begin(name, parent, iter)
	fn()
	return t.end(id)
}

// seconds returns the durations of the current workload's spans with the
// given name, in seconds, in recording order.
func (t *tracer) seconds(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.Workload == t.workload {
			out = append(out, float64(s.EndNS-s.StartNS)/1e9)
		}
	}
	return out
}

// selfTimes derives each span's self time: its duration minus the
// durations of its direct children.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.EndNS - s.StartNS
		if s.Parent >= 0 {
			self[s.Parent] -= s.EndNS - s.StartNS
		}
	}
	return self
}

// traceFile is what lands in trace.json.
type traceFile struct {
	Unit  string  `json:"unit"`
	Spans []span  `json:"spans"`
	Self  []int64 `json:"self"`
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(traceFile{Unit: "ns since trace start", Spans: t.spans, Self: selfTimes(t.spans)})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
