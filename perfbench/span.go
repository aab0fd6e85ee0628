package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer. Spans are recorded only around
// the benchmark's own calls into the program, at operation granularity,
// never per reference.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 for a root span
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // wall seconds since the recorder started
	End    float64 `json:"end_s"`
	CPU    float64 `json:"cpu_s"`      // process CPU seconds inside the span
	Self   float64 `json:"self_cpu_s"` // CPU minus that of child spans
}

// recorder keeps spans in memory until the run writes them out. A nil
// recorder records nothing, which is how untraced passes run.
type recorder struct {
	t0    time.Time
	spans []span
	open  []int // stack of open span indexes
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span under the innermost open span and returns a
// function that closes it.
func (r *recorder) begin(name string) func() {
	if r == nil {
		return func() {}
	}
	parent := 0
	if n := len(r.open); n > 0 {
		parent = r.spans[r.open[n-1]].ID
	}
	i := len(r.spans)
	r.spans = append(r.spans, span{ID: i + 1, Parent: parent, Name: name, Start: time.Since(r.t0).Seconds()})
	r.open = append(r.open, i)
	cpu0 := cpuNow()
	return func() {
		s := &r.spans[i]
		s.CPU = cpuNow() - cpu0
		s.End = time.Since(r.t0).Seconds()
		r.open = r.open[:len(r.open)-1]
	}
}

// selfTimes fills each span's self CPU time: its CPU time minus the part
// its child spans cover.
func (r *recorder) selfTimes() {
	for i := range r.spans {
		r.spans[i].Self = r.spans[i].CPU
	}
	for _, s := range r.spans {
		if s.Parent > 0 {
			r.spans[s.Parent-1].Self -= s.CPU
		}
	}
}

// write stores the spans and the accompanying report as one JSON file.
func (r *recorder) write(path string, report any) error {
	r.selfTimes()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(struct {
		Spans  []span `json:"spans"`
		Report any    `json:"report"`
	}{r.spans, report}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
