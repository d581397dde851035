package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded by the benchmark's own code
// around a phase or a call into a layer. Parent 0 means a root span;
// all spans of a run share the workload id.
type span struct {
	ID       int     `json:"id"`
	Parent   int     `json:"parent"`
	Name     string  `json:"name"`
	Workload string  `json:"workload"`
	Start    float64 `json:"start_s"`
	End      float64 `json:"end_s"`
}

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, which is how untraced runs pay no tracing cost.
type tracer struct {
	workload string
	t0       time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// begin opens a span under parent and returns its id (0 when tracing
// is off).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Workload: t.workload, Start: now, End: now})
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of it its direct children cover (children
// may overlap each other, so their union is subtracted, not their sum).
func selfTimes(spans []span) map[string]float64 {
	children := make(map[int][][2]float64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	out := make(map[string]float64)
	for _, s := range spans {
		out[s.Name] += (s.End - s.Start) - covered(children[s.ID], s.Start, s.End)
	}
	return out
}

// covered is the length of the union of intervals, clipped to [lo, hi].
func covered(iv [][2]float64, lo, hi float64) float64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total float64
	at := lo
	for _, c := range iv {
		a, b := c[0], c[1]
		if a < at {
			a = at
		}
		if b > hi {
			b = hi
		}
		if b > a {
			total += b - a
			at = b
		}
	}
	return total
}

// write stores the spans as JSON under dir and prints the per-layer
// self-time table.
func (t *tracer) write(dir string, w io.Writer) (string, error) {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, "trace-"+t.workload+".json")
	b, err := json.Marshal(spans)
	if err != nil {
		return "", fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	self := selfTimes(spans)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintf(w, "%-40s %12s\n", "span", "self_s")
	for _, n := range names {
		fmt.Fprintf(w, "%-40s %12.4f\n", n, self[n])
	}
	return path, nil
}
