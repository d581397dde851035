package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

func TestMedianAndPercentile(t *testing.T) {
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %g, want 0", got)
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %g, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g, want 2.5", got)
	}
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {100, 100}, {1, 1}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if v[0] != 100 {
		t.Error("percentile sorted its argument in place")
	}
	if got := mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("mean = %g, want 3", got)
	}
}

func TestRepeatHonoursCountAndWindow(t *testing.T) {
	calls := 0
	secs, _ := repeat(0, 3, func(int) { calls++ })
	if calls != 3 || len(secs) != 3 {
		t.Errorf("window 0, min 3: %d calls, %d samples", calls, len(secs))
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "phase", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "op", Start: 1, End: 4},
		{ID: 3, Parent: 1, Name: "op", Start: 3, End: 6}, // overlaps span 2
		{ID: 4, Parent: 2, Name: "leaf", Start: 2, End: 3},
		{ID: 5, Parent: 1, Name: "late", Start: 9, End: 12}, // runs past its parent
	}
	self := selfTimes(spans)
	want := map[string]float64{
		"phase": 10 - (5 + 1), // children cover [1,6] and [9,10]
		"op":    (3 - 1) + 3,  // span 2 loses its leaf, span 3 has none
		"leaf":  1,
		"late":  3,
	}
	for name, w := range want {
		if math.Abs(self[name]-w) > 1e-12 {
			t.Errorf("self[%s] = %g, want %g", name, self[name], w)
		}
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	tr.end(tr.begin("x", 0)) // must not panic
}

// Same seed, same bytes; another seed, other bytes.
func TestInputsDeriveFromSeed(t *testing.T) {
	w := findWorkload("fleet-node")
	gen := func(seed int64) ([]byte, []byte) {
		in, err := w.generate(w.smoke, seed, 0, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		var csv []byte
		for _, p := range in.problems {
			csv = append(csv, p.csv...)
			onDisk, err := os.ReadFile(p.path)
			if err != nil || !bytes.Equal(onDisk, p.csv) {
				t.Fatalf("%s does not hold the generated bytes: %v", p.path, err)
			}
		}
		manifest, err := json.Marshal(in.manifest)
		if err != nil {
			t.Fatal(err)
		}
		if len(in.manifest) != w.smoke.tasks+w.smoke.dups {
			t.Fatalf("manifest has %d rows, want %d", len(in.manifest), w.smoke.tasks+w.smoke.dups)
		}
		return csv, manifest
	}
	csv1, man1 := gen(1)
	csv1b, man1b := gen(1)
	csv2, man2 := gen(2)
	if !bytes.Equal(csv1, csv1b) || !bytes.Equal(man1, man1b) {
		t.Error("the same seed generated different inputs")
	}
	if bytes.Equal(csv1, csv2) || bytes.Equal(man1, man2) {
		t.Error("different seeds generated the same inputs")
	}
}

// BENCHMARK.json and the code must name the same workloads and metrics.
func TestManifestMatchesCode(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var m struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	ws := workloads()
	if len(m.Workloads) != len(ws) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(m.Workloads), len(ws))
	}
	for i, w := range ws {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, code has %q (or their reasons differ)", i, m.Workloads[i].Name, w.name)
		}
		if !name.MatchString(w.name) || len(w.why) > 200 {
			t.Errorf("workload %q: bad name or a reason over 200 characters", w.name)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in code", kind, len(got), len(want))
		}
		seen := map[string]bool{}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s[%d]: BENCHMARK.json has %v, code has %s %s %s", kind, i, g, d.Name, d.Unit, d.Better)
			}
			if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") || seen[d.Name] {
				t.Errorf("%s %q: bad or repeated name, unit %q or direction %q", kind, d.Name, d.Unit, d.Better)
			}
			seen[d.Name] = true
			switch {
			case bounded && (g.Bound == nil || *g.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25):
				t.Errorf("%s %q: bound in BENCHMARK.json and code must agree and lie in (0, 0.25]", kind, d.Name)
			case !bounded && g.Bound != nil:
				t.Errorf("%s %q carries a bound", kind, d.Name)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd, true)
	check("per_layer", m.PerLayer, perLayer, false)
	if m.RunSeconds < 1 || m.RunSeconds > 60 || len(m.Paths) != 1 || m.Paths[0] != "benchmark" {
		t.Errorf("run_seconds %d or paths %v out of contract", m.RunSeconds, m.Paths)
	}
}

// A smoke-sized pass through all five phases, on one node and through
// the coordinator; the traced one also exercises every layer replay.
func TestSmokePass(t *testing.T) {
	if testing.Short() {
		t.Skip("boots daemons and learns; skipped under -short")
	}
	for _, c := range []struct {
		workload string
		trace    bool
	}{{"fleet-node", false}, {"fleet-coord", true}} {
		t.Run(c.workload, func(t *testing.T) {
			t.Chdir(t.TempDir())
			var log bytes.Buffer
			out, err := runWorkload(config{workload: c.workload, seed: 3, seconds: 0.2, trace: c.trace, outDir: "out", smoke: true}, &log)
			if err != nil {
				t.Fatal(err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
				t.Fatalf("%d of %d operations failed:\n%s", out.Failed, out.Attempted, log.String())
			}
			defs := endToEnd
			if c.trace {
				defs = perLayer
				if _, err := os.Stat(filepath.Join("out", "trace-"+c.workload+".json")); err != nil {
					t.Errorf("no trace file: %v", err)
				}
			}
			if len(out.Metrics) != len(defs) {
				t.Errorf("%d metrics reported, %d declared", len(out.Metrics), len(defs))
			}
			for _, d := range defs {
				if v, ok := out.Metrics[d.Name]; !ok || v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("metric %s: %+v", d.Name, v)
				}
			}
			if left, _ := filepath.Glob(filepath.Join(buildDir, "work-*")); len(left) != 0 {
				t.Errorf("work directories left behind: %v", left)
			}
		})
	}
}

func TestListNamesEverything(t *testing.T) {
	var buf bytes.Buffer
	if code := cli([]string{"-list"}, &buf, io.Discard); code != 0 {
		t.Fatalf("-list exited %d", code)
	}
	for _, w := range workloads() {
		if !bytes.Contains(buf.Bytes(), []byte(w.name)) {
			t.Errorf("-list omits workload %s", w.name)
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !bytes.Contains(buf.Bytes(), []byte(d.Name)) {
			t.Errorf("-list omits metric %s", d.Name)
		}
	}
}
