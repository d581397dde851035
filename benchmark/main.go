// Command benchmark is the repository's performance ledger: four
// workloads driven from outside the system - the public library API,
// loopback HTTP against in-process leastd and leastcoord stacks - that
// report seven end-to-end metrics, and with -trace 1 the per-layer
// numbers that explain them. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// buildDir holds everything a run leaves behind other than trace
// files: generated CSVs, journals, and (through run.sh) the binary and
// the Go build cache. It is relative to the working directory so a run
// never writes outside its checkout.
const buildDir = ".bench_build"

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string
	smoke    bool
}

// outcome is the last line a run prints.
type outcome struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]jsonStat `json:"metrics"`
}

type jsonStat struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "", "workload to run, or \"all\" (see -list)")
	fs.Int64Var(&cfg.seed, "seed", 1, "draws the observations, the duplicate choice and the query mix")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "measured seconds a run aims for; phase windows are shares of it and never under 3 s")
	trace := fs.Int("trace", 0, "1 records spans and prints the per-layer metrics instead of the end-to-end ones")
	fs.StringVar(&cfg.outDir, "out", filepath.Join("benchmark", "out"), "directory for trace files")
	scale := fs.String("scale", "full", "full, or smoke for the seconds-long pass the tests run")
	list := fs.Bool("list", false, "print workload and metric names and exit")
	selfcheck := fs.Bool("selfcheck", false, "run every workload as two interleaved series and compare their medians to the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = *trace != 0
	cfg.smoke = *scale == "smoke"
	switch {
	case *list:
		printList(stdout)
		return 0
	case *selfcheck:
		return selfCheck(cfg, stdout, stderr)
	case cfg.workload == "all":
		return runAll(cfg, stdout, stderr)
	case findWorkload(cfg.workload) == nil:
		fmt.Fprintf(stderr, "benchmark: unknown workload %q (see -list)\n", cfg.workload)
		return 2
	case *scale != "full" && *scale != "smoke", cfg.seconds <= 0:
		fmt.Fprintln(stderr, "benchmark: -scale is full or smoke, -seconds is positive")
		return 2
	}
	out, err := runWorkload(cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !out.Correct {
		return 1
	}
	return 0
}

// childArgs is the flag list that reproduces cfg for one workload.
func childArgs(cfg config, workload string, seed int64) []string {
	trace, scale := "0", "full"
	if cfg.trace {
		trace = "1"
	}
	if cfg.smoke {
		scale = "smoke"
	}
	return []string{"-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(cfg.seconds),
		"-trace", trace, "-out", cfg.outDir, "-scale", scale}
}

// runAll runs every workload in its own process, one after the other.
func runAll(cfg config, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	code := 0
	for _, w := range workloads() {
		cmd := exec.Command(self, childArgs(cfg, w.name, cfg.seed)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// runWorkload is one run: set-up (repeated, so its median is not one
// sample), the measured pass, and with tracing the layer replays.
func runWorkload(cfg config, stdout io.Writer) (outcome, error) {
	w := findWorkload(cfg.workload)
	procs := runtime.NumCPU()
	if procs > totalSlots {
		procs = totalSlots
	}
	runtime.GOMAXPROCS(procs)
	fmt.Fprintf(stdout, "workload=%s seed=%d seconds=%g trace=%v nproc=%d GOMAXPROCS=%d go=%s commit=%s\n",
		w.name, cfg.seed, cfg.seconds, cfg.trace, runtime.NumCPU(), procs, runtime.Version(), commit())

	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return outcome{}, err
	}
	work, err := os.MkdirTemp(buildDir, "work-")
	if err != nil {
		return outcome{}, err
	}
	defer os.RemoveAll(work)

	r := &run{w: w, seed: cfg.seed, window: time.Duration(phaseShare * cfg.seconds * float64(time.Second))}
	mainSz, warm, setups := w.full, w.warm, 3
	switch {
	case cfg.smoke:
		mainSz, warm, setups, r.smoke = w.smoke, w.smoke, 1, true
	case cfg.trace:
		r.window = traceWindow
	case r.window < minWindow:
		r.window = minWindow
	}
	if cfg.trace {
		r.tr, setups = newTracer(w.name), 1
	}
	root := r.tr.begin("run", 0)

	var setupSecs []float64
	var st *stack
	var in *inputs
	for i := 0; i < setups; i++ {
		if st != nil {
			st.shutdown()
		}
		dir := filepath.Join(work, fmt.Sprintf("setup%d", i))
		t0 := time.Now()
		sp := r.tr.begin("setup", root)
		in, err = w.generate(mainSz, cfg.seed, 0, filepath.Join(dir, "data"))
		if err != nil {
			return outcome{}, err
		}
		warmIn, err := w.generate(warm, cfg.seed, 500_000, filepath.Join(dir, "warm"))
		if err != nil {
			return outcome{}, err
		}
		if st, err = bootStack(w, dir); err != nil {
			return outcome{}, err
		}
		newPass(r, warmIn, st, true, sp).phases()
		r.tr.end(sp)
		setupSecs = append(setupSecs, time.Since(t0).Seconds())
	}
	defer st.shutdown()

	p := newPass(r, in, st, false, root)
	p.phases()
	var total float64
	for _, s := range setupSecs {
		total += s
	}
	p.e2e.set("setup_s", median(setupSecs), total, len(setupSecs))
	defs, got := endToEnd, p.e2e
	if cfg.trace {
		p.layers(work)
		p.procStats()
		defs, got = perLayer, p.layer
	}
	r.tr.end(root)

	if err := got.fill(defs); err != nil {
		r.op(false, "%v", err)
	}
	printReadings(stdout, defs, got)
	if cfg.trace {
		path, err := r.tr.write(cfg.outDir, stdout)
		if err != nil {
			return outcome{}, err
		}
		fmt.Fprintf(stdout, "trace written to %s\n", path)
	}
	fmt.Fprintf(stdout, "ops_attempted=%d ops_failed=%d\n", r.attempted, r.failed)
	for _, f := range r.failures {
		fmt.Fprintf(stdout, "FAILED: %s\n", f)
	}
	out := outcome{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonStat{}}
	for _, d := range defs {
		out.Metrics[d.Name] = jsonStat{Value: got[d.Name].Value, Unit: d.Unit}
	}
	return out, nil
}
