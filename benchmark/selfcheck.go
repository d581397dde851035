package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
)

// selfRuns is how many runs each series of the self-check makes per
// workload.
const selfRuns = 3

// selfCheck answers "is the benchmark quieter than its own bounds":
// the same binary runs every workload as two interleaved series
// (A B A B ...), both over the same seeds, and the series' medians are
// compared per metric. A pair further apart than the metric's bound
// means the bound cannot separate a regression from noise.
func selfCheck(cfg config, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	names := []string{cfg.workload}
	if cfg.workload == "" || cfg.workload == "all" {
		names = names[:0]
		for _, w := range workloads() {
			names = append(names, w.name)
		}
	}
	cfg.trace = false
	bad := 0
	fmt.Fprintf(stdout, "%-14s %-16s %14s %14s %9s %7s\n", "workload", "metric", "median_a", "median_b", "rel_diff", "bound")
	for _, name := range names {
		var series [2]map[string][]float64
		for s := range series {
			series[s] = make(map[string][]float64)
		}
		for i := 0; i < 2*selfRuns; i++ {
			var buf bytes.Buffer
			cmd := exec.Command(self, childArgs(cfg, name, cfg.seed+int64(i/2))...)
			cmd.Stdout, cmd.Stderr = &buf, stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(stderr, "benchmark: %s run %d: %v\n%s", name, i, err, buf.Bytes())
				return 1
			}
			lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
			var out outcome
			if err := json.Unmarshal(lines[len(lines)-1], &out); err != nil {
				fmt.Fprintf(stderr, "benchmark: %s run %d: last line: %v\n", name, i, err)
				return 1
			}
			for m, v := range out.Metrics {
				series[i%2][m] = append(series[i%2][m], v.Value)
			}
		}
		for _, d := range endToEnd {
			a, b := median(series[0][d.Name]), median(series[1][d.Name])
			diff := (b - a) / a
			worse := diff
			if d.Better == "higher" {
				worse = -diff
			}
			mark := ""
			if worse > d.Bound || -worse > d.Bound {
				mark = "  OUTSIDE"
				bad++
			}
			fmt.Fprintf(stdout, "%-14s %-16s %14.6g %14.6g %+8.2f%% %6.0f%%%s\n", name, d.Name, a, b, diff*100, d.Bound*100, mark)
		}
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "%d pairs outside their bound\n", bad)
		return 1
	}
	return 0
}
