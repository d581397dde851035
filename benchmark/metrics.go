package main

import (
	"fmt"
	"io"
	"math"
)

// metricDef names one reported number. The end-to-end list is what a
// user of the system sees and what later changes are gated on (bound
// is the share of the parent's median a metric may worsen by); the
// per-layer list explains where the end-to-end time went and carries
// no bound. BENCHMARK.json repeats both lists and TestManifestMatchesCode
// keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	What   string
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, "data generation + CSV writing + daemon boot + one reduced-size pass through every phase; median of the set-ups in a run"},
	{"ingest_mb_s", "MB/s", "higher", 0.12, "CSV bytes to sufficient statistics through least.OpenDataset/OpenShards; median full pass"},
	{"learn_s", "s", "lower", 0.12, "one Spec.LearnDataset on the centred dataset at the parallelism the daemon grants a slot; median repetition"},
	{"f1", "ratio", "higher", 0.20, "best F1 over the acyclic thresholds in {0.1..0.5} against the planted DAG (fleets: mean over the learn-phase tasks)"},
	{"job_p50_ms", "ms", "lower", 0.10, "POST /v2/jobs to the terminal frame on /v2/jobs/{id}/events, one client, sequential; median job"},
	{"networks_per_s", "1/s", "higher", 0.15, "manifest tasks divided by POST /v2/batches to the terminal frame on /v2/batches/{id}/events"},
	{"query_p50_us", "us", "lower", 0.12, "GET /v2/jobs/{id}/query/{verb} over 2 keep-alive connections, closed loop, compiled-form cache hits; p50 of all samples"},
}

var perLayer = []metricDef{
	{Name: "csvio.parse_mb_s", Unit: "MB/s", Better: "higher", What: "RowStream.CSV over the workload's CSV bytes, rows discarded"},
	{Name: "csvio.fingerprint_mb_s", Unit: "MB/s", Better: "higher", What: "FingerprintMatrix over the parsed rows (float bytes)"},
	{Name: "loss.gram_accumulate_s", Unit: "s", Better: "lower", What: "loss.StatsOf on the workload matrix"},
	{Name: "loss.grameval_us", Unit: "us", Better: "lower", What: "GramEval.ValueGrad per call at the workload's d"},
	{Name: "loss.grameval_allocs", Unit: "count", Better: "lower", What: "allocations per GramEval.ValueGrad"},
	{Name: "loss.rows_dense_us", Unit: "us", Better: "lower", What: "LeastSquares.ValueGrad on rows (the path inline tasks run)"},
	{Name: "loss.rows_sparse_us", Unit: "us", Better: "lower", What: "LeastSquares.ValueGradSparse on rows"},
	{Name: "mat.gemm_gflops", Unit: "gflop/s", Better: "higher", What: "MulInto of two d x d matrices, one worker"},
	{Name: "constraint.spectral_us", Unit: "us", Better: "lower", What: "dense Spectral.ValueGrad per call"},
	{Name: "constraint.spectral_allocs", Unit: "count", Better: "lower", What: "allocations per dense ValueGrad"},
	{Name: "constraint.spectral_alloc_kb", Unit: "kB", Better: "lower", What: "bytes allocated per dense ValueGrad"},
	{Name: "constraint.spectral_sparse_us", Unit: "us", Better: "lower", What: "Spectral.ValueGradSparse per call"},
	{Name: "constraint.spectral_sparse_allocs", Unit: "count", Better: "lower", What: "allocations per ValueGradSparse"},
	{Name: "sparse.dense_mul_csr_us", Unit: "us", Better: "lower", What: "sparse.DenseMulCSR(X, W)"},
	{Name: "sparse.transpose_us", Unit: "us", Better: "lower", What: "CSR.Transpose of the learned support"},
	{Name: "opt.adam_step_us", Unit: "us", Better: "lower", What: "Adam.Step over the learner's parameter count"},
	{Name: "core.inner_iters", Unit: "count", Better: "lower", What: "inner iterations of the learn-phase learn (exact)"},
	{Name: "core.outer_iters", Unit: "count", Better: "lower", What: "outer iterations of the learn-phase learn (exact)"},
	{Name: "core.iter_us", Unit: "us", Better: "lower", What: "learn_s divided by inner iterations"},
	{Name: "core.share_constraint", Unit: "ratio", Better: "lower", What: "inner iterations x constraint cost / learn_s"},
	{Name: "core.share_loss", Unit: "ratio", Better: "lower", What: "inner iterations x loss cost / learn_s"},
	{Name: "core.share_other", Unit: "ratio", Better: "lower", What: "1 - share_constraint - share_loss"},
	{Name: "least.learn_alloc_mb", Unit: "MB", Better: "lower", What: "bytes allocated across one LearnDataset"},
	{Name: "least.learn_allocs", Unit: "count", Better: "lower", What: "allocations across one LearnDataset"},
	{Name: "least.learn_gc_cycles", Unit: "count", Better: "lower", What: "GC cycles across one LearnDataset"},
	{Name: "notears.learn_ms", Unit: "ms", Better: "lower", What: "NOTEARS baseline on one fleet-sized task (d=12, n=120)"},
	{Name: "serve.submit_ms", Unit: "ms", Better: "lower", What: "POST /v2/jobs to 202; median"},
	{Name: "serve.queue_wait_ms", Unit: "ms", Better: "lower", What: "started - created on the wire; median"},
	{Name: "serve.run_ms", Unit: "ms", Better: "lower", What: "finished - started on the wire; median"},
	{Name: "serve.notify_ms", Unit: "ms", Better: "lower", What: "client-seen terminal frame - finished; median"},
	{Name: "serve.batch_admit_ms", Unit: "ms", Better: "lower", What: "POST /v2/batches to 202"},
	{Name: "serve.slot_busy_ratio", Unit: "ratio", Better: "higher", What: "sum of job run times / (slots x batch wall)"},
	{Name: "serve.tasks_deduped", Unit: "count", Better: "higher", What: "batch tasks that joined an identical task (exact, equals the planted duplicates)"},
	{Name: "serve.tasks_cached", Unit: "count", Better: "higher", What: "batch tasks answered from the result cache (exact)"},
	{Name: "serve.gangs", Unit: "count", Better: "higher", What: "gangs formed during the batch (exact)"},
	{Name: "serve.gang_jobs", Unit: "count", Better: "higher", What: "jobs run as gang members during the batch (exact)"},
	{Name: "serve.result_cache_hits", Unit: "count", Better: "higher", What: "result-cache hits during the batch (exact)"},
	{Name: "serve.http_requests", Unit: "count", Better: "lower", What: "node HTTP requests during the batch"},
	{Name: "serve.query_p99_us", Unit: "us", Better: "lower", What: "p99 of the query-phase samples"},
	{Name: "serve.query_cache_hit_ratio", Unit: "ratio", Better: "higher", What: "compiled-form cache hits / lookups during the query phase"},
	{Name: "serve.query_miss_p50_us", Unit: "us", Better: "lower", What: "p50 of summary queries cycling more (job, tau) keys than the cache holds"},
	{Name: "query.compile_us", Unit: "us", Better: "lower", What: "query.CompileDense of the learned W"},
	{Name: "query.dsep_us", Unit: "us", Better: "lower", What: "Compiled.DSeparated in process"},
	{Name: "query.blanket_us", Unit: "us", Better: "lower", What: "Compiled.MarkovBlanket in process"},
	{Name: "journal.append_us", Unit: "us", Better: "lower", What: "Writer.Append of a 256-byte record under group commit"},
	{Name: "journal.records", Unit: "count", Better: "lower", What: "journal records appended during the batch (exact)"},
	{Name: "journal.bytes_per_task", Unit: "B", Better: "lower", What: "journal bytes during the batch / tasks"},
	{Name: "journal.fsyncs", Unit: "count", Better: "lower", What: "journal fsyncs during the batch"},
	{Name: "coord.hop_us", Unit: "us", Better: "lower", What: "p50 status GET via the coordinator - p50 straight to the owning node"},
	{Name: "coord.upstream_requests_per_task", Unit: "count", Better: "lower", What: "node HTTP requests during the batch / tasks"},
	{Name: "coord.batch_split_ms", Unit: "ms", Better: "lower", What: "POST /v2/batches on the coordinator to 202 (split + dispatch)"},
	{Name: "coord.fold_lag_ms", Unit: "ms", Better: "lower", What: "coordinator batch finished - last node sub-batch finished"},
	{Name: "coord.steals", Unit: "count", Better: "lower", What: "steal operations during the batch"},
	{Name: "coord.tasks_stolen", Unit: "count", Better: "lower", What: "rows moved between nodes during the batch"},
	{Name: "coord.sub_batches", Unit: "count", Better: "lower", What: "sub-batches admitted on nodes during the batch"},
	{Name: "proc.peak_rss_mb", Unit: "MB", Better: "lower", What: "VmHWM of the benchmark process (program under test is in process)"},
	{Name: "proc.gc_pause_total_ms", Unit: "ms", Better: "lower", What: "runtime GC pause total over the run"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower", What: "learn_s of traced repetitions over untraced ones, minus one"},
}

// reading is one measured value with the evidence behind it: how long
// the timed window was and how many samples the statistic is over.
type reading struct {
	Value   float64
	Unit    string
	WindowS float64
	Samples int
}

type readings map[string]reading

// set records a value. A ratio over nothing (0/0) is recorded as 0 so
// the result line stays valid JSON; the sample count says why.
func (r readings) set(name string, v float64, window float64, samples int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r[name] = reading{Value: v, WindowS: window, Samples: samples}
}

// fill stamps units from the definitions and reports names that are
// missing or undeclared, so a metric cannot be added on one side only.
func (r readings) fill(defs []metricDef) error {
	known := make(map[string]bool, len(defs))
	for _, d := range defs {
		known[d.Name] = true
		v, ok := r[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		v.Unit = d.Unit
		r[d.Name] = v
	}
	for name := range r {
		if !known[name] {
			return fmt.Errorf("metric %s is measured but not declared", name)
		}
	}
	return nil
}

func printReadings(w io.Writer, defs []metricDef, r readings) {
	fmt.Fprintf(w, "%-36s %14s %-8s %9s %8s\n", "metric", "value", "unit", "window_s", "samples")
	for _, d := range defs {
		v := r[d.Name]
		fmt.Fprintf(w, "%-36s %14.6g %-8s %9.2f %8d\n", d.Name, v.Value, d.Unit, v.WindowS, v.Samples)
	}
}

func printList(w io.Writer) {
	fmt.Fprintln(w, "workloads:")
	for _, wl := range workloads() {
		fmt.Fprintf(w, "  %-14s %s\n", wl.name, wl.why)
	}
	fmt.Fprintln(w, "end-to-end metrics (name unit better bound):")
	for _, d := range endToEnd {
		fmt.Fprintf(w, "  %-18s %-6s %-6s %.2f  %s\n", d.Name, d.Unit, d.Better, d.Bound, d.What)
	}
	fmt.Fprintln(w, "per-layer metrics (name unit better):")
	for _, d := range perLayer {
		fmt.Fprintf(w, "  %-36s %-8s %-6s %s\n", d.Name, d.Unit, d.Better, d.What)
	}
}
