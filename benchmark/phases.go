package main

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"time"

	least "repro"
	"repro/internal/serve"
)

// Every phase's window is phaseShare of -seconds and never shorter
// than minWindow in a measured pass. An operation longer than the
// window (one d=100 learn, one manifest) runs its stated repetitions
// and stops; a short one is repeated until the window is spent.
// Per-layer numbers carry no bound, so a traced run uses traceWindow
// and spends the time on the layer replays instead.
const (
	phaseShare  = 0.15
	minWindow   = 3 * time.Second
	traceWindow = 1 * time.Second

	ingestMin = 5 // full ingest passes, at least
	queryMin  = 1000
)

// evalTaus is the paper's threshold grid for F1; queryTaus is where the
// query working set looks for acyclic graphs (d-separation needs one).
var (
	evalTaus  = []float64{0.1, 0.2, 0.3, 0.4, 0.5}
	queryTaus = []float64{0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
)

const graphTau = 0.3 // threshold of the served-graph byte comparison

// run is one process-wide benchmark run: the failure ledger and the
// tracer shared by the warm-up and the measured pass.
type run struct {
	w      *workload
	seed   int64
	tr     *tracer       // nil unless -trace 1
	window time.Duration // every measured phase's timed window
	smoke  bool          // reduced sizes: the accuracy floors do not apply

	attempted, failed int
	failures          []string
}

// op counts one operation against the failure ledger. Anything the
// system can get wrong goes through here: a non-2xx reply, a task that
// did not finish, a cyclic graph, a ledger that does not add up.
func (r *run) op(ok bool, format string, args ...any) bool {
	failed := 0
	if !ok {
		failed = 1
	}
	r.ops(1, failed, format, args...)
	return ok
}

// ops adds a tally of operations kept elsewhere (the query clients
// count their own requests rather than share the ledger between
// goroutines); the message is recorded if any of them failed.
func (r *run) ops(attempted, failed int, format string, args ...any) {
	r.attempted += attempted
	r.failed += failed
	if failed > 0 && len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// learned is one in-process learn kept for the accuracy number, the
// served-graph comparison and the per-layer replays.
type learned struct {
	res   *least.Result
	f1    float64
	tau   float64
	names []string
}

// target is one (job, threshold) pair of the query working set.
type target struct {
	job string
	tau float64
}

// pass drives one workload size through the five phases against one
// booted stack. The warm-up inside set-up is a pass with warm sizes and
// zero-length windows; its numbers are thrown away.
type pass struct {
	r    *run
	in   *inputs
	st   *stack
	warm bool
	c    *http.Client // the one sequential client
	root int          // parent span of the phase spans

	e2e, layer readings

	ds        least.Dataset // single-dataset workloads: the ingested file dataset
	dsRef     string        // its registration on the node
	learns    []learned     // by task index (fleets) or [0]
	learnRes  *least.Result // first learn, for the replays
	learnSecs float64       // and how long it took
	jobs      []string      // done job ids from the job phase
	batchJobs []serve.TaskStatus
}

func newPass(r *run, in *inputs, st *stack, warm bool, root int) *pass {
	return &pass{r: r, in: in, st: st, warm: warm, c: newClient(), root: root,
		e2e: readings{}, layer: readings{}}
}

func (p *pass) window() time.Duration {
	if p.warm {
		return 0
	}
	return p.r.window
}

// min is a repetition floor: the warm-up does a tenth of it.
func (p *pass) min(n int) int {
	if p.warm {
		return (n + 9) / 10
	}
	return n
}

// phases runs the fixed sequence on a quiescent process: a collection
// before each phase keeps one phase's garbage out of the next one's
// timings.
func (p *pass) phases() {
	defer p.c.CloseIdleConnections()
	for _, ph := range []struct {
		name string
		fn   func(span int)
	}{
		{"phase.ingest", p.ingest},
		{"phase.learn", p.learn},
		{"phase.job", p.job},
		{"phase.batch", p.batch},
		{"phase.query", p.query},
	} {
		runtime.GC()
		sp := p.r.tr.begin(ph.name, p.root)
		ph.fn(sp)
		p.r.tr.end(sp)
	}
}

// ---- ingest -----------------------------------------------------------

func (p *pass) ingest(span int) {
	paths := p.in.paths()
	secs, total := repeat(p.window(), p.min(ingestMin), func(int) {
		sp := p.r.tr.begin("least.OpenShards", span)
		ds, err := least.OpenShards(paths, least.DatasetOptions{Header: true})
		if err == nil {
			_, err = ds.Stats(context.Background())
		}
		p.r.tr.end(sp)
		if p.r.op(err == nil, "ingest: %v", err) {
			p.ds = ds
		}
	})
	rates := make([]float64, len(secs))
	for i, s := range secs {
		rates[i] = float64(p.in.bytes) / 1e6 / s
	}
	p.e2e.set("ingest_mb_s", median(rates), total.Seconds(), len(rates))
}

// ---- learn ------------------------------------------------------------

// granted is the spec as a node's slot would run it: the daemon caps
// every job's parallelism to its slot's core share, and learn_s is only
// comparable to job_p50_ms if the in-process learn gets the same.
func (p *pass) granted(sp *least.Spec) *least.Spec {
	_, slots := p.r.w.shape() // a node has as many processors as slots
	out, err := sp.With(least.WithParallelism(serve.CapParallelism(sp.Parallelism(), slots, slots)))
	if err != nil {
		panic(fmt.Sprintf("granted spec: %v", err)) // a validated spec plus a positive int
	}
	return out
}

// taskData is the dataset task i learns from, as the daemon would see
// it: the registered file dataset, or the inline CSV of a fleet task.
func (p *pass) taskData(i int) (least.Dataset, error) {
	if !p.r.w.fleet {
		if p.ds == nil {
			return nil, fmt.Errorf("no ingested dataset")
		}
		return least.Centered(p.ds), nil
	}
	t := p.in.manifest[i]
	ds, err := t.Data(least.DatasetOptions{})
	if err != nil {
		return nil, err
	}
	return least.Centered(ds), nil
}

func (p *pass) learn(span int) {
	w, sz := p.r.w, p.in.sz
	count := 1
	if w.fleet {
		count = sz.learnMin
	}
	p.learns = make([]learned, count)
	minReps := sz.learnMin
	if p.r.tr != nil && !p.warm && minReps < 2 {
		minReps = 2 // one untraced and one traced repetition for trace.overhead_pct
	}
	var traced, plain []float64
	var mem [2]runtime.MemStats
	secs, total := repeat(p.window(), minReps, func(rep int) {
		i := rep % count
		spec := p.granted(w.spec(sz, i, 0))
		withSpans := p.r.tr != nil && rep%2 == 1
		sp := p.r.tr.begin("least.LearnDataset", span)
		if withSpans {
			spec = p.solveSpans(spec, sp)
		}
		ds, err := p.taskData(i)
		var res *least.Result
		t0 := time.Now()
		if err == nil {
			if rep == 0 {
				runtime.ReadMemStats(&mem[0])
			}
			res, err = spec.LearnDataset(context.Background(), ds)
			if rep == 0 {
				runtime.ReadMemStats(&mem[1])
			}
		}
		el := time.Since(t0).Seconds()
		p.r.tr.end(sp)
		if withSpans {
			traced = append(traced, el)
		} else {
			plain = append(plain, el)
		}
		if !p.r.op(err == nil, "learn task %d: %v", i, err) || rep >= count {
			return
		}
		l := learned{res: res, names: ds.Names()}
		var ok bool
		l.f1, l.tau, ok = bestAcyclic(p.in.problems[i].truth, res)
		p.r.op(ok, "learn task %d: no acyclic graph at any threshold in %v", i, evalTaus)
		p.learns[i] = l
		if rep == 0 {
			p.learnRes, p.learnSecs = res, el
		}
	})
	p.e2e.set("learn_s", median(secs), total.Seconds(), len(secs))
	var f1s []float64
	for _, l := range p.learns {
		if l.res != nil {
			f1s = append(f1s, l.f1)
		}
	}
	f1 := mean(f1s)
	p.e2e.set("f1", f1, total.Seconds(), len(f1s))
	if !p.warm && !p.r.smoke {
		p.r.op(f1 >= w.f1Floor, "f1 %.4f is under the workload's floor %.2f", f1, w.f1Floor)
	}
	if p.r.tr == nil || p.learnRes == nil {
		return
	}
	p.layer.set("core.inner_iters", float64(p.learnRes.InnerIters), p.learnSecs, 1)
	p.layer.set("core.outer_iters", float64(p.learnRes.OuterIters), p.learnSecs, 1)
	p.layer.set("core.iter_us", p.learnSecs*1e6/float64(p.learnRes.InnerIters), p.learnSecs, 1)
	p.layer.set("least.learn_alloc_mb", float64(mem[1].TotalAlloc-mem[0].TotalAlloc)/1e6, p.learnSecs, 1)
	p.layer.set("least.learn_allocs", float64(mem[1].Mallocs-mem[0].Mallocs), p.learnSecs, 1)
	p.layer.set("least.learn_gc_cycles", float64(mem[1].NumGC-mem[0].NumGC), p.learnSecs, 1)
	over := 0.0
	if len(traced) > 0 && len(plain) > 0 {
		over = (median(traced)/median(plain) - 1) * 100
	}
	p.layer.set("trace.overhead_pct", over, total.Seconds(), len(traced))
}

// solveSpans returns spec with a progress callback that records one
// span per inner solve under parent: the finest grain the benchmark's
// own code can see of a learn without instrumenting the program.
func (p *pass) solveSpans(spec *least.Spec, parent int) *least.Spec {
	cur, solve := 0, 0
	out, err := spec.With(least.WithProgress(func(pr least.Progress) {
		if pr.Solves != solve {
			p.r.tr.end(cur)
			cur, solve = p.r.tr.begin("least.solve", parent), pr.Solves
		}
		p.r.tr.end(cur)
	}))
	if err != nil {
		panic(fmt.Sprintf("progress spec: %v", err)) // adds no validated field
	}
	return out
}

// bestAcyclic is the paper's protocol restricted to graphs a user could
// act on: the best F1 over the thresholds whose graph is a DAG.
func bestAcyclic(truth *least.TrueDAG, res *least.Result) (f1, tau float64, ok bool) {
	if res.Weights == nil {
		return 0, 0, false
	}
	for _, t := range evalTaus {
		if !res.Graph(t).IsDAG() {
			continue
		}
		if m := least.Evaluate(truth.G, res.Weights, t); !ok || m.F1 > f1 {
			f1, tau, ok = m.F1, t, true
		}
	}
	return f1, tau, ok
}
