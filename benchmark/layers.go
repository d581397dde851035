package main

import (
	"bufio"
	"bytes"
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	least "repro"
	"repro/internal/constraint"
	"repro/internal/csvio"
	"repro/internal/journal"
	"repro/internal/loss"
	"repro/internal/mat"
	"repro/internal/opt"
	"repro/internal/query"
	"repro/internal/sparse"
)

const (
	replayBudget = 200 * time.Millisecond // per layer function; the smoke pass takes a tenth
	// denseReplayCap bounds the dimension of the dense-kernel replays:
	// at d=1000 one GramEval or GEMM call is over a second, and the
	// workload that has d=1000 does not run the dense kernels.
	denseReplayCap = 256
)

// replayStat is the per-call cost of one layer function.
type replayStat struct {
	us, allocs, bytes float64
	calls             int
	window            float64
}

// replay calls fn once untimed, then back to back for at least the
// budget, and reports the mean cost per call with allocation counts
// from the runtime. The whole replay counts as one operation, failed if
// any call was.
func (p *pass) replay(name string, span int, fn func() error) replayStat {
	sp := p.r.tr.begin(name, span)
	defer p.r.tr.end(sp)
	failed := fn()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	calls := 0
	budget := replayBudget
	if p.r.smoke {
		budget /= 10
	}
	for calls == 0 || time.Since(start) < budget {
		if err := fn(); err != nil && failed == nil {
			failed = err
		}
		calls++
	}
	el := time.Since(start)
	runtime.ReadMemStats(&m1)
	p.r.op(failed == nil, "replay %s: %v", name, failed)
	n := float64(calls)
	return replayStat{
		us:     float64(el.Nanoseconds()) / 1e3 / n,
		allocs: float64(m1.Mallocs-m0.Mallocs) / n,
		bytes:  float64(m1.TotalAlloc-m0.TotalAlloc) / n,
		calls:  calls,
		window: el.Seconds(),
	}
}

// pure adapts a layer call that cannot fail to replay's signature.
func pure(fn func()) func() error {
	return func() error { fn(); return nil }
}

// leading returns the top-left k x k block of a square matrix.
func leading(m *mat.Dense, k int) *mat.Dense {
	if m.Rows() <= k {
		return m
	}
	out := mat.NewDense(k, k)
	for i := 0; i < k; i++ {
		copy(out.Row(i), m.Row(i)[:k])
	}
	return out
}

// layers replays each layer's exported function on the workload's own
// inputs - the parsed rows, their statistics, the learned W - and
// derives the shares of learn_s the constraint and the loss own.
func (p *pass) layers(dir string) {
	span := p.r.tr.begin("phase.layers", p.root)
	defer p.r.tr.end(span)
	set := func(name string, s replayStat, v float64) { p.layer.set(name, v, s.window, s.calls) }

	raw := p.in.problems[0].csv
	st := p.replay("csvio.RowStream.CSV", span, func() error {
		return csvio.NewRowStream().CSV(bytes.NewReader(raw), true, func([]float64) error { return nil })
	})
	set("csvio.parse_mb_s", st, float64(len(raw))/st.us)

	x, _, err := csvio.ReadMatrix(bytes.NewReader(raw), true)
	if !p.r.op(err == nil && p.learnRes != nil && p.learnRes.Weights != nil, "replay inputs: %v", err) {
		return
	}
	least.Center(x)
	n, d := x.Rows(), x.Cols()
	st = p.replay("csvio.FingerprintMatrix", span, pure(func() { csvio.FingerprintMatrix(x, nil) }))
	set("csvio.fingerprint_mb_s", st, float64(8*n*d)/st.us)

	var stats *loss.SuffStats
	st = p.replay("loss.StatsOf", span, pure(func() { stats = loss.StatsOf(x, 0) }))
	set("loss.gram_accumulate_s", st, st.us/1e6)

	w := p.learnRes.Weights
	wSparse := p.learnRes.SparseWeights
	if wSparse == nil {
		wSparse = sparse.FromDense(w, 0)
	}
	dd := d
	if dd > denseReplayCap {
		dd = denseReplayCap
	}
	wd := leading(w, dd)
	ls := loss.LeastSquares{Lambda: 0.1, Workers: 1}

	ev := loss.NewGramEval(ls, &loss.SuffStats{N: stats.N, Gram: leading(stats.Gram, dd), ColSums: stats.ColSums[:dd]})
	gram := p.replay("loss.GramEval.ValueGrad", span, pure(func() { ev.ValueGrad(wd) }))
	set("loss.grameval_us", gram, gram.us)
	set("loss.grameval_allocs", gram, gram.allocs)

	xd := x
	if dd < d {
		xd = mat.NewDense(n, dd)
		for i := 0; i < n; i++ {
			copy(xd.Row(i), x.Row(i)[:dd])
		}
	}
	rowsDense := p.replay("loss.LeastSquares.ValueGrad", span, pure(func() { ls.ValueGrad(wd, xd) }))
	set("loss.rows_dense_us", rowsDense, rowsDense.us)
	rowsSparse := p.replay("loss.LeastSquares.ValueGradSparse", span, pure(func() { ls.ValueGradSparse(wSparse, x) }))
	set("loss.rows_sparse_us", rowsSparse, rowsSparse.us)

	a, dst := leading(stats.Gram, dd), mat.NewDense(dd, dd)
	st = p.replay("mat.MulInto", span, pure(func() { a.MulInto(dst, wd, 1) }))
	set("mat.gemm_gflops", st, 2*float64(dd)*float64(dd)*float64(dd)/st.us/1e3)

	spec := constraint.NewSpectral(0, -1) // the paper's K and alpha, as the learner uses
	spec.Workers = 1
	dense := p.replay("constraint.Spectral.ValueGrad", span, pure(func() { spec.ValueGrad(wd) }))
	set("constraint.spectral_us", dense, dense.us)
	set("constraint.spectral_allocs", dense, dense.allocs)
	set("constraint.spectral_alloc_kb", dense, dense.bytes/1e3)
	sp := p.replay("constraint.Spectral.ValueGradSparse", span, pure(func() { spec.ValueGradSparse(wSparse) }))
	set("constraint.spectral_sparse_us", sp, sp.us)
	set("constraint.spectral_sparse_allocs", sp, sp.allocs)

	st = p.replay("sparse.DenseMulCSR", span, pure(func() { sparse.DenseMulCSR(x, wSparse) }))
	set("sparse.dense_mul_csr_us", st, st.us)
	st = p.replay("sparse.CSR.Transpose", span, pure(func() { wSparse.Transpose() }))
	set("sparse.transpose_us", st, st.us)

	params := d * d
	if p.learnRes.SparseWeights != nil {
		params = wSparse.NNZ()
	}
	adam := opt.NewAdam(opt.DefaultAdam(), params)
	pv, gv := make([]float64, params), make([]float64, params)
	for i := range gv {
		gv[i] = 1e-3
	}
	step := p.replay("opt.Adam.Step", span, pure(func() { adam.Step(pv, gv) }))
	set("opt.adam_step_us", step, step.us)

	// Which cost the learner paid per inner iteration depends on the
	// path the workload took.
	cons, lossUS := dense.us, gram.us
	switch {
	case p.learnRes.SparseWeights != nil:
		cons, lossUS = sp.us, rowsSparse.us
	case p.r.w.fleet:
		lossUS = rowsDense.us
	}
	learnUS := p.learnSecs * 1e6
	iters := float64(p.learnRes.InnerIters)
	shareC, shareL := iters*cons/learnUS, iters*lossUS/learnUS
	p.layer.set("core.share_constraint", shareC, 0, int(iters))
	p.layer.set("core.share_loss", shareL, 0, int(iters))
	p.layer.set("core.share_other", 1-shareC-shareL, 0, int(iters))

	p.baseline(span)
	p.inProcessQueries(w, span)
	p.journalAppend(dir, span)
}

// baseline times NOTEARS on one fleet-sized task: the reference the
// paper compares against, at the size where both finish in a blink.
func (p *pass) baseline(span int) {
	truth := least.GenerateDAG(300, least.ErdosRenyi, 12, 2)
	ds := least.Centered(least.FromMatrix(least.SampleLSEM(p.r.seed, truth, 120, least.GaussianNoise), nil))
	spec, err := least.New(least.WithMethod(least.MethodNOTEARS), least.WithLambda(0.2), least.WithParallelism(1))
	if !p.r.op(err == nil, "notears spec: %v", err) {
		return
	}
	st := p.replay("least.LearnDataset notears", span, func() error {
		_, err := spec.LearnDataset(context.Background(), ds)
		return err
	})
	p.layer.set("notears.learn_ms", st.us/1e3, st.window, st.calls)
}

// inProcessQueries times the graph work behind the query verbs with no
// HTTP around it.
func (p *pass) inProcessQueries(w *mat.Dense, span int) {
	tau := p.learns[0].tau
	var c *query.Compiled
	st := p.replay("query.CompileDense", span, pure(func() { c = query.CompileDense(w, tau, nil) }))
	p.layer.set("query.compile_us", st.us, st.window, st.calls)
	rng := rand.New(rand.NewSource(p.r.seed))
	d := w.Rows()
	// x, y and the conditioning node must differ: three consecutive
	// nodes from a random start.
	st = p.replay("query.Compiled.DSeparated", span, func() error {
		v := rng.Intn(d)
		_, err := c.DSeparated(v, (v+1)%d, []int{(v + 2) % d})
		return err
	})
	p.layer.set("query.dsep_us", st.us, st.window, st.calls)
	st = p.replay("query.Compiled.MarkovBlanket", span, pure(func() { c.MarkovBlanket(rng.Intn(d)) }))
	p.layer.set("query.blanket_us", st.us, st.window, st.calls)
}

// journalAppend times Writer.Append under the daemon's default group
// commit interval.
func (p *pass) journalAppend(dir string, span int) {
	jdir := filepath.Join(dir, "journal-replay")
	w, err := journal.Open(jdir, journal.Options{FsyncEvery: 25 * time.Millisecond})
	if !p.r.op(err == nil, "journal open: %v", err) {
		return
	}
	payload := []byte(`{"pad":"` + strings.Repeat("x", 246) + `"}`)
	st := p.replay("journal.Writer.Append", span, func() error { return w.Append("bench", payload) })
	p.r.op(w.Close() == nil, "journal close failed")
	p.layer.set("journal.append_us", st.us, st.window, st.calls)
}

// procStats reads the process-wide numbers at the end of a traced run.
func (p *pass) procStats() {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	p.layer.set("proc.gc_pause_total_ms", float64(m.PauseTotalNs)/1e6, 0, int(m.NumGC))
	p.layer.set("proc.peak_rss_mb", peakRSSMB(), 0, 1)
}

// peakRSSMB is VmHWM from /proc/self/status, 0 where there is none.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1e3
		}
	}
	return 0
}
