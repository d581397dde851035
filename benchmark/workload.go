package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"

	least "repro"
)

// sizes is everything about a workload that changes between the
// measured pass, the warm-up pass inside set-up, and the smoke pass the
// tests run. Counts are fixed per commit: a phase repeats its operation
// at least this often and then until its window is spent.
type sizes struct {
	d, n      int
	tasks     int // fleet: unique tasks in the manifest; otherwise tasks in the batch
	dups      int // exact duplicates appended to the fleet manifest
	learnMin  int // learn repetitions (fleets walk distinct tasks; also the f1 sample)
	jobMin    int // sequential jobs
	queryJobs int // done jobs in the query working set
	queryTaus int // thresholds per job in the working set
	maxInner  int // least-sp inner-iteration budget; 0 keeps the library default
}

// workload is one fixed input shape. The planted graphs and the solver
// seeds are part of the definition; -seed draws the observations, the
// duplicate choice and the query mix. F1 and iteration counts swing by
// 10-20 % between random graphs of one family, which no timed window
// can average out, so the graphs stay put and the data moves.
type workload struct {
	name, why  string
	fleet      bool // a manifest of many small inline tasks
	coord      bool // through a coordinator fronting 2 nodes x 1 slot
	method     least.Method
	model      least.GraphModel
	degree     int
	structSeed int64
	f1Floor    float64
	batchL1    []float64 // dense batch tasks differ in lambda

	full, warm, smoke sizes
}

func workloads() []*workload {
	fleetFull := sizes{d: 12, n: 120, tasks: 32, dups: 4, learnMin: 12, jobMin: 12, queryJobs: 32, queryTaus: 1}
	fleetWarm := sizes{d: 12, n: 120, tasks: 4, dups: 1, learnMin: 2, jobMin: 2, queryJobs: 4, queryTaus: 1}
	fleetSmoke := sizes{d: 8, n: 60, tasks: 8, dups: 2, learnMin: 2, jobMin: 2, queryJobs: 8, queryTaus: 1}
	return []*workload{
		{
			name:   "dense-d100",
			why:    "the paper's headline rung: one d=100 stats-path learn where the constraint and GramEval/GEMM own the time",
			method: least.MethodLEAST, model: least.ErdosRenyi, degree: 2, structSeed: 100, f1Floor: 0.55,
			batchL1: []float64{0.05, 0.15},
			full:    sizes{d: 100, n: 10000, tasks: 2, learnMin: 1, jobMin: 1, queryJobs: 1, queryTaus: 4},
			warm:    sizes{d: 40, n: 1000, tasks: 2, learnMin: 1, jobMin: 1, queryJobs: 1, queryTaus: 2},
			smoke:   sizes{d: 8, n: 200, tasks: 2, learnMin: 1, jobMin: 1, queryJobs: 1, queryTaus: 2},
		},
		{
			name:   "sparse-d1000",
			why:    "least-sp on rows at d=1000: sparse tape, CSR kernels and rows-path loss instead of the dense tape and GEMM; ingest bound by Gram accumulation",
			method: least.MethodLEASTSP, model: least.ErdosRenyi, degree: 2, structSeed: 200, f1Floor: 0.025,
			full:  sizes{d: 1000, n: 1000, tasks: 2, learnMin: 1, jobMin: 1, queryJobs: 1, queryTaus: 4, maxInner: 80},
			warm:  sizes{d: 500, n: 500, tasks: 2, learnMin: 1, jobMin: 1, queryJobs: 1, queryTaus: 2, maxInner: 60},
			smoke: sizes{d: 30, n: 100, tasks: 2, learnMin: 1, jobMin: 1, queryJobs: 1, queryTaus: 2, maxInner: 20},
		},
		{
			name:  "fleet-node",
			why:   "the deployment story: a manifest of small inline learns with duplicates on one 2-slot node with a journal, where per-task overhead, dedupe and the batch state machine show",
			fleet: true, method: least.MethodLEAST, model: least.ErdosRenyi, degree: 2, structSeed: 300, f1Floor: 0.70,
			full: fleetFull, warm: fleetWarm, smoke: fleetSmoke,
		},
		{
			name:  "fleet-coord",
			why:   "the identical manifest and queries through a coordinator fronting 2 nodes x 1 slot, so the difference to fleet-node is coordination cost",
			fleet: true, coord: true, method: least.MethodLEAST, model: least.ErdosRenyi, degree: 2, structSeed: 300, f1Floor: 0.70,
			full: fleetFull, warm: fleetWarm, smoke: fleetSmoke,
		},
	}
}

// shape is how the two solver slots are laid out: one node with both,
// or two nodes with one slot and one processor each behind a
// coordinator.
func (w *workload) shape() (nodes, slotsPerNode int) {
	if w.coord {
		return 2, 1
	}
	return 1, totalSlots
}

func findWorkload(name string) *workload {
	for _, w := range workloads() {
		if w.name == name {
			return w
		}
	}
	return nil
}

// spec builds the learn configuration of task variant v. Variants only
// differ in solver seed (and, for the dense batch, lambda), which is
// enough to keep the result cache from answering.
func (w *workload) spec(sz sizes, v int, lambda float64) *least.Spec {
	opts := []least.Option{least.WithSeed(int64(1 + v))}
	switch {
	case w.fleet:
		// The coordManifest shape, except epsilon: at 1e-3 a third of
		// the tasks converge early and the median task time moves 5 %
		// between sample draws; at the library default nearly every
		// task runs the full penalty schedule.
		opts = append(opts, least.WithLambda(0.2), least.WithParallelism(1))
	case w.method == least.MethodLEASTSP:
		// One inner solve on a fixed random support: the iteration
		// count is exact, so learn_s times the sparse tape and the
		// rows-path loss and nothing else. Recovery is bounded by the
		// support density and is low by construction.
		opts = append(opts, least.WithMethod(least.MethodLEASTSP), least.WithLambda(0.1),
			least.WithInitDensity(0.02), least.WithMaxOuter(1), least.WithMaxInner(sz.maxInner))
	}
	if lambda > 0 {
		opts = append(opts, least.WithLambda(lambda))
	}
	sp, err := least.New(opts...)
	if err != nil {
		panic(fmt.Sprintf("workload %s: spec: %v", w.name, err)) // constants above; a bug, not input
	}
	return sp
}

// problem is one generated dataset: the planted DAG, the CSV bytes the
// program under test receives, and where they were written.
type problem struct {
	truth *least.TrueDAG
	csv   []byte
	path  string
}

// inputs is everything a pass feeds the system.
type inputs struct {
	sz       sizes
	problems []problem            // one for single-dataset workloads, sz.tasks for fleets
	manifest []least.ManifestTask // fleets only: the unique tasks followed by the duplicates
	source   []int                // manifest row -> index of the task whose data and spec it carries
	bytes    int64                // CSV bytes over all problems
}

func (in *inputs) paths() []string {
	out := make([]string, len(in.problems))
	for i, p := range in.problems {
		out[i] = p.path
	}
	return out
}

// generate derives a pass's inputs from the seed and writes the CSV
// files under dir. salt separates the warm-up pass from the measured
// one so neither can hit the other's cached results.
func (w *workload) generate(sz sizes, seed, salt int64, dir string) (*inputs, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	count := 1
	if w.fleet {
		count = sz.tasks
	}
	in := &inputs{sz: sz}
	for i := 0; i < count; i++ {
		truth := least.GenerateDAG(w.structSeed+int64(i), w.model, sz.d, w.degree)
		x := least.SampleLSEM(seed*1_000_003+salt+int64(i), truth, sz.n, least.GaussianNoise)
		p := problem{truth: truth, csv: encodeCSV(x), path: filepath.Join(dir, fmt.Sprintf("data%04d.csv", i))}
		if err := os.WriteFile(p.path, p.csv, 0o644); err != nil {
			return nil, fmt.Errorf("generate: %w", err)
		}
		in.bytes += int64(len(p.csv))
		in.problems = append(in.problems, p)
	}
	if w.fleet {
		for i, p := range in.problems {
			in.manifest = append(in.manifest, least.ManifestTask{ID: fmt.Sprintf("t%04d", i),
				CSV: string(p.csv), Header: true, Center: true, Spec: w.spec(sz, i, 0)})
			in.source = append(in.source, i)
		}
		rng := rand.New(rand.NewSource(seed + salt))
		for k := 0; k < sz.dups; k++ {
			src := rng.Intn(count)
			t := in.manifest[src]
			t.ID = fmt.Sprintf("dup%04d", k)
			in.manifest = append(in.manifest, t)
			in.source = append(in.source, src)
		}
	}
	return in, nil
}

// encodeCSV renders a header row v0..v{d-1} and one row per sample at
// 8 significant digits, about 11 bytes per value.
func encodeCSV(x *least.Matrix) []byte {
	d := x.Cols()
	buf := make([]byte, 0, x.Rows()*d*11+d*6)
	for j := 0; j < d; j++ {
		if j > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, 'v')
		buf = strconv.AppendInt(buf, int64(j), 10)
	}
	buf = append(buf, '\n')
	for i := 0; i < x.Rows(); i++ {
		for j, v := range x.Row(i) {
			if j > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendFloat(buf, v, 'g', 8, 64)
		}
		buf = append(buf, '\n')
	}
	return buf
}
