// Benchmarks regenerating the paper's tables and figures (one bench
// per artifact; see DESIGN.md §3 for the experiment index) plus
// micro-benchmarks of the two acyclicity constraints — the O(k·s) vs
// O(d³) contrast that is the paper's central claim — and ablation
// benches for the design choices DESIGN.md documents (δ/d
// normalization, support refresh, batching).
//
// Run with: go test -bench=. -benchmem
package least

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/booking"
	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/gen"
	"repro/internal/gene"
	"repro/internal/loss"
	"repro/internal/movielens"
	"repro/internal/notears"
	"repro/internal/parallel"
	"repro/internal/randx"
	"repro/internal/sparse"
)

// --- Micro-benchmarks: the constraint kernels (Fig 1's three boxes) ---

func benchW(d int, density float64) ( /*dense*/ *Matrix /*sparse*/, *sparse.CSR) {
	rng := randx.New(int64(d))
	w := NewMatrix(d, d)
	for i := 0; i < d; i++ {
		for j := 0; j < d; j++ {
			if i != j && rng.Float64() < density {
				w.Set(i, j, rng.Uniform(-1, 1))
			}
		}
	}
	return w, sparse.FromDense(w, 0)
}

// BenchmarkConstraintSpectral measures the paper's δ^(k) forward +
// backward at growing d (near-linear in nnz).
func BenchmarkConstraintSpectral(b *testing.B) {
	for _, d := range []int{100, 200, 500, 1000} {
		_, ws := benchW(d, 4.0/float64(d)) // sparse, ~4 entries/row
		sp := constraint.NewSpectral(5, 0.9)
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sp.ValueGradSparse(ws)
			}
		})
	}
}

// BenchmarkConstraintNotears measures the baseline h(W) = tr(e^S) − d
// (cubic in d) on the same graphs — the head-to-head behind the Fig 4
// runtime panel.
func BenchmarkConstraintNotears(b *testing.B) {
	for _, d := range []int{100, 200, 500} {
		wd, _ := benchW(d, 4.0/float64(d))
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				constraint.NotearsHGrad(wd)
			}
		})
	}
}

// BenchmarkConstraintPoly measures the DAG-GNN polynomial relaxation.
func BenchmarkConstraintPoly(b *testing.B) {
	for _, d := range []int{100, 200} {
		wd, _ := benchW(d, 4.0/float64(d))
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				constraint.PolyGGrad(wd, 1/float64(d))
			}
		})
	}
}

// --- E1/E2: Fig 4 accuracy + correlation panels ---
//
// Each artifact bench exercises one representative cell of its panel so
// the whole `go test -bench=.` suite stays in CPU-minutes; the full
// panels are regenerated by `cmd/leastbench` (see EXPERIMENTS.md).

func BenchmarkFig4AccuracyCell(b *testing.B) {
	rng := randx.New(1)
	dag := gen.RandomDAG(rng, gen.ER, 20, 2, 0.5, 2)
	x := gen.SampleLSEM(rng, dag, 200, randx.Gaussian)
	b.Run("LEAST", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			o := core.DefaultOptions()
			o.Lambda = 0.2
			o.Epsilon = 1e-3
			o.CheckH = true
			o.MaxOuter = 16
			o.MaxInner = 200
			core.Dense(x, o)
		}
	})
	b.Run("NOTEARS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			o := notears.DefaultOptions()
			o.Lambda = 0.2
			o.Epsilon = 1e-3
			o.MaxOuter = 16
			o.MaxInner = 200
			notears.Run(x, o)
		}
	})
}

// BenchmarkFig4TimeLEAST and ...NOTEARS expose the per-algorithm
// end-to-end learning time the Fig 4 bottom row plots, at a fixed
// mid-size problem, so `-bench Fig4Time` prints the two series the
// figure compares.
func BenchmarkFig4TimeLEAST(b *testing.B) {
	for _, d := range []int{50, 100} {
		rng := randx.New(int64(d))
		dag := gen.RandomDAG(rng, gen.ER, d, 2, 0.5, 2)
		x := gen.SampleLSEM(rng, dag, 10*d, randx.Gaussian)
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				o := core.DefaultOptions()
				o.Lambda = 0.2
				o.Epsilon = 1e-4
				o.MaxOuter = 10
				o.MaxInner = 150
				core.Dense(x, o)
			}
		})
	}
}

func BenchmarkFig4TimeNOTEARS(b *testing.B) {
	for _, d := range []int{50, 100} {
		rng := randx.New(int64(d))
		dag := gen.RandomDAG(rng, gen.ER, d, 2, 0.5, 2)
		x := gen.SampleLSEM(rng, dag, 10*d, randx.Gaussian)
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				o := notears.DefaultOptions()
				o.Lambda = 0.2
				o.Epsilon = 1e-4
				o.MaxOuter = 10
				o.MaxInner = 150
				notears.Run(x, o)
			}
		})
	}
}

// --- E4/E10: Fig 5 scalability (one LEAST-SP step at scale) ---

func BenchmarkFig5SparseStep(b *testing.B) {
	for _, d := range []int{1000, 4000} {
		rng := randx.New(int64(d))
		dag := gen.RandomDAG(rng, gen.SF, d, 4, 0.5, 2)
		x := gen.SampleLSEM(rng, dag, 1000, randx.Gaussian)
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				o := core.DefaultOptions()
				o.Lambda = 0.05
				o.BatchSize = 256
				o.Threshold = 1e-3
				o.InitDensity = 4.0 / float64(d)
				o.MaxOuter = 1
				o.MaxInner = 20
				o.NoSupportRefresh = true
				core.Sparse(x, o)
			}
		})
	}
}

// --- E5: Tables I/III gene comparison (Sachs cell) ---

func BenchmarkTableIIIGenesSachs(b *testing.B) {
	rng := randx.New(1)
	ds := gene.Sachs(rng, 1000)
	b.Run("LEAST", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			o := core.DefaultOptions()
			o.Lambda = 0.1
			o.Epsilon = 1e-3
			o.CheckH = true
			o.MaxOuter = 12
			core.Dense(ds.Samples, o)
		}
	})
	b.Run("NOTEARS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			o := notears.DefaultOptions()
			o.Lambda = 0.1
			o.Epsilon = 1e-3
			o.MaxOuter = 12
			notears.Run(ds.Samples, o)
		}
	})
}

// --- E6/E7: booking monitor (one Table II period) ---

func BenchmarkTableIIBookingPeriod(b *testing.B) {
	rng := randx.New(1)
	world := booking.DefaultWorld(rng)
	inc := booking.TableIIScripts(world)[3] // WUH lock-down
	prev := booking.GenerateWindow(rng, world, nil, 3000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		booking.MonitorPeriod(context.Background(), rng, world, []*booking.Incident{inc}, prev, 3000, booking.DefaultLearnOptions(), 1e-3)
	}
}

// --- E8/E9: Table IV / Fig 8 movielens pipeline ---

func BenchmarkTableIVMovielens(b *testing.B) {
	c := movielens.DefaultCatalog(100)
	g := movielens.DefaultGenOptions()
	g.Users = 1500
	r := movielens.Generate(c, g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net := movielens.Learn(r, movielens.DefaultLearnOptions())
		movielens.TopEdgesAnnotated(net, c, 10)
		movielens.DegreeContrast(net, c)
	}
}

// --- Ablations (design choices documented in DESIGN.md) ---

func ablationInstance() (*gen.DAG, *Matrix) {
	rng := randx.New(99)
	dag := gen.RandomDAG(rng, gen.ER, 60, 2, 0.5, 2)
	x := gen.SampleLSEM(rng, dag, 600, randx.Gaussian)
	return dag, x
}

// BenchmarkAblationNormalization contrasts the δ/d-normalized penalty
// (default) with the paper's literal extensive δ.
func BenchmarkAblationNormalization(b *testing.B) {
	_, x := ablationInstance()
	for _, norm := range []bool{true, false} {
		name := "normalized"
		if !norm {
			name = "raw-delta"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				o := core.DefaultOptions()
				o.Lambda = 0.2
				o.Epsilon = 1e-3
				o.CheckH = true
				o.MaxOuter = 10
				o.MaxInner = 150
				o.NoNormalize = !norm
				core.Dense(x, o)
			}
		})
	}
}

// BenchmarkAblationSupportRefresh contrasts the sparse learner with
// and without the greedy active-set refresh.
func BenchmarkAblationSupportRefresh(b *testing.B) {
	_, x := ablationInstance()
	for _, refresh := range []bool{true, false} {
		name := "refresh"
		if !refresh {
			name = "fixed-support"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				o := core.DefaultOptions()
				o.Lambda = 0.2
				o.Epsilon = 1e-3
				o.InitDensity = 0.1
				o.Threshold = 1e-3
				o.MaxOuter = 8
				o.MaxInner = 120
				o.NoSupportRefresh = !refresh
				core.Sparse(x, o)
			}
		})
	}
}

// BenchmarkAblationBatching contrasts full-batch vs the paper's
// mini-batch trick (Fig 3 technique 1).
func BenchmarkAblationBatching(b *testing.B) {
	_, x := ablationInstance()
	for _, batch := range []int{0, 128} {
		name := "full-batch"
		if batch > 0 {
			name = fmt.Sprintf("B=%d", batch)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				o := core.DefaultOptions()
				o.Lambda = 0.2
				o.Epsilon = 1e-3
				o.BatchSize = batch
				o.MaxOuter = 8
				o.MaxInner = 120
				core.Dense(x, o)
			}
		})
	}
}

// BenchmarkAblationK sweeps the similarity-scaling depth k (the paper
// fixes k = 5; §III-B says "a small number around 5 is enough").
func BenchmarkAblationK(b *testing.B) {
	_, ws := benchW(500, 4.0/500)
	for _, k := range []int{1, 3, 5, 10} {
		sp := constraint.NewSpectral(k, 0.9)
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sp.ValueGradSparse(ws)
			}
		})
	}
}

// --- Parallel sparse backend (internal/parallel) ---
//
// Instances and the worker grid come from the par-sweep experiment
// (experiments.ParSweepInstance / DefaultWorkerCounts) so the
// benchmarks and `leastbench -exp par-sweep` measure the same shapes.

// BenchmarkSpectralGradSparse contrasts the serial (workers=1) and
// parallel spectral forward+backward on large-nnz inputs — the
// headline measurement of the parallel sparse backend. On a multi-core
// host the workers=GOMAXPROCS rows should beat workers=1; on a
// single-core host the grid collapses to the serial row.
func BenchmarkSpectralGradSparse(b *testing.B) {
	for _, d := range []int{5000, 20000} {
		ws, _ := experiments.ParSweepInstance(int64(d), d, 8, 1)
		for _, wk := range experiments.DefaultWorkerCounts() {
			sp := constraint.NewSpectral(5, 0.9)
			sp.Workers = wk
			b.Run(fmt.Sprintf("d=%d/workers=%d", d, wk), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					sp.ValueGradSparse(ws)
				}
			})
		}
	}
}

// BenchmarkSpectralValueGrad measures the dense spectral forward +
// backward the dense learners call every inner iteration, on a fully
// dense W. After the first call the evaluator's tape workspace is
// warm, so the steady state must report 0 allocs/op.
func BenchmarkSpectralValueGrad(b *testing.B) {
	for _, d := range []int{12, 100} {
		w, _ := benchW(d, 1)
		sp := constraint.NewSpectral(5, 0.9)
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sp.ValueGrad(w)
			}
		})
	}
}

// BenchmarkSparseLossGrad sweeps the sparse loss (X·W plus the
// support-restricted gradient) across worker counts at Fig-5-step
// shapes.
func BenchmarkSparseLossGrad(b *testing.B) {
	ws, x := experiments.ParSweepInstance(3, 20000, 8, 256)
	for _, wk := range experiments.DefaultWorkerCounts() {
		ls := loss.LeastSquares{Lambda: 0.1, Workers: wk}
		b.Run(fmt.Sprintf("workers=%d", wk), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ls.ValueGradSparse(ws, x)
			}
		})
	}
}

// BenchmarkSparseTranspose sweeps the two-phase parallel transpose.
func BenchmarkSparseTranspose(b *testing.B) {
	ws, _ := experiments.ParSweepInstance(7, 20000, 8, 1)
	for _, wk := range experiments.DefaultWorkerCounts() {
		r := parallel.New(wk)
		b.Run(fmt.Sprintf("workers=%d", wk), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ws.TransposeP(r)
			}
		})
	}
}

// BenchmarkSpMM measures the LEAST-SP loss kernel X·W (dense×CSR).
func BenchmarkSpMM(b *testing.B) {
	for _, d := range []int{500, 2000} {
		_, ws := benchW(d, 4.0/float64(d))
		rng := randx.New(7)
		x := NewMatrix(256, d)
		for i := 0; i < 256; i++ {
			row := x.Row(i)
			for j := range row {
				row[j] = rng.Normal(0, 1)
			}
		}
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sparse.DenseMulCSR(x, ws)
			}
		})
	}
}
