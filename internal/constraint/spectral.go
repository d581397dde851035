// Package constraint implements the differentiable acyclicity
// constraints at the heart of the paper:
//
//   - the paper's contribution (§III): an upper bound δ^(k) on the
//     spectral radius of S = W∘W, computed by k rounds of diagonal
//     similarity scaling (Eq. 4/5) in O(k·nnz) time, with the
//     hand-derived sparse backward pass of Lemmas 3–5;
//   - the NOTEARS baseline (Eq. 2): h(W) = tr(e^S) − d with its
//     O(d³) matrix-exponential gradient;
//   - the DAG-GNN polynomial relaxation (Eq. 3):
//     g(W) = tr((I+γS)^d) − d.
//
// All three vanish exactly on (and only on) weighted DAGs, which is the
// property the learners exploit.
package constraint

import (
	"math"

	"repro/internal/mat"
	"repro/internal/parallel"
	"repro/internal/sparse"
)

// DefaultAlpha is the row/column balancing factor α of Eq. (4); the
// paper fixes α = 0.9 in all experiments (§V "Parameter Settings").
const DefaultAlpha = 0.9

// DefaultK is the number of similarity-scaling rounds; the paper finds
// k ≈ 5 sufficient (§III-B).
const DefaultK = 5

// powSafe computes base^exp treating 0^0 as 1 and never producing NaN
// for the non-negative bases that arise from S = W∘W.
func powSafe(base, exp float64) float64 {
	if base == 0 {
		if exp == 0 {
			return 1
		}
		return 0
	}
	return math.Pow(base, exp)
}

// balanceVec writes b = r^α ∘ c^(1−α) elementwise into b.
func balanceVec(b, r, c []float64, alpha float64) {
	for i := range r {
		b[i] = powSafe(r[i], alpha) * powSafe(c[i], 1-alpha)
	}
}

// xyVec writes the Lemma-3 partials x = α(c/r)^(1−α) and
// y = (1−α)(r/c)^α into x and y, with the zero-row/zero-column
// subgradient convention (a vanished row or column contributes no
// gradient).
func xyVec(x, y, r, c []float64, alpha float64) {
	for i := range r {
		x[i], y[i] = 0, 0
		if r[i] > 0 {
			x[i] = alpha * powSafe(c[i]/r[i], 1-alpha)
		}
		if c[i] > 0 {
			y[i] = (1 - alpha) * powSafe(r[i]/c[i], alpha)
		}
	}
}

// sum returns Σv.
func sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// Spectral evaluates the paper's bound and its gradient for dense
// weight matrices. The dense path runs on a tape workspace the
// evaluator owns (S^(0..K) with their row sums, column sums and b
// vectors, plus the backward buffers): it is sized on first use and
// re-sized only when d or K changes, so steady-state Value and
// ValueGrad calls allocate nothing. The gradient ValueGrad returns
// lives in that workspace too.
//
// A Spectral is not safe for concurrent use, and it must not be copied
// after first use (a copy would share the workspace); concurrent
// learns each build their own.
type Spectral struct {
	K     int
	Alpha float64
	// Workers bounds the goroutine fan-out of the sparse kernels
	// (ValueSparse / ValueGradSparse): 0 selects runtime.GOMAXPROCS,
	// 1 forces the serial path, n > 1 uses at most n workers. Small
	// problems run serially regardless (see MinWork), and for a fixed
	// worker count results are deterministic.
	Workers int
	// MinWork overrides the serial-fallback threshold in scalar-work
	// units (0 = parallel.DefaultMinWork). Tests set 1 to force the
	// parallel path on tiny matrices.
	MinWork int

	tape denseTape
}

// NewSpectral returns a Spectral evaluator with the paper's defaults
// when k ≤ 0 or alpha is outside [0, 1]. Workers defaults to 0
// (automatic fan-out; small inputs still run serially).
func NewSpectral(k int, alpha float64) *Spectral {
	if k <= 0 {
		k = DefaultK
	}
	if alpha < 0 || alpha > 1 {
		alpha = DefaultAlpha
	}
	return &Spectral{K: k, Alpha: alpha}
}

// runner materializes the configured parallelism.
func (sp *Spectral) runner() *parallel.Runner {
	return parallel.NewWithMinWork(sp.Workers, sp.MinWork)
}

// denseTape is the dense path's workspace: the forward tape the
// backward pass replays, plus the backward scratch. A call writes
// every slot before it reads it, so nothing leaks between calls.
type denseTape struct {
	d int
	// Forward tape, one entry per round j = 0..K: S^(j) (d×d,
	// row-major), its row sums r^(j), column sums c^(j) and balance
	// vector b^(j).
	s, r, c, b [][]float64
	// Per-round scratch: D⁻¹'s diagonal in the forward pass; the
	// Lemma-3 partials, the z vector and the row accumulators in the
	// backward pass.
	inv, x, y, z, rowAcc []float64
	// G^(j) and G^(j−1), swapping roles each backward round.
	g, gNext []float64
	// The gradient ValueGrad returns.
	grad *mat.Dense
}

// workspace returns the dense tape sized for a d×d W and sp.K rounds,
// re-sizing it only when either changed since the last call.
func (sp *Spectral) workspace(d int) *denseTape {
	t := &sp.tape
	if t.grad != nil && t.d == d && len(t.s) == sp.K+1 {
		return t
	}
	rounds := func(size int) [][]float64 {
		v := make([][]float64, sp.K+1)
		for j := range v {
			v[j] = make([]float64, size)
		}
		return v
	}
	*t = denseTape{
		d: d,
		s: rounds(d * d), r: rounds(d), c: rounds(d), b: rounds(d),
		inv: make([]float64, d), x: make([]float64, d), y: make([]float64, d),
		z: make([]float64, d), rowAcc: make([]float64, d),
		g: make([]float64, d*d), gNext: make([]float64, d*d),
		grad: mat.NewDense(d, d),
	}
	return t
}

// Value returns δ^(k)(W) (FORWARD of Fig 2) for a dense W. It reuses
// the forward tape but leaves a gradient returned by ValueGrad intact.
func (sp *Spectral) Value(w *mat.Dense) float64 {
	return sp.forwardDense(w)
}

// forwardDense runs FORWARD onto the tape. Each round writes S^(j+1) =
// D⁻¹S^(j)D and accumulates its row and column sums in the same pass,
// in the order mat.Dense.RowSums/ColSums would (each row left to right,
// columns in row-major order), so the sums are bit-identical to
// separate passes.
func (sp *Spectral) forwardDense(w *mat.Dense) float64 {
	d := w.Rows()
	t := sp.workspace(d)
	// S^(0) = W∘W.
	wd, s, r, c := w.Data(), t.s[0], t.r[0], t.c[0]
	clear(c)
	for i := 0; i < d; i++ {
		wrow, srow := wd[i*d:(i+1)*d], s[i*d:(i+1)*d]
		var rs float64
		for l, v := range wrow {
			sv := v * v
			srow[l] = sv
			rs += sv
			c[l] += sv
		}
		r[i] = rs
	}
	balanceVec(t.b[0], r, c, sp.Alpha)
	for j := 0; j < sp.K; j++ {
		// S^(j+1) = D⁻¹ S^(j) D, i.e. S[i,l] * b[l]/b[i].
		b, inv := t.b[j], t.inv
		for i, bi := range b {
			inv[i] = 0
			if bi > 0 {
				inv[i] = 1 / bi
			}
		}
		s, next, r, c := t.s[j], t.s[j+1], t.r[j+1], t.c[j+1]
		clear(c)
		for i := 0; i < d; i++ {
			srow, nrow := s[i*d:(i+1)*d], next[i*d:(i+1)*d]
			ri := inv[i]
			if ri == 0 {
				clear(nrow)
				r[i] = 0
				continue
			}
			b, c := b[:len(srow)], c[:len(srow)] // bounds-check hint
			var rs float64
			for l, v := range srow {
				var nv float64
				if v != 0 {
					nv = v * b[l] * ri
				}
				nrow[l] = nv
				rs += nv
				c[l] += nv
			}
			r[i] = rs
		}
		balanceVec(t.b[j+1], r, c, sp.Alpha)
	}
	return sum(t.b[sp.K])
}

// ValueGrad returns δ^(k)(W) and ∇_W δ^(k) (FORWARD + BACKWARD of
// Fig 2). The gradient is supported exactly on the non-zeros of W
// (Lemma 5 masking), so for a sparse W the returned dense matrix is
// sparse too.
//
// The gradient is owned by the evaluator: it stays valid until the
// next ValueGrad call on the same Spectral, which overwrites it (Value
// does not). This is the loss.GramEval contract; the learners fold the
// gradient into the optimizer within the same iteration.
func (sp *Spectral) ValueGrad(w *mat.Dense) (float64, *mat.Dense) {
	val := sp.forwardDense(w)
	t := &sp.tape
	d, wd := t.d, w.Data()
	x, y, z, rowAcc := t.x, t.y, t.z, t.rowAcc
	// G^(k) = (x^(k)[i] + y^(k)[l]) masked to the support of W.
	xyVec(x, y, t.r[sp.K], t.c[sp.K], sp.Alpha)
	g, next := t.g, t.gNext
	for i := 0; i < d; i++ {
		wrow, grow := wd[i*d:(i+1)*d], g[i*d:(i+1)*d]
		for l, wv := range wrow {
			grow[l] = 0
			if wv != 0 {
				grow[l] = x[i] + y[l]
			}
		}
	}
	for j := sp.K; j >= 1; j-- {
		s, b := t.s[j-1], t.b[j-1]
		xyVec(x, y, t.r[j-1], t.c[j-1], sp.Alpha)
		// z^(j−1)[m] = Σ_i G[i,m]·S[i,m]/b[i]  −  (Σ_l G[m,l]·S[m,l]·b[l]) / b[m]²
		clear(z)
		for i := 0; i < d; i++ {
			bi := b[i]
			grow, srow := g[i*d:(i+1)*d], s[i*d:(i+1)*d]
			b, z := b[:len(grow)], z[:len(grow)] // bounds-check hint
			// Σ_l G[i,l]·S[i,l]·b[l], kept in a register rather than rowAcc[i].
			var acc float64
			for l, gv := range grow {
				if gv == 0 {
					continue
				}
				tv := gv * srow[l]
				if tv == 0 {
					continue
				}
				if bi > 0 {
					z[l] += tv / bi
				}
				acc += tv * b[l]
			}
			rowAcc[i] = acc
		}
		for m := 0; m < d; m++ {
			if b[m] > 0 {
				z[m] -= rowAcc[m] / (b[m] * b[m])
			}
		}
		// G^(j−1)[p,q] = (b[q]/b[p])·G^(j)[p,q] + x[p]z[p] + y[q]z[q],
		// masked; y becomes y∘z, which is all y is needed for.
		for q := range y {
			y[q] *= z[q]
		}
		for p := 0; p < d; p++ {
			wrow, grow, nrow := wd[p*d:(p+1)*d], g[p*d:(p+1)*d], next[p*d:(p+1)*d]
			var invBp float64
			if b[p] > 0 {
				invBp = 1 / b[p]
			}
			xz := x[p] * z[p]
			yz, b := y[:len(wrow)], b[:len(wrow)] // bounds-check hint
			for q, wv := range wrow {
				if wv == 0 {
					nrow[q] = 0
					continue
				}
				v := xz + yz[q]
				if gv := grow[q]; gv != 0 && invBp > 0 {
					v += gv * b[q] * invBp
				}
				nrow[q] = v
			}
		}
		g, next = next, g
	}
	// ∇_W δ = 2·G^(0) ∘ W (Eq. 10).
	grad := t.grad.Data()
	for k, wv := range wd {
		grad[k] = 2 * g[k] * wv
	}
	return val, t.grad
}

// --- Sparse (CSR) form: the LEAST-SP kernel ------------------------------

// sparseTape is the saved forward state for the CSR backward pass; all
// matrices share w's sparsity pattern.
type sparseTape struct {
	s [][]float64 // values of S^(0..k) on the fixed pattern
	b [][]float64
}

// ValueSparse returns δ^(k)(W) for a CSR weight matrix in O(k·nnz).
func (sp *Spectral) ValueSparse(w *sparse.CSR) float64 {
	v, _ := sp.forwardSparse(w)
	return v
}

func (sp *Spectral) forwardSparse(w *sparse.CSR) (float64, *sparseTape) {
	run := sp.runner()
	tape := &sparseTape{}
	s := w.SquareP(run) // shares w's pattern
	for j := 0; j <= sp.K; j++ {
		r := s.RowSumsP(run)
		c := s.ColSumsP(run)
		b := make([]float64, len(r))
		balanceVec(b, r, c, sp.Alpha)
		tape.s = append(tape.s, append([]float64(nil), s.Val...))
		tape.b = append(tape.b, b)
		if j == sp.K {
			break
		}
		inv := make([]float64, len(b))
		bc := make([]float64, len(b))
		for i, bi := range b {
			if bi > 0 {
				inv[i] = 1 / bi
			}
			bc[i] = bi
		}
		s.ScaleRowsColsP(run, inv, bc)
	}
	return sum(tape.b[sp.K]), tape
}

// ValueGradSparse returns δ^(k)(W) and ∇_W δ^(k) as values on w's
// pattern, in O(k·nnz) time and space — the complexity claim of
// §III-C that makes LEAST-SP scale to 10⁵+ nodes.
func (sp *Spectral) ValueGradSparse(w *sparse.CSR) (float64, []float64) {
	run := sp.runner()
	val, tape := sp.forwardSparse(w)
	d := w.Rows()
	nnz := w.NNZ()
	sk := w.WithValues(tape.s[sp.K])
	xk, yk := make([]float64, d), make([]float64, d)
	xyVec(xk, yk, sk.RowSumsP(run), sk.ColSumsP(run), sp.Alpha)
	g := make([]float64, nnz)
	run.ForWeighted(w.RowPtr, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			for p := w.RowPtr[i]; p < w.RowPtr[i+1]; p++ {
				if w.Val[p] != 0 {
					g[p] = xk[i] + yk[w.ColIdx[p]]
				}
			}
		}
	})
	for j := sp.K; j >= 1; j-- {
		sv := tape.s[j-1]
		b := tape.b[j-1]
		sPrev := w.WithValues(sv)
		x, y := make([]float64, d), make([]float64, d)
		xyVec(x, y, sPrev.RowSumsP(run), sPrev.ColSumsP(run), sp.Alpha)
		z := make([]float64, d)
		rowAcc := make([]float64, d)
		// The z accumulation scatters by column, so each worker sums
		// into its own partial vector and the partials reduce in slot
		// order (deterministic for a fixed worker count); rowAcc is
		// row-indexed and row ranges are disjoint, so it is shared.
		if run.Serial(d, nnz) {
			for i := 0; i < d; i++ {
				for p := w.RowPtr[i]; p < w.RowPtr[i+1]; p++ {
					t := g[p] * sv[p]
					if t == 0 {
						continue
					}
					l := w.ColIdx[p]
					if b[i] > 0 {
						z[l] += t / b[i]
					}
					rowAcc[i] += t * b[l]
				}
			}
		} else {
			partials := make([][]float64, run.Workers())
			parts := run.ForWeighted(w.RowPtr, func(lo, hi, wk int) {
				zp := make([]float64, d)
				for i := lo; i < hi; i++ {
					for p := w.RowPtr[i]; p < w.RowPtr[i+1]; p++ {
						t := g[p] * sv[p]
						if t == 0 {
							continue
						}
						l := w.ColIdx[p]
						if b[i] > 0 {
							zp[l] += t / b[i]
						}
						rowAcc[i] += t * b[l]
					}
				}
				partials[wk] = zp
			})
			parallel.SumVecs(z, partials[:parts])
		}
		for m := 0; m < d; m++ {
			if b[m] > 0 {
				z[m] -= rowAcc[m] / (b[m] * b[m])
			}
		}
		next := make([]float64, nnz)
		run.ForWeighted(w.RowPtr, func(lo, hi, _ int) {
			for i := lo; i < hi; i++ {
				var invBi float64
				if b[i] > 0 {
					invBi = 1 / b[i]
				}
				for p := w.RowPtr[i]; p < w.RowPtr[i+1]; p++ {
					if w.Val[p] == 0 {
						continue
					}
					q := w.ColIdx[p]
					v := x[i]*z[i] + y[q]*z[q]
					if g[p] != 0 && invBi > 0 {
						v += g[p] * b[q] * invBi
					}
					next[p] = v
				}
			}
		})
		g = next
	}
	grad := make([]float64, nnz)
	run.For(nnz, nnz, func(lo, hi, _ int) {
		for p := lo; p < hi; p++ {
			grad[p] = 2 * g[p] * w.Val[p]
		}
	})
	return val, grad
}
