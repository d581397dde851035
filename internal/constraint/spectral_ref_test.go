package constraint

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/mat"
	"repro/internal/randx"
)

// This file keeps the original allocating dense evaluator as a
// test-only oracle, the way mat.MulRef keeps the pre-tiling GEMM: the
// workspace path in spectral.go must reproduce it bit for bit.

func refBalanceVec(r, c []float64, alpha float64) []float64 {
	b := make([]float64, len(r))
	for i := range r {
		b[i] = powSafe(r[i], alpha) * powSafe(c[i], 1-alpha)
	}
	return b
}

func refXYVec(r, c []float64, alpha float64) (x, y []float64) {
	x = make([]float64, len(r))
	y = make([]float64, len(r))
	for i := range r {
		if r[i] > 0 {
			x[i] = alpha * powSafe(c[i]/r[i], 1-alpha)
		}
		if c[i] > 0 {
			y[i] = (1 - alpha) * powSafe(r[i]/c[i], alpha)
		}
	}
	return x, y
}

// refForwardDense is FORWARD with a fresh S^(j) and separate row/column
// sum passes per round.
func refForwardDense(k int, alpha float64, w *mat.Dense) (float64, []*mat.Dense, [][]float64) {
	var ss []*mat.Dense
	var bs [][]float64
	s := w.Square()
	for j := 0; j <= k; j++ {
		b := refBalanceVec(s.RowSums(), s.ColSums(), alpha)
		ss = append(ss, s)
		bs = append(bs, b)
		if j == k {
			break
		}
		next := mat.NewDense(s.Rows(), s.Cols())
		inv := make([]float64, len(b))
		for i, bi := range b {
			if bi > 0 {
				inv[i] = 1 / bi
			}
		}
		for i := 0; i < s.Rows(); i++ {
			srow := s.Row(i)
			nrow := next.Row(i)
			ri := inv[i]
			if ri == 0 {
				continue
			}
			for l, v := range srow {
				if v != 0 {
					nrow[l] = v * b[l] * ri
				}
			}
		}
		s = next
	}
	return sum(bs[k]), ss, bs
}

// refValueGradDense is FORWARD + BACKWARD allocating every intermediate
// and recomputing the row/column sums in the backward pass.
func refValueGradDense(k int, alpha float64, w *mat.Dense) (float64, *mat.Dense) {
	val, ss, bs := refForwardDense(k, alpha, w)
	d := w.Rows()
	xk, yk := refXYVec(ss[k].RowSums(), ss[k].ColSums(), alpha)
	g := mat.NewDense(d, d)
	for i := 0; i < d; i++ {
		wrow := w.Row(i)
		grow := g.Row(i)
		for l, wv := range wrow {
			if wv != 0 {
				grow[l] = xk[i] + yk[l]
			}
		}
	}
	for j := k; j >= 1; j-- {
		sPrev := ss[j-1]
		b := bs[j-1]
		x, y := refXYVec(sPrev.RowSums(), sPrev.ColSums(), alpha)
		z := make([]float64, d)
		rowAcc := make([]float64, d)
		for i := 0; i < d; i++ {
			grow := g.Row(i)
			srow := sPrev.Row(i)
			for l, gv := range grow {
				if gv == 0 {
					continue
				}
				t := gv * srow[l]
				if t == 0 {
					continue
				}
				if b[i] > 0 {
					z[l] += t / b[i]
				}
				rowAcc[i] += t * b[l]
			}
		}
		for m := 0; m < d; m++ {
			if b[m] > 0 {
				z[m] -= rowAcc[m] / (b[m] * b[m])
			}
		}
		next := mat.NewDense(d, d)
		for p := 0; p < d; p++ {
			grow := g.Row(p)
			wrow := w.Row(p)
			nrow := next.Row(p)
			var invBp float64
			if b[p] > 0 {
				invBp = 1 / b[p]
			}
			for q, wv := range wrow {
				if wv == 0 {
					continue
				}
				v := x[p]*z[p] + y[q]*z[q]
				if gv := grow[q]; gv != 0 && invBp > 0 {
					v += gv * b[q] * invBp
				}
				nrow[q] = v
			}
		}
		g = next
	}
	grad := mat.NewDense(d, d)
	for i := 0; i < d; i++ {
		grow := g.Row(i)
		wrow := w.Row(i)
		out := grad.Row(i)
		for l := range out {
			out[l] = 2 * grow[l] * wrow[l]
		}
	}
	return val, grad
}

// sameBits reports whether a and b have identical Float64bits. Two NaNs
// also match: Go leaves NaN payloads unspecified (x86 keeps whichever
// NaN operand the register allocator put first), so only NaN-ness is
// a property of the code.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// assertBitIdentical checks δ (via Value and ValueGrad) and every
// gradient entry of sp against the reference, bit for bit.
func assertBitIdentical(t *testing.T, sp *Spectral, w *mat.Dense) {
	t.Helper()
	wantVal, wantGrad := refValueGradDense(sp.K, sp.Alpha, w)
	if v := sp.Value(w); !sameBits(v, wantVal) {
		t.Fatalf("Value = %v, reference %v", v, wantVal)
	}
	val, grad := sp.ValueGrad(w)
	if !sameBits(val, wantVal) {
		t.Fatalf("ValueGrad δ = %v, reference %v", val, wantVal)
	}
	if grad.Rows() != wantGrad.Rows() || grad.Cols() != wantGrad.Cols() {
		t.Fatalf("gradient is %dx%d, reference %dx%d", grad.Rows(), grad.Cols(), wantGrad.Rows(), wantGrad.Cols())
	}
	want := wantGrad.Data()
	for i, g := range grad.Data() {
		if !sameBits(g, want[i]) {
			t.Fatalf("grad[%d,%d] = %v (%#x), reference %v (%#x)",
				i/w.Cols(), i%w.Cols(), g, math.Float64bits(g), want[i], math.Float64bits(want[i]))
		}
	}
	// The tape itself must hold exactly the reference's S^(j) and
	// vectors, including rows the backward pass happens not to read.
	_, ss, bs := refForwardDense(sp.K, sp.Alpha, w)
	for j := range ss {
		for name, pair := range map[string][2][]float64{
			"S": {sp.tape.s[j], ss[j].Data()},
			"r": {sp.tape.r[j], ss[j].RowSums()},
			"c": {sp.tape.c[j], ss[j].ColSums()},
			"b": {sp.tape.b[j], bs[j]},
		} {
			for i := range pair[1] {
				if !sameBits(pair[0][i], pair[1][i]) {
					t.Fatalf("tape %s^(%d)[%d] = %v, reference %v", name, j, i, pair[0][i], pair[1][i])
				}
			}
		}
	}
}

// poison overwrites every slot of sp's dense workspace with v, as
// stale data from an unrelated call could leave it.
func poison(sp *Spectral, v float64) {
	t := &sp.tape
	fill := func(s []float64) {
		for i := range s {
			s[i] = v
		}
	}
	for _, vecs := range [][][]float64{t.s, t.r, t.c, t.b} {
		for _, s := range vecs {
			fill(s)
		}
	}
	for _, s := range [][]float64{t.inv, t.x, t.y, t.z, t.rowAcc, t.g, t.gNext, t.grad.Data()} {
		fill(s)
	}
}

// TestSpectralPoisonedWorkspaceMatchesReference fills the warm
// workspace with garbage before every call: any slot a call reads
// without first writing it surfaces as a mismatch.
func TestSpectralPoisonedWorkspaceMatchesReference(t *testing.T) {
	rng := randx.New(127)
	for _, k := range []int{0, 1, 5} {
		sp := &Spectral{K: k, Alpha: DefaultAlpha}
		for _, d := range []int{5, 12} {
			for _, density := range []float64{0.05, 0.3, 1} {
				w := randW(rng, d, density)
				for _, v := range []float64{math.NaN(), 1.5, -1.5} {
					sp.Value(w) // size the workspace
					poison(sp, v)
					assertBitIdentical(t, sp, w)
					poison(sp, v)
					assertBitIdentical(t, sp, withZeroRowCol(w, 0, d/2))
				}
			}
		}
	}
}

// withZeroRowCol clears row i and column j of a copy of w.
func withZeroRowCol(w *mat.Dense, i, j int) *mat.Dense {
	z := w.Clone()
	for l := 0; l < z.Cols(); l++ {
		z.Set(i, l, 0)
		z.Set(l, j, 0)
	}
	return z
}

// TestSpectralDenseMatchesReference sweeps d, K and density (plus an
// all-zero row and column) and demands bit-identical δ and ∇δ from the
// workspace path. One evaluator per K serves every d in turn, so the
// re-sizing path is crossed repeatedly.
func TestSpectralDenseMatchesReference(t *testing.T) {
	rng := randx.New(101)
	for _, k := range []int{0, 1, 5, 8} {
		sp := &Spectral{K: k, Alpha: DefaultAlpha}
		for _, d := range []int{1, 2, 5, 12, 37, 100} {
			for _, density := range []float64{0, 0.05, 0.3, 1} {
				t.Run(fmt.Sprintf("K=%d/d=%d/density=%g", k, d, density), func(t *testing.T) {
					w := randW(rng, d, density)
					assertBitIdentical(t, sp, w)
					assertBitIdentical(t, sp, withZeroRowCol(w, d/2, d-1))
				})
			}
		}
	}
}

// TestSpectralWorkspaceReuseAcrossSizes reuses one evaluator across
// d = 5 → 12 → 5 and across K changes: any buffer carried over from the
// larger problem would surface as a bit mismatch.
func TestSpectralWorkspaceReuseAcrossSizes(t *testing.T) {
	rng := randx.New(103)
	sp := NewSpectral(DefaultK, DefaultAlpha)
	for _, d := range []int{5, 12, 5} {
		dense := randW(rng, d, 1)
		sparseW := randW(rng, d, 0.2)
		assertBitIdentical(t, sp, dense)
		assertBitIdentical(t, sp, sparseW) // after a dense W: masked entries must be rewritten
		assertBitIdentical(t, sp, withZeroRowCol(dense, 0, d-1))
	}
	for _, k := range []int{8, 1, 5} {
		sp.K = k
		assertBitIdentical(t, sp, randW(rng, 5, 0.5))
	}
}

// TestSpectralDenseExtremesMatchReference covers entries whose square
// underflows to 0 or overflows to +Inf, and a diverged (NaN) iterate:
// the learner's NaN guard sees the same bits either way.
func TestSpectralDenseExtremesMatchReference(t *testing.T) {
	rng := randx.New(113)
	for name, v := range map[string]float64{"underflow": 1e-170, "overflow": 1e200, "nan": math.NaN(), "inf": math.Inf(-1)} {
		t.Run(name, func(t *testing.T) {
			w := randW(rng, 6, 0.5)
			w.Set(1, 3, v)
			w.Set(3, 1, v)
			assertBitIdentical(t, &Spectral{K: DefaultK, Alpha: DefaultAlpha}, w)
		})
	}
}

// TestSpectralValueKeepsGradient: Value shares the forward tape with
// ValueGrad but must not overwrite the gradient a caller still holds
// (the finite-difference tests probe Value between reads of it).
func TestSpectralValueKeepsGradient(t *testing.T) {
	rng := randx.New(107)
	sp := NewSpectral(DefaultK, DefaultAlpha)
	w := randW(rng, 12, 0.4)
	_, grad := sp.ValueGrad(w)
	held := grad.Clone()
	sp.Value(randW(rng, 12, 0.8))
	if !grad.EqualApprox(held, 0) {
		t.Fatal("Value overwrote the gradient returned by ValueGrad")
	}
}

// TestSpectralValueGradZeroAlloc pins the workspace contract: once the
// evaluator has seen a d×d W, ValueGrad and Value allocate nothing.
func TestSpectralValueGradZeroAlloc(t *testing.T) {
	rng := randx.New(109)
	for _, d := range []int{12, 100} {
		sp := NewSpectral(DefaultK, DefaultAlpha)
		w := randW(rng, d, 0.5)
		sp.ValueGrad(w) // warm the workspace
		if allocs := testing.AllocsPerRun(20, func() { sp.ValueGrad(w) }); allocs != 0 {
			t.Errorf("d=%d: steady-state ValueGrad allocates %.1f objects/op, want 0", d, allocs)
		}
		if allocs := testing.AllocsPerRun(20, func() { sp.Value(w) }); allocs != 0 {
			t.Errorf("d=%d: steady-state Value allocates %.1f objects/op, want 0", d, allocs)
		}
	}
}
