package constraint

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/mat"
	"repro/internal/randx"
	"repro/internal/sparse"
)

func randW(rng *randx.RNG, d int, density float64) *mat.Dense {
	w := mat.NewDense(d, d)
	for i := 0; i < d; i++ {
		for j := 0; j < d; j++ {
			if i != j && rng.Float64() < density {
				w.Set(i, j, rng.Uniform(-1.5, 1.5))
			}
		}
	}
	return w
}

// longestPath returns the number of edges on dag's longest path.
func longestPath(t *testing.T, dag *gen.DAG) int {
	t.Helper()
	order, ok := dag.G.TopoSort()
	if !ok {
		t.Fatal("generated graph is cyclic")
	}
	depth := make([]int, dag.G.N()) // edges on the longest path ending at v
	longest := 0
	for _, u := range order {
		for _, v := range dag.G.Children(u) {
			depth[v] = max(depth[v], depth[u]+1)
			longest = max(longest, depth[v])
		}
	}
	return longest
}

// TestSpectralZeroOnDAG: every scaling round zeroes b at the current
// sources (c = 0) and sinks (r = 0), which removes them from S, so a
// DAG's longest path loses an edge at each end per round. Once it is
// down to one edge no node has both an in- and an out-edge, b^(k) = 0
// and δ^(k) is exactly 0 — on both the dense and the sparse path — for
// every k with longest path ≤ 2k+1.
func TestSpectralZeroOnDAG(t *testing.T) {
	rng := randx.New(7)
	checked := 0
	for trial := 0; trial < 20; trial++ {
		dag := gen.RandomDAG(rng, gen.ER, 12, 2, 0.5, 2)
		if got := ExactSpectralRadius(dag.W); got > 1e-6 {
			t.Fatalf("trial %d: DAG has spectral radius %g", trial, got)
		}
		wc := sparse.FromDense(dag.W, 0)
		L := longestPath(t, dag)
		for k := 1; k <= 8; k++ {
			if L > 2*k+1 {
				continue
			}
			sp := &Spectral{K: k, Alpha: DefaultAlpha}
			if v := sp.Value(dag.W); v != 0 {
				t.Errorf("trial %d (longest path %d): dense δ^(%d) = %g, want 0", trial, L, k, v)
			}
			if v, _ := sp.ValueGrad(dag.W); v != 0 {
				t.Errorf("trial %d (longest path %d): dense ValueGrad δ^(%d) = %g, want 0", trial, L, k, v)
			}
			if v := sp.ValueSparse(wc); v != 0 {
				t.Errorf("trial %d (longest path %d): sparse δ^(%d) = %g, want 0", trial, L, k, v)
			}
			checked++
		}
	}
	if checked < 20*5 {
		t.Fatalf("only %d (DAG, k) cells met longest path ≤ 2k+1", checked)
	}
}

func TestSpectralUpperBoundsRadius(t *testing.T) {
	rng := randx.New(11)
	for _, d := range []int{2, 5, 10, 25} {
		for trial := 0; trial < 10; trial++ {
			w := randW(rng, d, 0.3)
			exact := ExactSpectralRadius(w)
			for _, k := range []int{0, 1, 3, 5, 8} {
				// Built directly: NewSpectral maps k ≤ 0 to DefaultK.
				sp := &Spectral{K: k, Alpha: 0.9}
				bound := sp.Value(w)
				if bound+1e-9 < exact {
					t.Fatalf("d=%d k=%d: bound %g < exact radius %g", d, k, bound, exact)
				}
			}
		}
	}
}

func TestSpectralBoundMonotoneInK(t *testing.T) {
	// More similarity-scaling rounds should not make the bound larger
	// in the typical (balanced) regime; we assert the bound stays an
	// upper bound and that k=8 is no worse than k=0 by more than noise.
	rng := randx.New(13)
	for trial := 0; trial < 10; trial++ {
		w := randW(rng, 15, 0.2)
		b0 := NewSpectral(1, 0.9).Value(w)
		b8 := NewSpectral(8, 0.9).Value(w)
		exact := ExactSpectralRadius(w)
		if b8+1e-9 < exact {
			t.Fatalf("k=8 bound %g below exact %g", b8, exact)
		}
		if b8 > b0*10+1 {
			t.Fatalf("k=8 bound %g blew up vs k=1 bound %g", b8, b0)
		}
	}
}

// TestSpectralGradientFiniteDifference checks ∇δ against central
// differences at every tape depth the learners reach, including the
// one-round K=0 tape. The Value probes run on the evaluator that
// returned grad, which is safe because Value never writes the gradient.
func TestSpectralGradientFiniteDifference(t *testing.T) {
	for _, k := range []int{0, 1, 5, 8} {
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
			rng := randx.New(23)
			sp := &Spectral{K: k, Alpha: 0.9}
			for trial := 0; trial < 5; trial++ {
				d := 6
				w := randW(rng, d, 0.5)
				_, grad := sp.ValueGrad(w)
				const h = 1e-6
				for i := 0; i < d; i++ {
					for j := 0; j < d; j++ {
						if w.At(i, j) == 0 {
							if grad.At(i, j) != 0 {
								t.Fatalf("gradient off-support at (%d,%d): %g", i, j, grad.At(i, j))
							}
							continue
						}
						orig := w.At(i, j)
						w.Set(i, j, orig+h)
						fp := sp.Value(w)
						w.Set(i, j, orig-h)
						fm := sp.Value(w)
						w.Set(i, j, orig)
						fd := (fp - fm) / (2 * h)
						g := grad.At(i, j)
						if diff := math.Abs(fd - g); diff > 1e-4*math.Max(1, math.Abs(fd)) {
							t.Errorf("trial %d (%d,%d): analytic %g vs finite-diff %g", trial, i, j, g, fd)
						}
					}
				}
			}
		})
	}
}

func TestSparseMatchesDense(t *testing.T) {
	rng := randx.New(31)
	sp := NewSpectral(5, 0.9)
	for trial := 0; trial < 10; trial++ {
		d := 12
		w := randW(rng, d, 0.25)
		wc := sparse.FromDense(w, 0)
		dv, dg := sp.ValueGrad(w)
		sv, sg := sp.ValueGradSparse(wc)
		if math.Abs(dv-sv) > 1e-9*math.Max(1, math.Abs(dv)) {
			t.Fatalf("value mismatch dense %g vs sparse %g", dv, sv)
		}
		sgd := wc.WithValues(sg).ToDense()
		if !dg.EqualApprox(sgd, 1e-9) {
			t.Fatalf("gradient mismatch between dense and sparse paths")
		}
	}
}

func TestSparseGradientFiniteDifference(t *testing.T) {
	rng := randx.New(41)
	sp := NewSpectral(3, 0.9)
	d := 8
	w := randW(rng, d, 0.3)
	wc := sparse.FromDense(w, 0)
	_, grad := sp.ValueGradSparse(wc)
	const h = 1e-6
	for p := 0; p < wc.NNZ(); p++ {
		orig := wc.Val[p]
		wc.Val[p] = orig + h
		fp := sp.ValueSparse(wc)
		wc.Val[p] = orig - h
		fm := sp.ValueSparse(wc)
		wc.Val[p] = orig
		fd := (fp - fm) / (2 * h)
		if diff := math.Abs(fd - grad[p]); diff > 1e-4*math.Max(1, math.Abs(fd)) {
			t.Errorf("entry %d: analytic %g vs finite-diff %g", p, grad[p], fd)
		}
	}
}

func TestNotearsHZeroOnDAGPositiveOnCycle(t *testing.T) {
	rng := randx.New(3)
	dag := gen.RandomDAG(rng, gen.ER, 10, 2, 0.5, 2)
	if h := NotearsH(dag.W); math.Abs(h) > 1e-8 {
		t.Fatalf("h(DAG) = %g, want 0", h)
	}
	// Add a 2-cycle.
	w := dag.W.Clone()
	w.Set(0, 1, 0.8)
	w.Set(1, 0, 0.9)
	if h := NotearsH(w); h <= 0 {
		t.Fatalf("h(cyclic) = %g, want > 0", h)
	}
	if g := PolyG(w, 1.0/10); g <= 0 {
		t.Fatalf("g(cyclic) = %g, want > 0", g)
	}
	if g := PolyG(dag.W, 1.0/10); math.Abs(g) > 1e-6 {
		t.Fatalf("g(DAG) = %g, want 0", g)
	}
}

func TestNotearsGradientFiniteDifference(t *testing.T) {
	rng := randx.New(5)
	d := 6
	w := randW(rng, d, 0.5)
	_, grad := NotearsHGrad(w)
	const h = 1e-6
	for i := 0; i < d; i++ {
		for j := 0; j < d; j++ {
			orig := w.At(i, j)
			w.Set(i, j, orig+h)
			fp := NotearsH(w)
			w.Set(i, j, orig-h)
			fm := NotearsH(w)
			w.Set(i, j, orig)
			fd := (fp - fm) / (2 * h)
			if diff := math.Abs(fd - grad.At(i, j)); diff > 1e-4*math.Max(1, math.Abs(fd)) {
				t.Errorf("(%d,%d): analytic %g vs finite-diff %g", i, j, grad.At(i, j), fd)
			}
		}
	}
}

func TestPolyGradientFiniteDifference(t *testing.T) {
	rng := randx.New(9)
	d := 6
	gamma := 1.0 / float64(d)
	w := randW(rng, d, 0.5)
	_, grad := PolyGGrad(w, gamma)
	const h = 1e-6
	for i := 0; i < d; i++ {
		for j := 0; j < d; j++ {
			orig := w.At(i, j)
			w.Set(i, j, orig+h)
			fp := PolyG(w, gamma)
			w.Set(i, j, orig-h)
			fm := PolyG(w, gamma)
			w.Set(i, j, orig)
			fd := (fp - fm) / (2 * h)
			if diff := math.Abs(fd - grad.At(i, j)); diff > 1e-4*math.Max(1, math.Abs(fd)) {
				t.Errorf("(%d,%d): analytic %g vs finite-diff %g", i, j, grad.At(i, j), fd)
			}
		}
	}
}

func TestSpectralBoundPropertyQuick(t *testing.T) {
	// Property: for arbitrary small matrices, δ^(k)(W) ≥ ρ(W∘W) and
	// δ^(k) ≥ 0 always.
	sp := NewSpectral(5, 0.9)
	f := func(vals [16]float64) bool {
		w := mat.NewDense(4, 4)
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				v := math.Mod(vals[i*4+j], 3)
				if math.IsNaN(v) || math.IsInf(v, 0) {
					v = 0
				}
				if i != j {
					w.Set(i, j, v)
				}
			}
		}
		bound := sp.Value(w)
		if bound < 0 || math.IsNaN(bound) {
			return false
		}
		exact := ExactSpectralRadius(w)
		return bound+1e-7 >= exact
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestZeroMatrixAndEmpty(t *testing.T) {
	sp := NewSpectral(5, 0.9)
	w := mat.NewDense(5, 5)
	if v := sp.Value(w); v != 0 {
		t.Fatalf("δ(0) = %g, want 0", v)
	}
	v, g := sp.ValueGrad(w)
	if v != 0 || g.MaxAbs() != 0 {
		t.Fatalf("δ(0)=%g grad max=%g, want zeros", v, g.MaxAbs())
	}
	if h := NotearsH(w); math.Abs(h) > 1e-10 {
		t.Fatalf("h(0) = %g", h)
	}
}

func TestLemma2Consistency(t *testing.T) {
	// Qualitative form of Lemma 2: as δ^(k) shrinks toward 0 on a
	// sequence of matrices, h must shrink too.
	rng := randx.New(77)
	sp := NewSpectral(5, 0.9)
	w := randW(rng, 8, 0.4)
	prevH := math.Inf(1)
	for _, scale := range []float64{1, 0.5, 0.25, 0.1, 0.02} {
		ws := w.Scale(scale)
		delta := sp.Value(ws)
		h := NotearsH(ws)
		if delta < 1e-3 && h > 0.1 {
			t.Fatalf("scale %g: δ=%g small but h=%g large", scale, delta, h)
		}
		if h > prevH+1e-9 {
			t.Fatalf("h not decreasing along shrinking sequence")
		}
		prevH = h
	}
}

// TestNotearsHNonFiniteW: a diverging iterate (NaN/Inf entries) must
// surface as h = NaN — not a panic from the matrix exponential — so
// learners break out through their NaN guards and a serving daemon
// survives the job.
func TestNotearsHNonFiniteW(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		w := mat.NewDense(4, 4)
		w.Set(0, 1, 0.5)
		w.Set(2, 3, bad)
		if h := NotearsH(w); !math.IsNaN(h) {
			t.Fatalf("NotearsH with entry %g = %g, want NaN", bad, h)
		}
		h, grad := NotearsHGrad(w)
		if !math.IsNaN(h) {
			t.Fatalf("NotearsHGrad h with entry %g = %g, want NaN", bad, h)
		}
		for i, v := range grad.Data() {
			if v != 0 {
				t.Fatalf("NotearsHGrad grad[%d] = %g, want 0", i, v)
			}
		}
	}
}
