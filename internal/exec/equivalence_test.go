// Equivalence property tests for the exec engine (external test package so
// it can drive the engine through the real kernel layers): for random
// shapes, grains (hence chunk counts), and pool sizes, exec-backed
// element-wise ops and reductions alike must give the same bits at every
// pool size — the one-worker engine included.
package exec_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"odinhpc/internal/comm"
	"odinhpc/internal/core"
	"odinhpc/internal/dense"
	"odinhpc/internal/exec"
	"odinhpc/internal/fusion"
	"odinhpc/internal/sparse"
)

// The pool sizes every test below covers: pool 1 is the reference, and the
// others must give the same bits.
var pools = []int{1, 2, 4, 7}

// withPool runs f with the default engine set to (workers, grain).
func withPool(workers, grain int, f func()) {
	old := exec.Default()
	exec.SetDefault(exec.New(exec.WithWorkers(workers), exec.WithGrain(grain)))
	defer exec.SetDefault(old)
	f()
}

// sameBits compares float64 slices bit for bit.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// acrossPools evaluates f at every pool size with the given grain and
// reports the first value whose bits at some pool differ from pool 1's.
func acrossPools(grain int, f func() []float64) error {
	var ref []float64
	for _, w := range pools {
		var got []float64
		withPool(w, grain, func() { got = f() })
		if w == 1 {
			ref = got
			continue
		}
		if len(got) != len(ref) {
			return fmt.Errorf("pool %d gives %d values, pool 1 %d", w, len(got), len(ref))
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(ref[i]) {
				return fmt.Errorf("pool %d gives [%d] = %v, pool 1 %v", w, i, got[i], ref[i])
			}
		}
	}
	return nil
}

func randomArray(rng *rand.Rand) *dense.Array[float64] {
	ndim := 1 + rng.Intn(3)
	shape := make([]int, ndim)
	for d := range shape {
		shape[d] = 1 + rng.Intn(24)
	}
	if ndim == 1 && rng.Intn(3) == 0 {
		shape[0] = 1 + rng.Intn(60_000) // large enough to cross many chunks
	}
	a := dense.Zeros[float64](shape...)
	raw := a.Raw()
	for i := range raw {
		raw[i] = rng.NormFloat64()
	}
	return a
}

func TestUfuncEquivalenceAcrossPools(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		a := randomArray(rng)
		b := dense.Zeros[float64](a.Shape()...)
		braw := b.Raw()
		for i := range braw {
			braw[i] = rng.NormFloat64()
		}
		grain := 1 << (3 + rng.Intn(10)) // 8 .. 4096
		err := acrossPools(grain, func() []float64 {
			u := dense.Unary(a, math.Sin).Raw()
			return append(u, dense.Binary(a, b, func(x, y float64) float64 { return x*y + 1 }).Raw()...)
		})
		if err != nil {
			t.Errorf("trial %d grain=%d: Unary/Binary: %v", trial, grain, err)
		}
	}
}

func TestReductionEquivalenceAcrossPools(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 25; trial++ {
		a := randomArray(rng)
		grain := 1 << (3 + rng.Intn(10))
		err := acrossPools(grain, func() []float64 {
			return []float64{dense.Sum(a), dense.Norm2(a), dense.Min(a), dense.Max(a), dense.Norm1(a)}
		})
		if err != nil {
			t.Errorf("trial %d grain=%d: Sum, Norm2, Min, Max, Norm1: %v", trial, grain, err)
		}
	}
}

func TestDotEquivalenceAcrossPools(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 15; trial++ {
		n := 1 + rng.Intn(40_000)
		x, y := make([]float64, n), make([]float64, n)
		for i := range x {
			x[i], y[i] = rng.NormFloat64(), rng.NormFloat64()
		}
		grain := 1 << (3 + rng.Intn(10))
		err := acrossPools(grain, func() []float64 {
			return []float64{dense.DotSlices(x, y), dense.Nrm2Slice(x), dense.SumSlice(y), dense.AsumSlice(x)}
		})
		if err != nil {
			t.Errorf("trial %d n=%d grain=%d: DotSlices, Nrm2Slice, SumSlice, AsumSlice: %v", trial, n, grain, err)
		}
	}
}

// TestFusedSweepEquivalenceAcrossPools holds dense's fused Krylov sweeps
// (Axpy2, Axpy2Dot, WaxpyDot) against the call sequences they replace — Axpy
// twice then DotSlices; copy, Axpy, DotSlices — vectors and scalar bit for
// bit, with a grain small enough that the spans split into several chunks and
// at the lengths where chunking changes shape (empty, one element, one either
// side of a chunk boundary); and, like every reduction, the same bits at
// every pool size.
func TestFusedSweepEquivalenceAcrossPools(t *testing.T) {
	const grain = 16
	rng := rand.New(rand.NewSource(11))
	vec := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return v
	}
	clone := func(v []float64) []float64 { return append([]float64(nil), v...) }
	for _, n := range []int{0, 1, grain - 1, grain, grain + 1, 5*grain + 3, 300*grain + 7} {
		p, ap, x0, r0 := vec(n), vec(n), vec(n), vec(n)
		alpha := rng.NormFloat64()
		err := acrossPools(grain, func() []float64 {
			// CG step: x += alpha p; r -= alpha Ap; <r, r>.
			x, r := clone(x0), clone(r0)
			dense.Axpy(alpha, p, x)
			dense.Axpy(-alpha, ap, r)
			want := dense.DotSlices(r, r)
			fx, fr := clone(x0), clone(r0)
			got := dense.Axpy2Dot(alpha, p, fx, -alpha, ap, fr)
			if math.Float64bits(got) != math.Float64bits(want) || !sameBits(fx, x) || !sameBits(fr, r) {
				t.Errorf("n=%d: Axpy2Dot = %x, unfused %x (vectors equal: %v %v)", n, got, want, sameBits(fx, x), sameBits(fr, r))
			}
			gx, gr := clone(x0), clone(r0)
			dense.Axpy2(alpha, p, gx, -alpha, ap, gr)
			if !sameBits(gx, x) || !sameBits(gr, r) {
				t.Errorf("n=%d: Axpy2 vectors differ from two Axpy calls", n)
			}
			// BiCGSTAB half-step: s = r - alpha v; <s, s>, out of place and
			// in place, against a copy, an Axpy and a DotSlices.
			s := clone(r0)
			dense.Axpy(-alpha, ap, s)
			wantS := dense.DotSlices(s, s)
			fs := make([]float64, n)
			gotS := dense.WaxpyDot(-alpha, ap, r0, fs)
			is := clone(r0)
			inS := dense.WaxpyDot(-alpha, ap, is, is)
			if math.Float64bits(gotS) != math.Float64bits(wantS) || math.Float64bits(inS) != math.Float64bits(wantS) || !sameBits(fs, s) || !sameBits(is, s) {
				t.Errorf("n=%d: WaxpyDot = %x (in place %x), unfused %x", n, gotS, inS, wantS)
			}
			return append([]float64{got, gotS}, append(fr, fs...)...)
		})
		if err != nil {
			t.Errorf("n=%d: fused sweeps: %v", n, err)
		}
	}
}

func randomCSR(rng *rand.Rand, rows, cols int) *sparse.CSR {
	coo := sparse.NewCOO(rows, cols)
	nnz := rows * 4
	for k := 0; k < nnz; k++ {
		coo.Add(rng.Intn(rows), rng.Intn(cols), rng.NormFloat64())
	}
	return coo.ToCSR()
}

// TestSpMVEquivalenceAcrossPools: row-parallel MulVec computes each y[i] in
// one span with the per-row loop, and MulVecTrans reduces per-chunk partial
// vectors in the engine's tree — both the same bits at every pool size.
func TestSpMVEquivalenceAcrossPools(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 10; trial++ {
		rows, cols := 1+rng.Intn(3000), 1+rng.Intn(300)
		m := randomCSR(rng, rows, cols)
		x, xr := make([]float64, cols), make([]float64, rows)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		for i := range xr {
			xr[i] = rng.NormFloat64()
		}
		grain := 1 << (2 + rng.Intn(8))
		err := acrossPools(grain, func() []float64 {
			y, yt := make([]float64, rows), make([]float64, cols)
			m.MulVec(x, y)
			m.MulVecTrans(xr, yt)
			return append(y, yt...)
		})
		if err != nil {
			t.Errorf("trial %d grain=%d: MulVec/MulVecTrans: %v", trial, grain, err)
		}
	}
}

// The fused evaluator runs under simulated MPI ranks; check the whole stack:
// rank goroutines x engine workers, element-wise values and the fused sum,
// the same bits at every pool size.
func TestFusedExprEquivalenceAcrossPools(t *testing.T) {
	const n = 30_000
	build := func(ctx *core.Context) *fusion.Expr {
		x := core.FromFunc(ctx, []int{n}, func(g []int) float64 { return float64(g[0])/1000 + 0.25 })
		y := core.FromFunc(ctx, []int{n}, func(g []int) float64 { return math.Sin(float64(g[0])) })
		return fusion.Sqrt(fusion.Var(x).Square().Add(fusion.Var(y).Square()))
	}
	for _, ranks := range []int{1, 3} {
		err := acrossPools(1024, func() []float64 {
			var out []float64
			if err := comm.Run(ranks, func(c *comm.Comm) error {
				e := build(core.NewContext(c))
				vals := fusion.Eval(e).Gather().Flatten() // collective: every rank participates
				sum := fusion.SumEval(e)
				if c.Rank() == 0 { // one writer for the shared capture
					out = append(vals, sum)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			return out
		})
		if err != nil {
			t.Errorf("ranks=%d: fused Eval/SumEval: %v", ranks, err)
		}
	}
}
