// Equivalence property tests for the exec engine (external test package so
// it can drive the engine through the real kernel layers): for random
// shapes, grains (hence chunk counts), and pool sizes, exec-backed
// element-wise ops must match the serial reference bitwise, and exec-backed
// tree reductions must match the serial reference within a ULP-scaled
// tolerance while being bitwise identical across all pool sizes >= 2.
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

// The acceptance-criteria pool sizes are {1, 2, 4, 7}: every test below
// folds a one-worker serial reference against the parallel pools.
var parallelPools = []int{2, 4, 7}

// withPool runs f with the default engine set to (workers, grain).
func withPool(workers, grain int, f func()) {
	old := exec.Default()
	exec.SetDefault(exec.New(exec.WithWorkers(workers), exec.WithGrain(grain)))
	defer exec.SetDefault(old)
	f()
}

// ulpTol returns an error bound for a chunked sum whose terms have the given
// absolute-value sum: reassociating a serial sum into <= maxChunks partials
// perturbs it by at most a few ULP of the magnitude per combine level.
func ulpTol(absSum float64) float64 {
	const eps = 2.220446049250313e-16 // math smallest float64 ULP at 1.0
	return 64 * eps * (absSum + 1)
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
		var serialU, serialB *dense.Array[float64]
		withPool(1, grain, func() {
			serialU = dense.Unary(a, math.Sin)
			serialB = dense.Binary(a, b, func(x, y float64) float64 { return x*y + 1 })
		})
		for _, w := range parallelPools {
			withPool(w, grain, func() {
				if got := dense.Unary(a, math.Sin); !got.Equal(serialU) {
					t.Errorf("trial %d w=%d grain=%d: Unary not bitwise-equal to serial", trial, w, grain)
				}
				if got := dense.Binary(a, b, func(x, y float64) float64 { return x*y + 1 }); !got.Equal(serialB) {
					t.Errorf("trial %d w=%d grain=%d: Binary not bitwise-equal to serial", trial, w, grain)
				}
			})
		}
	}
}

func TestReductionEquivalenceAcrossPools(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 25; trial++ {
		a := randomArray(rng)
		grain := 1 << (3 + rng.Intn(10))
		var serialSum, serialN2, serialMin, serialMax, serialAsum float64
		withPool(1, grain, func() {
			serialSum = dense.Sum(a)
			serialN2 = dense.Norm2(a)
			serialMin = dense.Min(a)
			serialMax = dense.Max(a)
			serialAsum = dense.Norm1(a)
		})
		tol := ulpTol(serialAsum)
		// All parallel pool sizes must agree bitwise with each other; the
		// reference values come from the first parallel pool.
		var refSum, refN2 float64
		for pi, w := range parallelPools {
			withPool(w, grain, func() {
				gotSum, gotN2 := dense.Sum(a), dense.Norm2(a)
				if pi == 0 {
					refSum, refN2 = gotSum, gotN2
				} else if gotSum != refSum || gotN2 != refN2 {
					t.Errorf("trial %d w=%d grain=%d: reductions not bitwise-reproducible across pools", trial, w, grain)
				}
				if math.Abs(gotSum-serialSum) > tol {
					t.Errorf("trial %d w=%d grain=%d: Sum=%g vs serial %g exceeds tol %g", trial, w, grain, gotSum, serialSum, tol)
				}
				if math.Abs(gotN2-serialN2) > tol {
					t.Errorf("trial %d w=%d: Norm2=%g vs serial %g", trial, w, gotN2, serialN2)
				}
				// Min/Max are order-independent: exact for every pool.
				if dense.Min(a) != serialMin || dense.Max(a) != serialMax {
					t.Errorf("trial %d w=%d: Min/Max differ from serial", trial, w)
				}
			})
		}
	}
}

func TestDotEquivalenceAcrossPools(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 15; trial++ {
		n := 1 + rng.Intn(40_000)
		x, y := make([]float64, n), make([]float64, n)
		var absSum float64
		for i := range x {
			x[i], y[i] = rng.NormFloat64(), rng.NormFloat64()
			absSum += math.Abs(x[i] * y[i])
		}
		grain := 1 << (3 + rng.Intn(10))
		var serial float64
		withPool(1, grain, func() { serial = dense.DotSlices(x, y) })
		for _, w := range parallelPools {
			withPool(w, grain, func() {
				if got := dense.DotSlices(x, y); math.Abs(got-serial) > ulpTol(absSum) {
					t.Errorf("trial %d w=%d: Dot=%g vs serial %g", trial, w, got, serial)
				}
			})
		}
	}
}

// TestFusedSweepEquivalenceAcrossPools holds dense's fused Krylov sweeps
// (Axpy2, Axpy2Dot, WaxpyDot) against the call sequences they replace — Axpy
// twice then DotSlices; copy, Axpy, DotSlices — at every pool size, with a
// grain small enough that the spans split into several chunks and at the
// lengths where chunking changes shape (empty, one element, one either side
// of a chunk boundary). At one pool size vectors and scalar must match bit
// for bit, since a fused sweep chunks and folds exactly as DotSlices does;
// and like every tree reduction the scalars agree across all pools >= 2.
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
	same := func(a, b []float64) bool {
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return true
	}
	for _, n := range []int{0, 1, grain - 1, grain, grain + 1, 5*grain + 3, 300*grain + 7} {
		p, ap, x0, r0 := vec(n), vec(n), vec(n), vec(n)
		alpha := rng.NormFloat64()
		var step2, waxpy2 float64 // the scalars at pool size 2
		for _, w := range append([]int{1}, parallelPools...) {
			withPool(w, grain, func() {
				// CG step: x += alpha p; r -= alpha Ap; <r, r>.
				x, r := append([]float64(nil), x0...), append([]float64(nil), r0...)
				dense.Axpy(alpha, p, x)
				dense.Axpy(-alpha, ap, r)
				want := dense.DotSlices(r, r)
				fx, fr := append([]float64(nil), x0...), append([]float64(nil), r0...)
				got := dense.Axpy2Dot(alpha, p, fx, -alpha, ap, fr)
				if math.Float64bits(got) != math.Float64bits(want) || !same(fx, x) || !same(fr, r) {
					t.Errorf("n=%d w=%d: Axpy2Dot = %x, unfused %x (vectors equal: %v %v)", n, w, got, want, same(fx, x), same(fr, r))
				}
				gx, gr := append([]float64(nil), x0...), append([]float64(nil), r0...)
				dense.Axpy2(alpha, p, gx, -alpha, ap, gr)
				if !same(gx, x) || !same(gr, r) {
					t.Errorf("n=%d w=%d: Axpy2 vectors differ from two Axpy calls", n, w)
				}
				// BiCGSTAB half-step: s = r - alpha v; <s, s>, out of place and
				// in place.
				s := append([]float64(nil), r0...)
				dense.Axpy(-alpha, ap, s)
				wantS := dense.DotSlices(s, s)
				fs := make([]float64, n)
				gotS := dense.WaxpyDot(-alpha, ap, r0, fs)
				is := append([]float64(nil), r0...)
				inS := dense.WaxpyDot(-alpha, ap, is, is)
				if math.Float64bits(gotS) != math.Float64bits(wantS) || math.Float64bits(inS) != math.Float64bits(wantS) || !same(fs, s) || !same(is, s) {
					t.Errorf("n=%d w=%d: WaxpyDot = %x (in place %x), unfused %x", n, w, gotS, inS, wantS)
				}
				switch {
				case w == 2:
					step2, waxpy2 = got, gotS
				case w > 2 && (got != step2 || gotS != waxpy2):
					t.Errorf("n=%d w=%d: fused scalars differ from pool 2", n, w)
				}
			})
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

func TestSpMVEquivalenceAcrossPools(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 10; trial++ {
		rows, cols := 1+rng.Intn(3000), 1+rng.Intn(300)
		m := randomCSR(rng, rows, cols)
		x := make([]float64, cols)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		grain := 1 << (2 + rng.Intn(8))
		serialY := make([]float64, rows)
		serialYT := make([]float64, cols)
		withPool(1, grain, func() {
			m.MulVec(x[:cols], serialY)
			xr := make([]float64, rows)
			for i := range xr {
				xr[i] = rng.NormFloat64()
			}
			m.MulVecTrans(xr, serialYT)
			for _, w := range parallelPools {
				parYT := make([]float64, cols)
				withPool(w, grain, func() { m.MulVecTrans(xr, parYT) })
				var scale float64
				for _, v := range serialYT {
					scale += math.Abs(v)
				}
				for j := range parYT {
					if math.Abs(parYT[j]-serialYT[j]) > ulpTol(scale) {
						t.Errorf("trial %d w=%d: MulVecTrans[%d]=%g vs serial %g", trial, w, j, parYT[j], serialYT[j])
					}
				}
			}
		})
		for _, w := range parallelPools {
			withPool(w, grain, func() {
				y := make([]float64, rows)
				m.MulVec(x, y)
				for i := range y {
					// Row-parallel SpMV: each y[i] computed by exactly one
					// span with the serial per-row loop — bitwise equal.
					if y[i] != serialY[i] {
						t.Errorf("trial %d w=%d: MulVec row %d = %g, serial %g", trial, w, i, y[i], serialY[i])
					}
				}
			})
		}
	}
}

// The fused evaluator runs under simulated MPI ranks; check the whole stack:
// rank goroutines x engine workers, element-wise bitwise equality, and
// reduction tolerance.
func TestFusedExprEquivalenceAcrossPools(t *testing.T) {
	const n = 30_000
	build := func(ctx *core.Context) *fusion.Expr {
		x := core.FromFunc(ctx, []int{n}, func(g []int) float64 { return float64(g[0])/1000 + 0.25 })
		y := core.FromFunc(ctx, []int{n}, func(g []int) float64 { return math.Sin(float64(g[0])) })
		return fusion.Sqrt(fusion.Var(x).Square().Add(fusion.Var(y).Square()))
	}
	for _, ranks := range []int{1, 3} {
		var serialVals []float64
		var serialSum float64
		withPool(1, 1024, func() {
			if err := comm.Run(ranks, func(c *comm.Comm) error {
				e := build(core.NewContext(c))
				vals := fusion.Eval(e).Gather().Flatten() // collective: every rank participates
				sum := fusion.SumEval(e)
				if c.Rank() == 0 { // one writer for the shared capture
					serialVals, serialSum = vals, sum
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		})
		for _, w := range parallelPools {
			withPool(w, 1024, func() {
				if err := comm.Run(ranks, func(c *comm.Comm) error {
					e := build(core.NewContext(c))
					vals := fusion.Eval(e).Gather().Flatten()
					for i := range vals {
						if vals[i] != serialVals[i] {
							return fmt.Errorf("ranks=%d w=%d: fused Eval[%d]=%g, serial %g", ranks, w, i, vals[i], serialVals[i])
						}
					}
					if s := fusion.SumEval(e); math.Abs(s-serialSum) > ulpTol(math.Abs(serialSum)) {
						return fmt.Errorf("ranks=%d w=%d: SumEval=%g, serial %g", ranks, w, s, serialSum)
					}
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
