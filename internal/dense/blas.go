package dense

import (
	"fmt"
	"math"

	"odinhpc/internal/exec"
)

// This file provides the small dense linear-algebra kernels (BLAS level 1
// plus an LU factorization) used by the solver and preconditioner packages.
// Everything operates on float64 slices or 2-d Arrays; the distributed
// layers handle partitioning. The BLAS-1 sweeps run on the exec engine; the
// factorization stays serial (its loop-carried dependencies don't chunk).

// vecArgs is the operand set of the level-1 kernels below. Each is a
// top-level range function handed to the engine with its operands by value
// (exec.ForRange), so the sweeps under every solver iteration allocate
// nothing when the engine runs them inline. Each range function re-slices
// its operands to the span first, so the loop indexes slices of one known
// length and pays no bounds check per element.
type vecArgs struct {
	alpha, beta float64
	x, y        []float64
}

func add(a, b float64) float64 { return a + b }

// Axpy computes y += alpha*x for equal-length slices: Axpby with beta = 1,
// bitwise y + alpha*x.
func Axpy(alpha float64, x, y []float64) {
	Axpby(alpha, x, 1, y)
}

// Axpby computes y = alpha*x + beta*y for equal-length slices.
func Axpby(alpha float64, x []float64, beta float64, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("dense: Axpby length mismatch %d vs %d", len(x), len(y)))
	}
	exec.ForRange(exec.Default(), len(x), vecArgs{alpha, beta, x, y}, axpbyRange)
}

func axpbyRange(a vecArgs, lo, hi int) {
	axpby(a.alpha, a.x[lo:hi], a.beta, a.y[lo:hi])
}

// Scal scales x by alpha in place.
func Scal(alpha float64, x []float64) {
	exec.ForRange(exec.Default(), len(x), vecArgs{alpha: alpha, x: x}, scalRange)
}

func scalRange(a vecArgs, lo, hi int) {
	alpha, x := a.alpha, a.x[lo:hi]
	for i := range x {
		x[i] *= alpha
	}
}

// DotSlices returns the inner product of two equal-length slices.
func DotSlices(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("dense: Dot length mismatch %d vs %d", len(x), len(y)))
	}
	return exec.ReduceRange(exec.Default(), len(x), vecArgs{x: x, y: y}, dotRange, add)
}

func dotRange(a vecArgs, lo, hi int) float64 {
	var l lanes
	l.dot(a.x[lo:hi], a.y[lo:hi])
	return l.fold()
}

// Fused sweeps: the vector updates of one Krylov iteration and the inner
// product that follows them, in one engine call over operands that a call
// each would stream through the cache two or three times. Every element sees
// the operations of the unfused sequence in the same order, and the
// reductions go through ReduceRange over the same length with the same
// combine as DotSlices — same chunks, same 16-lane order per chunk, same
// tree — so each result is bitwise what Axpy/copy followed by DotSlices
// returns.

// cgStepArgs is the operand set of CGStep.
type cgStepArgs struct {
	alpha, beta      float64
	z, w, p, s, x, r []float64
}

// CGStep is the vector half of a single-reduction CG iteration: p = z + beta
// p and s = w + beta s, then x += alpha p and r -= alpha s, returning <r, r>
// of the updated r. z may be r: a chunk reads it before writing it.
func CGStep(alpha, beta float64, z, w, p, s, x, r []float64) float64 {
	n := len(r)
	if len(z) != n || len(w) != n || len(p) != n || len(s) != n || len(x) != n {
		panic(fmt.Sprintf("dense: CGStep length mismatch z=%d w=%d p=%d s=%d x=%d r=%d", len(z), len(w), len(p), len(s), len(x), n))
	}
	return exec.ReduceRange(exec.Default(), n, cgStepArgs{alpha, beta, z, w, p, s, x, r}, cgStepRange, add)
}

// cgStepRange runs the four updates over one chunk in one pass (lanes.cgStep),
// r's squares in lane order.
func cgStepRange(a cgStepArgs, lo, hi int) float64 {
	var l lanes
	l.cgStep(a.alpha, a.beta, a.z[lo:hi], a.w[lo:hi], a.p[lo:hi], a.s[lo:hi], a.x[lo:hi], a.r[lo:hi])
	return l.fold()
}

// WaxpyDot sets w = y + alpha*x and returns <w, w> — BiCGSTAB's
// s = r - alpha v; ||s||^2, which unfused is a copy, an Axpy and a DotSlices.
// w may be y.
func WaxpyDot(alpha float64, x, y, w []float64) float64 {
	if len(x) != len(w) || len(y) != len(w) {
		panic(fmt.Sprintf("dense: WaxpyDot length mismatch %d, %d, %d", len(x), len(y), len(w)))
	}
	return exec.ReduceRange(exec.Default(), len(w), waxpyArgs{alpha, x, y, w}, waxpyDotRange, add)
}

type waxpyArgs struct {
	alpha   float64
	x, y, w []float64
}

func waxpyDotRange(a waxpyArgs, lo, hi int) float64 {
	var l lanes
	l.waxpyDot(a.alpha, a.x[lo:hi], a.y[lo:hi], a.w[lo:hi])
	return l.fold()
}

// LU holds a dense LU factorization with partial pivoting: P*A = L*U with
// unit lower-triangular L and upper-triangular U packed in one matrix.
type LU struct {
	lu  *Array[float64]
	piv []int
	n   int
}

// FactorLU computes the LU factorization of a square matrix. It returns an
// error if the matrix is singular to working precision.
func FactorLU(a *Array[float64]) (*LU, error) {
	if a.NDim() != 2 || a.Dim(0) != a.Dim(1) {
		panic("dense: FactorLU requires a square 2-d array")
	}
	n := a.Dim(0)
	lu := a.Clone()
	piv := make([]int, n)
	for i := range piv {
		piv[i] = i
	}
	for k := 0; k < n; k++ {
		// Partial pivot.
		p, pmax := k, math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if v := math.Abs(lu.At(i, k)); v > pmax {
				p, pmax = i, v
			}
		}
		if pmax == 0 {
			return nil, fmt.Errorf("dense: matrix is singular at column %d", k)
		}
		if p != k {
			for j := 0; j < n; j++ {
				t := lu.At(k, j)
				lu.Set(lu.At(p, j), k, j)
				lu.Set(t, p, j)
			}
			piv[k], piv[p] = piv[p], piv[k]
		}
		ukk := lu.At(k, k)
		for i := k + 1; i < n; i++ {
			l := lu.At(i, k) / ukk
			lu.Set(l, i, k)
			for j := k + 1; j < n; j++ {
				lu.Set(lu.At(i, j)-l*lu.At(k, j), i, j)
			}
		}
	}
	return &LU{lu: lu, piv: piv, n: n}, nil
}

// Solve solves A x = b, overwriting nothing; it returns a new solution slice.
func (f *LU) Solve(b []float64) []float64 {
	if len(b) != f.n {
		panic(fmt.Sprintf("dense: LU.Solve length %d, want %d", len(b), f.n))
	}
	x := make([]float64, f.n)
	for i, p := range f.piv {
		x[i] = b[p]
	}
	// Forward substitution with unit L.
	for i := 1; i < f.n; i++ {
		for j := 0; j < i; j++ {
			x[i] -= f.lu.At(i, j) * x[j]
		}
	}
	// Back substitution with U.
	for i := f.n - 1; i >= 0; i-- {
		for j := i + 1; j < f.n; j++ {
			x[i] -= f.lu.At(i, j) * x[j]
		}
		x[i] /= f.lu.At(i, i)
	}
	return x
}
