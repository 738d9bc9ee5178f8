package dense

import (
	"fmt"

	"odinhpc/internal/exec"
)

// This file provides the small dense linear-algebra kernels (BLAS level 1)
// used by the solver and preconditioner packages. Everything operates on
// float64 slices; the distributed layers handle partitioning. The sweeps
// run on the exec engine.

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
	return foldLanes(l)
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
	return foldLanes(l)
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
	return foldLanes(l)
}
