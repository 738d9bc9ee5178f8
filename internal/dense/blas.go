package dense

import (
	"fmt"
	"math"

	"odinhpc/internal/exec"
)

// This file provides the small dense linear-algebra kernels (BLAS level 1-3
// subset plus LU/QR factorizations) used by the solver and preconditioner
// packages. Everything operates on float64 slices or 2-d Arrays; the
// distributed layers handle partitioning. The BLAS-1 sweeps and the Gemv
// row loop run on the exec engine; the factorizations stay serial (their
// loop-carried dependencies don't chunk).

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

// axpy2Args is the operand set of the two-axpy sweeps.
type axpy2Args struct {
	alpha, beta    float64
	x1, y1, x2, y2 []float64
}

func checkAxpy2(x1, y1, x2, y2 []float64) {
	if len(x1) != len(y1) || len(x2) != len(y1) || len(y2) != len(y1) {
		panic(fmt.Sprintf("dense: Axpy2 length mismatch %d, %d, %d, %d", len(x1), len(y1), len(x2), len(y2)))
	}
}

// Axpy2 computes y1 += alpha*x1 and y2 += beta*x2 in one sweep over four
// equal-length slices.
func Axpy2(alpha float64, x1, y1 []float64, beta float64, x2, y2 []float64) {
	checkAxpy2(x1, y1, x2, y2)
	exec.ForRange(exec.Default(), len(y1), axpy2Args{alpha, beta, x1, y1, x2, y2}, axpy2Range)
}

func axpy2Range(a axpy2Args, lo, hi int) {
	axpby(a.alpha, a.x1[lo:hi], 1, a.y1[lo:hi])
	axpby(a.beta, a.x2[lo:hi], 1, a.y2[lo:hi])
}

// Axpy2Dot is Axpy2 that also returns <y2, y2> of the updated y2 — CG's
// x += alpha p; r -= alpha Ap; <r, r>.
func Axpy2Dot(alpha float64, x1, y1 []float64, beta float64, x2, y2 []float64) float64 {
	checkAxpy2(x1, y1, x2, y2)
	return exec.ReduceRange(exec.Default(), len(y1), axpy2Args{alpha, beta, x1, y1, x2, y2}, axpy2DotRange, add)
}

// axpy2DotRange is the chunk's y1 update, then y2 += beta*x2 as
// y2 = y2 + beta*x2 with its squares in lane order: two passes over a span
// that stays in cache, one engine call.
func axpy2DotRange(a axpy2Args, lo, hi int) float64 {
	axpby(a.alpha, a.x1[lo:hi], 1, a.y1[lo:hi])
	var l lanes
	l.waxpyDot(a.beta, a.x2[lo:hi], a.y2[lo:hi], a.y2[lo:hi])
	return l.fold()
}

// WaxpyDot sets w = y + alpha*x and returns <w, w> — BiCGSTAB's
// s = r - alpha v; ||s||^2, which unfused is a copy, an Axpy and a DotSlices.
// w may be y.
func WaxpyDot(alpha float64, x, y, w []float64) float64 {
	if len(x) != len(w) || len(y) != len(w) {
		panic(fmt.Sprintf("dense: WaxpyDot length mismatch %d, %d, %d", len(x), len(y), len(w)))
	}
	return exec.ReduceRange(exec.Default(), len(w), axpy2Args{alpha: alpha, x1: x, y1: y, y2: w}, waxpyDotRange, add)
}

func waxpyDotRange(a axpy2Args, lo, hi int) float64 {
	var l lanes
	l.waxpyDot(a.alpha, a.x1[lo:hi], a.y1[lo:hi], a.y2[lo:hi])
	return l.fold()
}

// Nrm2Slice returns the Euclidean norm of a slice.
func Nrm2Slice(x []float64) float64 {
	return math.Sqrt(DotSlices(x, x))
}

// SumSlice returns the sum of the slice's elements.
func SumSlice(x []float64) float64 {
	return exec.ReduceRange(exec.Default(), len(x), vecArgs{x: x}, sumRange, add)
}

func sumRange(a vecArgs, lo, hi int) float64 {
	var acc float64
	for _, v := range a.x[lo:hi] {
		acc += v
	}
	return acc
}

// AsumSlice returns the sum of absolute values (BLAS dasum).
func AsumSlice(x []float64) float64 {
	return exec.ReduceRange(exec.Default(), len(x), vecArgs{x: x}, asumRange, add)
}

func asumRange(a vecArgs, lo, hi int) float64 {
	var acc float64
	for _, v := range a.x[lo:hi] {
		acc += math.Abs(v)
	}
	return acc
}

// AmaxSlice returns the maximum absolute value (0 for an empty slice).
func AmaxSlice(x []float64) float64 {
	return exec.ReduceRange(exec.Default(), len(x), vecArgs{x: x}, amaxRange, math.Max)
}

func amaxRange(a vecArgs, lo, hi int) float64 {
	var acc float64
	for _, v := range a.x[lo:hi] {
		if v = math.Abs(v); v > acc {
			acc = v
		}
	}
	return acc
}

// Gemv computes y = alpha*A*x + beta*y for a 2-d array A (m x n), x of
// length n and y of length m.
func Gemv(alpha float64, a *Array[float64], x []float64, beta float64, y []float64) {
	if a.NDim() != 2 {
		panic("dense: Gemv requires a 2-d array")
	}
	m, n := a.Dim(0), a.Dim(1)
	if len(x) != n || len(y) != m {
		panic(fmt.Sprintf("dense: Gemv dims A=%dx%d x=%d y=%d", m, n, len(x), len(y)))
	}
	// Row-parallel: each output element is owned by exactly one span.
	exec.Default().ParallelFor(m, func(ilo, ihi int) {
		for i := ilo; i < ihi; i++ {
			var acc float64
			ro := a.offset + i*a.strides[0]
			for j := 0; j < n; j++ {
				acc += a.data[ro+j*a.strides[1]] * x[j]
			}
			y[i] = alpha*acc + beta*y[i]
		}
	})
}

// Gemm computes C = alpha*A*B + beta*C for 2-d arrays with compatible shapes.
func Gemm(alpha float64, a, b *Array[float64], beta float64, c *Array[float64]) {
	if a.NDim() != 2 || b.NDim() != 2 || c.NDim() != 2 {
		panic("dense: Gemm requires 2-d arrays")
	}
	m, k := a.Dim(0), a.Dim(1)
	k2, n := b.Dim(0), b.Dim(1)
	if k != k2 || c.Dim(0) != m || c.Dim(1) != n {
		panic(fmt.Sprintf("dense: Gemm dims A=%dx%d B=%dx%d C=%dx%d", m, k, k2, n, c.Dim(0), c.Dim(1)))
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var acc float64
			for p := 0; p < k; p++ {
				acc += a.At(i, p) * b.At(p, j)
			}
			c.Set(alpha*acc+beta*c.At(i, j), i, j)
		}
	}
}

// LU holds a dense LU factorization with partial pivoting: P*A = L*U with
// unit lower-triangular L and upper-triangular U packed in one matrix.
type LU struct {
	lu   *Array[float64]
	piv  []int
	n    int
	sign float64
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
	sign := 1.0
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
			sign = -sign
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
	return &LU{lu: lu, piv: piv, n: n, sign: sign}, nil
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

// Det returns the determinant from the factorization.
func (f *LU) Det() float64 {
	d := f.sign
	for i := 0; i < f.n; i++ {
		d *= f.lu.At(i, i)
	}
	return d
}

// SolveDense is a convenience that factors and solves in one call.
func SolveDense(a *Array[float64], b []float64) ([]float64, error) {
	f, err := FactorLU(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b), nil
}

// QR holds a Householder QR factorization of an m x n matrix with m >= n.
type QR struct {
	qr    *Array[float64] // Householder vectors below diagonal, R on/above
	rdiag []float64
	m, n  int
}

// FactorQR computes a Householder QR factorization.
func FactorQR(a *Array[float64]) (*QR, error) {
	if a.NDim() != 2 {
		panic("dense: FactorQR requires a 2-d array")
	}
	m, n := a.Dim(0), a.Dim(1)
	if m < n {
		return nil, fmt.Errorf("dense: FactorQR needs m >= n, got %dx%d", m, n)
	}
	qr := a.Clone()
	rdiag := make([]float64, n)
	for k := 0; k < n; k++ {
		var nrm float64
		for i := k; i < m; i++ {
			nrm = math.Hypot(nrm, qr.At(i, k))
		}
		if nrm == 0 {
			return nil, fmt.Errorf("dense: rank-deficient matrix at column %d", k)
		}
		if qr.At(k, k) < 0 {
			nrm = -nrm
		}
		for i := k; i < m; i++ {
			qr.Set(qr.At(i, k)/nrm, i, k)
		}
		qr.Set(qr.At(k, k)+1, k, k)
		for j := k + 1; j < n; j++ {
			var s float64
			for i := k; i < m; i++ {
				s += qr.At(i, k) * qr.At(i, j)
			}
			s = -s / qr.At(k, k)
			for i := k; i < m; i++ {
				qr.Set(qr.At(i, j)+s*qr.At(i, k), i, j)
			}
		}
		rdiag[k] = -nrm
	}
	return &QR{qr: qr, rdiag: rdiag, m: m, n: n}, nil
}

// SolveLS solves the least-squares problem min ||A x - b||2 using the
// factorization; b has length m, and the returned x has length n.
func (f *QR) SolveLS(b []float64) []float64 {
	if len(b) != f.m {
		panic(fmt.Sprintf("dense: QR.SolveLS length %d, want %d", len(b), f.m))
	}
	y := make([]float64, f.m)
	copy(y, b)
	// Apply Householder reflections: y = Q^T b.
	for k := 0; k < f.n; k++ {
		var s float64
		for i := k; i < f.m; i++ {
			s += f.qr.At(i, k) * y[i]
		}
		s = -s / f.qr.At(k, k)
		for i := k; i < f.m; i++ {
			y[i] += s * f.qr.At(i, k)
		}
	}
	// Back-substitute R x = y[:n].
	x := make([]float64, f.n)
	for i := f.n - 1; i >= 0; i-- {
		x[i] = y[i]
		for j := i + 1; j < f.n; j++ {
			x[i] -= f.qr.At(i, j) * x[j]
		}
		x[i] /= f.rdiag[i]
	}
	return x
}

// Eye returns the n x n identity matrix.
func Eye(n int) *Array[float64] {
	a := Zeros[float64](n, n)
	for i := 0; i < n; i++ {
		a.Set(1, i, i)
	}
	return a
}
