// Package tpetra implements the distributed linear algebra layer of the
// Trilinos analog: vectors, multivectors, and compressed-row sparse matrices
// distributed over a communicator according to a distmap.Map, plus the
// import/gather communication plans that move data between distributions.
//
// The package mirrors the object model the paper describes in §II: a Map
// fixes the distribution, Vectors hold one local segment per rank, and
// CrsMatrix rows live on the rank that owns them, with off-rank column
// entries fetched through a precomputed communication plan on each Apply.
// Scalars are float64, the Epetra-era restriction the paper contrasts with
// templated Tpetra; the ODIN layer (internal/core) carries the generic
// element types.
package tpetra

import (
	"fmt"
	"math"
	"math/rand"

	"odinhpc/internal/comm"
	"odinhpc/internal/dense"
	"odinhpc/internal/distmap"
	"odinhpc/internal/exec"
)

// Vector is a distributed vector: each rank holds the local segment of the
// global vector described by its Map. All collective methods (Dot, Norm2,
// ...) must be called by every rank of the communicator.
type Vector struct {
	c    *comm.Comm
	m    *distmap.Map
	Data []float64
}

// NewVector returns a zero-initialized distributed vector over map m.
func NewVector(c *comm.Comm, m *distmap.Map) *Vector {
	if m.NumRanks() != c.Size() {
		panic(fmt.Sprintf("tpetra: map has %d ranks, communicator has %d", m.NumRanks(), c.Size()))
	}
	return &Vector{c: c, m: m, Data: make([]float64, m.LocalCount(c.Rank()))}
}

// WrapVector builds a vector around an existing local slice WITHOUT
// copying: the vector and the caller share storage. This is the zero-copy
// handoff the ODIN bridge uses ("ODIN arrays are designed to be optionally
// compatible with Trilinos distributed Vectors", paper §III.E).
func WrapVector(c *comm.Comm, m *distmap.Map, local []float64) *Vector {
	if m.NumRanks() != c.Size() {
		panic(fmt.Sprintf("tpetra: map has %d ranks, communicator has %d", m.NumRanks(), c.Size()))
	}
	if len(local) != m.LocalCount(c.Rank()) {
		panic(fmt.Sprintf("tpetra: WrapVector local length %d, map expects %d", len(local), m.LocalCount(c.Rank())))
	}
	return &Vector{c: c, m: m, Data: local}
}

// Comm returns the communicator the vector lives on.
func (v *Vector) Comm() *comm.Comm { return v.c }

// Map returns the vector's distribution map.
func (v *Vector) Map() *distmap.Map { return v.m }

// LocalLen returns the length of this rank's segment.
func (v *Vector) LocalLen() int { return len(v.Data) }

// GlobalLen returns the global vector length.
func (v *Vector) GlobalLen() int { return v.m.NumGlobal() }

// checkCompat panics unless the two vectors share a distribution.
func (v *Vector) checkCompat(w *Vector, op string) {
	if !v.m.SameAs(w.m) {
		panic(fmt.Sprintf("tpetra: %s requires conformable vectors (%v vs %v)", op, v.m, w.m))
	}
}

// sweepArgs is the operand set of the element-wise range functions below:
// d is the vector written (or reduced), x and y the ones read. They go to
// the engine by value with a top-level range function (exec.ForRange), so a
// sweep the engine runs inline allocates nothing.
type sweepArgs struct {
	alpha   float64
	d, x, y []float64
}

// PutScalar sets every element to alpha.
func (v *Vector) PutScalar(alpha float64) {
	exec.ForRange(exec.Default(), len(v.Data), sweepArgs{alpha: alpha, d: v.Data}, fillRange)
}

func fillRange(a sweepArgs, lo, hi int) {
	d := a.d[lo:hi]
	for i := range d {
		d[i] = a.alpha
	}
}

// Randomize fills the vector with deterministic pseudo-random values in
// [-1, 1); each rank derives its stream from seed and its rank so the global
// content is independent of P only in distribution, not value (matching
// odin.random semantics: "a specified random seed, different for each node").
func (v *Vector) Randomize(seed int64) {
	rng := rand.New(rand.NewSource(seed + int64(v.c.Rank())*1_000_003))
	for i := range v.Data {
		v.Data[i] = 2*rng.Float64() - 1
	}
}

// FillFromGlobal sets each element from a function of its global index,
// giving P-independent content.
func (v *Vector) FillFromGlobal(f func(g int) float64) {
	r := v.c.Rank()
	for l := range v.Data {
		v.Data[l] = f(v.m.LocalToGlobal(r, l))
	}
}

// Clone returns an independent copy with the same map.
func (v *Vector) Clone() *Vector {
	out := NewVector(v.c, v.m)
	copy(out.Data, v.Data)
	return out
}

// CopyFrom overwrites v's local data with w's (maps must match).
func (v *Vector) CopyFrom(w *Vector) {
	v.checkCompat(w, "CopyFrom")
	copy(v.Data, w.Data)
}

// Scale multiplies the vector by alpha in place.
func (v *Vector) Scale(alpha float64) {
	dense.Scal(alpha, v.Data)
}

// Axpy computes v += alpha*x.
func (v *Vector) Axpy(alpha float64, x *Vector) {
	v.checkCompat(x, "Axpy")
	dense.Axpy(alpha, x.Data, v.Data)
}

// Update computes v = alpha*x + beta*v (the Epetra Update signature).
func (v *Vector) Update(alpha float64, x *Vector, beta float64) {
	v.checkCompat(x, "Update")
	dense.Axpby(alpha, x.Data, beta, v.Data)
}

// ElementWiseMultiply computes v[i] = x[i]*y[i].
func (v *Vector) ElementWiseMultiply(x, y *Vector) {
	v.checkCompat(x, "ElementWiseMultiply")
	v.checkCompat(y, "ElementWiseMultiply")
	exec.ForRange(exec.Default(), len(v.Data), sweepArgs{d: v.Data, x: x.Data, y: y.Data}, multiplyRange)
}

func multiplyRange(a sweepArgs, lo, hi int) {
	d, xd, yd := a.d, a.x, a.y
	for i := lo; i < hi; i++ {
		d[i] = xd[i] * yd[i]
	}
}

// Reciprocal computes v[i] = 1/x[i]; zero entries produce +Inf as in IEEE.
func (v *Vector) Reciprocal(x *Vector) {
	v.checkCompat(x, "Reciprocal")
	exec.ForRange(exec.Default(), len(v.Data), sweepArgs{d: v.Data, x: x.Data}, reciprocalRange)
}

func reciprocalRange(a sweepArgs, lo, hi int) {
	d, xd := a.d, a.x
	for i := lo; i < hi; i++ {
		d[i] = 1 / xd[i]
	}
}

// Abs computes v[i] = |x[i]|.
func (v *Vector) Abs(x *Vector) {
	v.checkCompat(x, "Abs")
	exec.ForRange(exec.Default(), len(v.Data), sweepArgs{d: v.Data, x: x.Data}, absRange)
}

func absRange(a sweepArgs, lo, hi int) {
	d, xd := a.d, a.x
	for i := lo; i < hi; i++ {
		d[i] = math.Abs(xd[i])
	}
}

// Dot returns the global inner product <v, w>. Collective. The local part
// runs on the exec engine; the cross-rank part is the usual allreduce.
func (v *Vector) Dot(w *Vector) float64 {
	v.checkCompat(w, "Dot")
	local := dense.DotSlices(v.Data, w.Data)
	return comm.AllreduceScalar(v.c, local, comm.OpSum)
}

// Dot2 returns the global inner products <a, b> and <c, d> from a single
// two-element allreduce — one latency-bound round where two Dot calls pay
// two, which is what a Krylov iteration is made of. The per-rank partials
// are Dot's and the reduction is element-wise, so both results are bitwise
// what the separate calls return. Collective.
func Dot2(a, b, c, d *Vector) (ab, cd float64) {
	a.checkCompat(b, "Dot2")
	c.checkCompat(d, "Dot2")
	a.checkCompat(c, "Dot2")
	buf := [2]float64{dense.DotSlices(a.Data, b.Data), dense.DotSlices(c.Data, d.Data)}
	comm.AllreduceInto(a.c, buf[:], comm.OpSum)
	return buf[0], buf[1]
}

// Axpy2 computes y1 += alpha*x1 and y2 += beta*x2 in one sweep
// (dense.Axpy2): the two updates of a preconditioned CG step. Element for
// element it is y1.Axpy(alpha, x1); y2.Axpy(beta, x2).
func Axpy2(alpha float64, x1, y1 *Vector, beta float64, x2, y2 *Vector) {
	y1.checkCompat(x1, "Axpy2")
	y1.checkCompat(x2, "Axpy2")
	y1.checkCompat(y2, "Axpy2")
	dense.Axpy2(alpha, x1.Data, y1.Data, beta, x2.Data, y2.Data)
}

// Axpy2Dot is Axpy2 returning the global <y2, y2> of the updated y2, its
// local part accumulated in the same sweep: CG's x += alpha p; r -= alpha Ap;
// <r, r> reads and writes each vector once instead of twice. The result is
// bitwise y2.Dot(y2) after the two Axpy calls. Collective.
func Axpy2Dot(alpha float64, x1, y1 *Vector, beta float64, x2, y2 *Vector) float64 {
	y1.checkCompat(x1, "Axpy2Dot")
	y1.checkCompat(x2, "Axpy2Dot")
	y1.checkCompat(y2, "Axpy2Dot")
	local := dense.Axpy2Dot(alpha, x1.Data, y1.Data, beta, x2.Data, y2.Data)
	return comm.AllreduceScalar(y1.c, local, comm.OpSum)
}

// WaxpyNorm2 sets v = y + alpha*x and returns the global ||v||, one sweep
// where v.CopyFrom(y); v.Axpy(alpha, x); v.Norm2() makes three; bitwise the
// same vector and norm. v may be y. Collective.
func (v *Vector) WaxpyNorm2(alpha float64, x, y *Vector) float64 {
	v.checkCompat(x, "WaxpyNorm2")
	v.checkCompat(y, "WaxpyNorm2")
	local := dense.WaxpyDot(alpha, x.Data, y.Data, v.Data)
	return math.Sqrt(comm.AllreduceScalar(v.c, local, comm.OpSum))
}

// Norm2 returns the global Euclidean norm. Collective.
func (v *Vector) Norm2() float64 {
	local := dense.DotSlices(v.Data, v.Data)
	return math.Sqrt(comm.AllreduceScalar(v.c, local, comm.OpSum))
}

// Norm1 returns the global 1-norm. Collective.
func (v *Vector) Norm1() float64 {
	return comm.AllreduceScalar(v.c, dense.AsumSlice(v.Data), comm.OpSum)
}

// NormInf returns the global max-norm. Collective.
func (v *Vector) NormInf() float64 {
	return comm.AllreduceScalar(v.c, dense.AmaxSlice(v.Data), comm.OpMax)
}

// MeanValue returns the global arithmetic mean. Collective.
func (v *Vector) MeanValue() float64 {
	return comm.AllreduceScalar(v.c, dense.SumSlice(v.Data), comm.OpSum) / float64(v.m.NumGlobal())
}

// MinValue returns the global minimum element. Collective.
func (v *Vector) MinValue() float64 {
	local := exec.ReduceRange(exec.Default(), len(v.Data), sweepArgs{d: v.Data}, minRange, math.Min)
	return comm.AllreduceScalar(v.c, local, comm.OpMin)
}

func minRange(a sweepArgs, lo, hi int) float64 {
	best := math.Inf(1)
	for _, x := range a.d[lo:hi] {
		if x < best {
			best = x
		}
	}
	return best
}

// MaxValue returns the global maximum element. Collective.
func (v *Vector) MaxValue() float64 {
	local := exec.ReduceRange(exec.Default(), len(v.Data), sweepArgs{d: v.Data}, maxRange, math.Max)
	return comm.AllreduceScalar(v.c, local, comm.OpMax)
}

func maxRange(a sweepArgs, lo, hi int) float64 {
	best := math.Inf(-1)
	for _, x := range a.d[lo:hi] {
		if x > best {
			best = x
		}
	}
	return best
}

// GatherAll returns the full global vector, in global order, on every rank.
// Collective; intended for tests and small problems.
func (v *Vector) GatherAll() []float64 {
	parts := comm.Allgather(v.c, v.Data)
	out := make([]float64, v.m.NumGlobal())
	for r, p := range parts {
		for l, x := range p {
			out[v.m.LocalToGlobal(r, l)] = x
		}
	}
	return out
}

// SetGlobal stores value at global index g; only the owning rank writes.
// Non-collective (every rank may call it with the same arguments).
func (v *Vector) SetGlobal(g int, value float64) {
	r, l := v.m.GlobalToLocal(g)
	if r == v.c.Rank() {
		v.Data[l] = value
	}
}

// GetGlobal returns the value at global index g on every rank. Collective:
// the owner broadcasts the element.
func (v *Vector) GetGlobal(g int) float64 {
	r, l := v.m.GlobalToLocal(g)
	var val float64
	if r == v.c.Rank() {
		val = v.Data[l]
	}
	return comm.BcastScalar(v.c, r, val)
}

func (v *Vector) String() string {
	return fmt.Sprintf("Vector{%v, rank %d holds %d}", v.m, v.c.Rank(), len(v.Data))
}

// Operator is anything that can apply a distributed linear operator:
// y = A x, where x and y are vectors over Map(). CrsMatrix implements it,
// as do the preconditioners and the Seamless-compiled matrix-free operators.
type Operator interface {
	Apply(x, y *Vector)
	Map() *distmap.Map
}

// MultiVector is a collection of nvec distributed vectors sharing one map,
// the analog of Epetra_MultiVector used by block solvers and eigensolvers.
type MultiVector struct {
	c    *comm.Comm
	m    *distmap.Map
	cols []*Vector
}

// NewMultiVector returns a zero-initialized multivector with nvec columns.
func NewMultiVector(c *comm.Comm, m *distmap.Map, nvec int) *MultiVector {
	if nvec <= 0 {
		panic(fmt.Sprintf("tpetra: MultiVector needs nvec > 0, got %d", nvec))
	}
	mv := &MultiVector{c: c, m: m, cols: make([]*Vector, nvec)}
	for i := range mv.cols {
		mv.cols[i] = NewVector(c, m)
	}
	return mv
}

// NumVectors returns the number of columns.
func (mv *MultiVector) NumVectors() int { return len(mv.cols) }

// Map returns the shared distribution map.
func (mv *MultiVector) Map() *distmap.Map { return mv.m }

// Vector returns column i (a shared reference, not a copy).
func (mv *MultiVector) Vector(i int) *Vector { return mv.cols[i] }

// Dot returns the column-wise inner products with w. Collective.
func (mv *MultiVector) Dot(w *MultiVector) []float64 {
	if len(mv.cols) != len(w.cols) {
		panic("tpetra: MultiVector.Dot column count mismatch")
	}
	local := make([]float64, len(mv.cols))
	for k := range mv.cols {
		mv.cols[k].checkCompat(w.cols[k], "MultiVector.Dot")
		local[k] = dense.DotSlices(mv.cols[k].Data, w.cols[k].Data)
	}
	return comm.Allreduce(mv.c, local, comm.OpSum)
}

// Norm2s returns the column-wise Euclidean norms. Collective.
func (mv *MultiVector) Norm2s() []float64 {
	local := make([]float64, len(mv.cols))
	for k := range mv.cols {
		local[k] = dense.DotSlices(mv.cols[k].Data, mv.cols[k].Data)
	}
	global := comm.Allreduce(mv.c, local, comm.OpSum)
	for k := range global {
		global[k] = math.Sqrt(global[k])
	}
	return global
}

// Update computes each column: mv = alpha*x + beta*mv.
func (mv *MultiVector) Update(alpha float64, x *MultiVector, beta float64) {
	if len(mv.cols) != len(x.cols) {
		panic("tpetra: MultiVector.Update column count mismatch")
	}
	for k := range mv.cols {
		mv.cols[k].Update(alpha, x.cols[k], beta)
	}
}

// Scale multiplies every column by alpha.
func (mv *MultiVector) Scale(alpha float64) {
	for _, col := range mv.cols {
		col.Scale(alpha)
	}
}

// Randomize fills all columns deterministically from seed.
func (mv *MultiVector) Randomize(seed int64) {
	for k, col := range mv.cols {
		col.Randomize(seed + int64(k)*7_919)
	}
}
