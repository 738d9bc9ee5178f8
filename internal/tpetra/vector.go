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

// Dot returns the global inner product <v, w>. Collective. The local part
// runs on the exec engine; the cross-rank part is the usual allreduce.
func (v *Vector) Dot(w *Vector) float64 {
	return comm.AllreduceScalar(v.c, v.LocalDot(w), comm.OpSum)
}

// LocalDot returns this rank's partial of <v, w>, the value Dot reduces
// across ranks. Not collective.
func (v *Vector) LocalDot(w *Vector) float64 {
	v.checkCompat(w, "Dot")
	return dense.DotSlices(v.Data, w.Data)
}

// Dot2 returns the global inner products <a, b> and <c, d> from a single
// two-element allreduce — one latency-bound round where two Dot calls pay
// two, which is what a Krylov iteration is made of. The per-rank partials
// are Dot's and the reduction is element-wise, so both results are bitwise
// what the separate calls return. Collective.
func Dot2(a, b, c, d *Vector) (ab, cd float64) {
	a.checkCompat(c, "Dot2")
	buf := [2]float64{a.LocalDot(b), c.LocalDot(d)}
	comm.AllreduceInto(a.c, buf[:], comm.OpSum)
	return buf[0], buf[1]
}

// CGDots returns the global <r, z>, <z, w> and <r, r> of a single-reduction
// CG iteration from one allreduce, rr being this rank's partial of <r, r>
// (CGStep's result): inner products computed at two points of the iteration
// pay one latency-bound round together, each bitwise the Dot it stands for.
// With z == r (no preconditioner) the payload is two numbers, <r, z> being
// <r, r>. Collective.
func CGDots(r, z, w *Vector, rr float64) (rz, zw, rrSum float64) {
	if z == r {
		buf := [2]float64{rr, r.LocalDot(w)}
		comm.AllreduceInto(r.c, buf[:], comm.OpSum)
		return buf[0], buf[1], buf[0]
	}
	buf := [3]float64{r.LocalDot(z), z.LocalDot(w), rr}
	comm.AllreduceInto(r.c, buf[:], comm.OpSum)
	return buf[0], buf[1], buf[2]
}

// CGStep is the vector half of a single-reduction CG iteration in one sweep
// (dense.CGStep): p = z + beta p, s = w + beta s, x += alpha p,
// r -= alpha s. It returns this rank's partial of <r, r> for the updated r,
// for the caller to reduce with the inner products that follow the next
// Apply. Element for element it is p.Update(1, z, beta); s.Update(1, w,
// beta); x.Axpy(alpha, p); r.Axpy(-alpha, s), and the partial is
// r.LocalDot(r) after them. z may be r. Not collective.
func CGStep(alpha, beta float64, z, w, p, s, x, r *Vector) float64 {
	for _, v := range [...]*Vector{z, w, p, s, x} {
		r.checkCompat(v, "CGStep")
	}
	return dense.CGStep(alpha, beta, z.Data, w.Data, p.Data, s.Data, x.Data, r.Data)
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

// Operator is anything that can apply a distributed linear operator:
// y = A x, where x and y are vectors over Map(). CrsMatrix implements it,
// as do the preconditioners and the Seamless-compiled matrix-free operators.
type Operator interface {
	Apply(x, y *Vector)
	Map() *distmap.Map
}
