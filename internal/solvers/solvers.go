// Package solvers implements the iterative Krylov-space linear solvers of
// the Trilinos analog (AztecOO, paper Table I): CG, BiCGSTAB, restarted
// GMRES, MINRES, and Richardson iteration, each accepting any distributed
// tpetra.Operator and an optional preconditioner. A ParameterList-driven
// front end (Solve) mirrors how PyTrilinos users configure AztecOO.
package solvers

import (
	"errors"
	"fmt"
	"math"

	"odinhpc/internal/comm"
	"odinhpc/internal/distmap"
	"odinhpc/internal/teuchos"
	"odinhpc/internal/tpetra"
)

// Preconditioner applies an approximate inverse: z = M^{-1} r. The identity
// is represented by a nil Preconditioner.
type Preconditioner interface {
	ApplyInverse(r, z *tpetra.Vector)
}

// Options configures an iterative solve.
type Options struct {
	MaxIter       int            // maximum iterations (default 1000)
	Tol           float64        // relative residual tolerance (default 1e-8)
	Precond       Preconditioner // nil for unpreconditioned
	RecordHistory bool           // store per-iteration residual norms
}

func (o Options) withDefaults() Options {
	if o.MaxIter <= 0 {
		o.MaxIter = 1000
	}
	if o.Tol <= 0 {
		o.Tol = 1e-8
	}
	return o
}

// Result reports the outcome of an iterative solve.
type Result struct {
	Converged  bool
	Iterations int
	Residual   float64   // final relative residual ||b-Ax|| / ||b||
	History    []float64 // per-iteration relative residuals if recorded
}

func (r Result) String() string {
	state := "converged"
	if !r.Converged {
		state = "NOT converged"
	}
	return fmt.Sprintf("%s in %d iterations, rel. residual %.3e", state, r.Iterations, r.Residual)
}

// ErrBreakdown is returned when a Krylov recurrence hits a zero denominator
// or a NaN/Inf scalar before convergence, and by CG when <p, Ap> is negative
// (the operator is not positive definite). Every scalar tested has already
// been reduced, so all ranks take the same exit.
var ErrBreakdown = errors.New("solvers: Krylov recurrence breakdown")

func applyPrec(p Preconditioner, r, z *tpetra.Vector) {
	if p == nil {
		z.CopyFrom(r)
		return
	}
	p.ApplyInverse(r, z)
}

// Workspace owns the work vectors of CG and BiCGSTAB, so a caller that
// solves on one map again and again — a warm served matrix — allocates them
// once, as Belos keeps its Krylov vectors in the iteration object. Every
// vector is handed out zeroed, as tpetra.NewVector returns it, and the set
// is reallocated only when the map or the communicator changes, so a solve
// through a used Workspace is bitwise the solve through a fresh one, even
// after a solve that broke down with NaN or Inf in its vectors. The zero
// value is ready to use. A Workspace is single-threaded, like the matrix it
// serves.
type Workspace struct {
	vecs []*tpetra.Vector
}

// vectors returns k zeroed work vectors on map m over c, keeping the ones
// it has while m and c stay the same.
func (ws *Workspace) vectors(c *comm.Comm, m *distmap.Map, k int) []*tpetra.Vector {
	if len(ws.vecs) > 0 && (ws.vecs[0].Comm() != c || ws.vecs[0].Map() != m) {
		ws.vecs = nil
	}
	for len(ws.vecs) < k {
		ws.vecs = append(ws.vecs, tpetra.NewVector(c, m))
	}
	for _, v := range ws.vecs[:k] {
		clear(v.Data)
	}
	return ws.vecs[:k]
}

// applyDots sets z = M^{-1} r and w = A z and returns <r, z>, <z, w> and
// <r, r> from one allreduce (tpetra.CGDots), rr being this rank's partial of
// <r, r>. Without a preconditioner the caller passes r itself as z.
func applyDots(a tpetra.Operator, prec Preconditioner, r, z, w *tpetra.Vector, rr float64) (rz, zw, rrSum float64) {
	if prec != nil {
		prec.ApplyInverse(r, z)
	}
	a.Apply(z, w)
	return tpetra.CGDots(r, z, w, rr)
}

// CG solves A x = b for symmetric positive-definite A using the
// preconditioned conjugate gradient method. x holds the initial guess on
// entry and the solution on exit. Collective.
//
// It is the single-reduction variant of Chronopoulos and Gear (Belos'
// CGSingleRedIter): the operator applies to z = M^{-1} r instead of p, and
// s = Ap follows p by its own recurrence, so <r, z>, <z, Az> and <r, r> are
// all known after one allreduce and <p, Ap> = <z, Az> - beta^2 <p, Ap>_old.
// An iteration is one allreduce round, one Apply, and one vector sweep for
// the four updates with <r, r> (tpetra.CGStep), then <z, Az>. Without a
// preconditioner z is r, not a copy of it. In exact arithmetic the iterates
// are classic CG's.
func CG(a tpetra.Operator, b, x *tpetra.Vector, opt Options) (Result, error) {
	return new(Workspace).CG(a, b, x, opt)
}

// CG is the package-level CG with its work vectors taken from ws.
func (ws *Workspace) CG(a tpetra.Operator, b, x *tpetra.Vector, opt Options) (Result, error) {
	opt = opt.withDefaults()
	res := Result{}
	k := 4
	if opt.Precond != nil {
		k = 5
	}
	v := ws.vectors(b.Comm(), a.Map(), k)
	r, w, p, s := v[0], v[1], v[2], v[3]
	z := r
	if opt.Precond != nil {
		z = v[4]
	}

	bnorm := b.Norm2()
	if bnorm == 0 {
		bnorm = 1
	}
	a.Apply(x, r)
	r.Update(1, b, -1) // r = b - Ax
	rz, zw, rr := applyDots(a, opt.Precond, r, z, w, r.LocalDot(r))
	rnorm := math.Sqrt(rr)
	record := func() {
		if opt.RecordHistory {
			res.History = append(res.History, rnorm/bnorm)
		}
	}
	record()
	// p and s start at zero, so with beta = 0 the first step sets p = z,
	// s = w and <p, Ap> = <z, Az>.
	beta, pap := 0.0, 0.0
	for k := 0; k < opt.MaxIter; k++ {
		if rnorm/bnorm <= opt.Tol {
			res.Converged = true
			break
		}
		pap = zw - beta*beta*pap
		if !(pap > 0) || math.IsInf(pap, 1) { // zero, negative or NaN too
			res.Residual = rnorm / bnorm
			return res, ErrBreakdown
		}
		alpha := rz / pap
		rzNew, zwNew, rr := applyDots(a, opt.Precond, r, z, w, tpetra.CGStep(alpha, beta, z, w, p, s, x, r))
		if rz == 0 || nonFinite(rzNew) || nonFinite(rr) {
			res.Residual = rnorm / bnorm
			return res, ErrBreakdown
		}
		beta = rzNew / rz
		rz, zw = rzNew, zwNew
		rnorm = math.Sqrt(rr)
		res.Iterations = k + 1
		record()
	}
	if rnorm/bnorm <= opt.Tol {
		res.Converged = true
	}
	res.Residual = rnorm / bnorm
	return res, nil
}

// BiCGSTAB solves A x = b for general (non-symmetric) A using the
// preconditioned BiCGSTAB method. Collective.
func BiCGSTAB(a tpetra.Operator, b, x *tpetra.Vector, opt Options) (Result, error) {
	return new(Workspace).BiCGSTAB(a, b, x, opt)
}

// BiCGSTAB is the package-level BiCGSTAB with its work vectors taken from
// ws.
func (ws *Workspace) BiCGSTAB(a tpetra.Operator, b, x *tpetra.Vector, opt Options) (Result, error) {
	opt = opt.withDefaults()
	res := Result{}
	k := 6
	if opt.Precond != nil {
		k = 8
	}
	vs := ws.vectors(b.Comm(), a.Map(), k)
	r, rhat, p, v, s, t := vs[0], vs[1], vs[2], vs[3], vs[4], vs[5]
	// M^{-1}p and M^{-1}s are only read: without a preconditioner they are p
	// and s themselves.
	phat, shat := p, s
	if opt.Precond != nil {
		phat, shat = vs[6], vs[7]
	}

	bnorm := b.Norm2()
	if bnorm == 0 {
		bnorm = 1
	}
	a.Apply(x, r)
	r.Update(1, b, -1)
	rhat.CopyFrom(r)
	rho, alpha, omega := 1.0, 1.0, 1.0
	rnorm := r.Norm2()
	record := func() {
		if opt.RecordHistory {
			res.History = append(res.History, rnorm/bnorm)
		}
	}
	record()
	for k := 0; k < opt.MaxIter; k++ {
		if rnorm/bnorm <= opt.Tol {
			res.Converged = true
			break
		}
		rhoNew := rhat.Dot(r)
		if rhoNew == 0 || omega == 0 || nonFinite(rhoNew) || nonFinite(omega) || nonFinite(rnorm) {
			res.Residual = rnorm / bnorm
			return res, ErrBreakdown
		}
		if k == 0 {
			p.CopyFrom(r)
		} else {
			beta := (rhoNew / rho) * (alpha / omega)
			// p = r + beta*(p - omega*v)
			p.Axpy(-omega, v)
			p.Update(1, r, beta)
		}
		rho = rhoNew
		if opt.Precond != nil {
			opt.Precond.ApplyInverse(p, phat)
		}
		a.Apply(phat, v)
		rhv := rhat.Dot(v)
		if rhv == 0 || nonFinite(rhv) {
			res.Residual = rnorm / bnorm
			return res, ErrBreakdown
		}
		alpha = rho / rhv
		// s = r - alpha v and ||s|| in one sweep.
		if sn := s.WaxpyNorm2(-alpha, v, r); sn/bnorm <= opt.Tol {
			x.Axpy(alpha, phat)
			rnorm = sn
			res.Iterations = k + 1
			res.Converged = true
			record()
			break
		}
		if opt.Precond != nil {
			opt.Precond.ApplyInverse(s, shat)
		}
		a.Apply(shat, t)
		tt, ts := tpetra.Dot2(t, t, t, s) // one allreduce for the pair
		if tt == 0 || nonFinite(tt) || nonFinite(ts) {
			res.Residual = s.Norm2() / bnorm
			return res, ErrBreakdown
		}
		omega = ts / tt
		x.Axpy(alpha, phat)
		x.Axpy(omega, shat)
		rnorm = r.WaxpyNorm2(-omega, t, s) // r = s - omega t
		res.Iterations = k + 1
		record()
	}
	if rnorm/bnorm <= opt.Tol {
		res.Converged = true
	}
	res.Residual = rnorm / bnorm
	return res, nil
}

// Richardson performs damped Richardson iteration
// x <- x + omega * M^{-1} (b - A x). With a strong preconditioner it is the
// classic stationary smoother; it is also the fallback AztecOO method.
func Richardson(a tpetra.Operator, b, x *tpetra.Vector, omega float64, opt Options) (Result, error) {
	opt = opt.withDefaults()
	res := Result{}
	c := b.Comm()
	m := a.Map()
	r := tpetra.NewVector(c, m)
	z := tpetra.NewVector(c, m)
	bnorm := b.Norm2()
	if bnorm == 0 {
		bnorm = 1
	}
	for k := 0; k < opt.MaxIter; k++ {
		a.Apply(x, r)
		r.Update(1, b, -1)
		rnorm := r.Norm2()
		if opt.RecordHistory {
			res.History = append(res.History, rnorm/bnorm)
		}
		res.Residual = rnorm / bnorm
		if res.Residual <= opt.Tol {
			res.Converged = true
			return res, nil
		}
		applyPrec(opt.Precond, r, z)
		x.Axpy(omega, z)
		res.Iterations = k + 1
	}
	a.Apply(x, r)
	r.Update(1, b, -1)
	res.Residual = r.Norm2() / bnorm
	res.Converged = res.Residual <= opt.Tol
	return res, nil
}

// Solve is the AztecOO-style front end: it reads the method and its
// parameters from a Teuchos parameter list and dispatches. Recognized
// parameters: "method" (cg | bicgstab | gmres | minres | richardson),
// "max iterations", "tolerance", "restart" (gmres), "omega" (richardson).
func Solve(a tpetra.Operator, b, x *tpetra.Vector, prec Preconditioner, params *teuchos.ParameterList) (Result, error) {
	opt := Options{
		MaxIter: params.GetInt("max iterations", 1000),
		Tol:     params.GetFloat("tolerance", 1e-8),
		Precond: prec,
	}
	method := params.GetString("method", "cg")
	switch method {
	case "cg":
		return CG(a, b, x, opt)
	case "bicgstab":
		return BiCGSTAB(a, b, x, opt)
	case "gmres":
		return GMRES(a, b, x, params.GetInt("restart", 30), opt)
	case "minres":
		return MINRES(a, b, x, opt)
	case "richardson":
		return Richardson(a, b, x, params.GetFloat("omega", 1.0), opt)
	default:
		return Result{}, fmt.Errorf("solvers: unknown method %q", method)
	}
}

// ResidualNorm computes ||b - A x|| / ||b|| directly; used by tests and the
// experiment harness to verify solver-reported residuals.
func ResidualNorm(a tpetra.Operator, b, x *tpetra.Vector) float64 {
	r := tpetra.NewVector(b.Comm(), a.Map())
	a.Apply(x, r)
	r.Update(1, b, -1)
	bn := b.Norm2()
	if bn == 0 {
		bn = 1
	}
	return r.Norm2() / bn
}

// nonFinite reports whether v is NaN or infinite.
func nonFinite(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }
