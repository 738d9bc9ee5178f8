package solvers

import (
	"fmt"
	"math"
	"testing"

	"odinhpc/internal/comm"
	"odinhpc/internal/comm/alloctest"
	"odinhpc/internal/distmap"
	"odinhpc/internal/galeri"
	"odinhpc/internal/tpetra"
)

// cgUnfused is CG as it was before the reductions were fused: <r, z> and
// ||r|| from two separate allreduces. It is the oracle the fused loop must
// match bit for bit; it exists only here.
func cgUnfused(a tpetra.Operator, b, x *tpetra.Vector, opt Options) []float64 {
	opt = opt.withDefaults()
	c, m := b.Comm(), a.Map()
	r, z, p, ap := tpetra.NewVector(c, m), tpetra.NewVector(c, m), tpetra.NewVector(c, m), tpetra.NewVector(c, m)
	bnorm := b.Norm2()
	a.Apply(x, r)
	r.Update(1, b, -1)
	applyPrec(opt.Precond, r, z)
	p.CopyFrom(z)
	rz := r.Dot(z)
	rnorm := r.Norm2()
	history := []float64{rnorm / bnorm}
	for k := 0; k < opt.MaxIter && rnorm/bnorm > opt.Tol; k++ {
		a.Apply(p, ap)
		alpha := rz / p.Dot(ap)
		x.Axpy(alpha, p)
		r.Axpy(-alpha, ap)
		applyPrec(opt.Precond, r, z)
		rzNew := r.Dot(z)
		p.Update(1, z, rzNew/rz)
		rz = rzNew
		rnorm = r.Norm2()
		history = append(history, rnorm/bnorm)
	}
	return history
}

// bicgstabUnfused is the same oracle for BiCGSTAB: <t, t> and <t, s> from
// two allreduces.
func bicgstabUnfused(a tpetra.Operator, b, x *tpetra.Vector, opt Options) []float64 {
	opt = opt.withDefaults()
	c, m := b.Comm(), a.Map()
	nv := func() *tpetra.Vector { return tpetra.NewVector(c, m) }
	r, rhat, p, v, s, t, phat, shat := nv(), nv(), nv(), nv(), nv(), nv(), nv(), nv()
	bnorm := b.Norm2()
	a.Apply(x, r)
	r.Update(1, b, -1)
	rhat.CopyFrom(r)
	rho, alpha, omega := 1.0, 1.0, 1.0
	rnorm := r.Norm2()
	history := []float64{rnorm / bnorm}
	for k := 0; k < opt.MaxIter && rnorm/bnorm > opt.Tol; k++ {
		rhoNew := rhat.Dot(r)
		if k == 0 {
			p.CopyFrom(r)
		} else {
			p.Axpy(-omega, v)
			p.Update(1, r, (rhoNew/rho)*(alpha/omega))
		}
		rho = rhoNew
		applyPrec(opt.Precond, p, phat)
		a.Apply(phat, v)
		alpha = rho / rhat.Dot(v)
		s.CopyFrom(r)
		s.Axpy(-alpha, v)
		if sn := s.Norm2(); sn/bnorm <= opt.Tol {
			return append(history, sn/bnorm)
		}
		applyPrec(opt.Precond, s, shat)
		a.Apply(shat, t)
		tt := t.Dot(t)
		omega = t.Dot(s) / tt
		x.Axpy(alpha, phat)
		x.Axpy(omega, shat)
		r.CopyFrom(s)
		r.Axpy(-omega, t)
		rnorm = r.Norm2()
		history = append(history, rnorm/bnorm)
	}
	return history
}

// TestFusedReductionsBitwise holds the fused CG and BiCGSTAB loops against
// the unfused oracles: the residual history — every scalar the recurrences
// produce feeds it — must be identical bit for bit, with and without a
// preconditioner, at one rank, at powers of two and at a size that folds a
// rank in and out of the allreduce. Without a preconditioner the solvers use
// r itself as z (and p, s as M^-1 p, M^-1 s) and reduce <r, r> once; the
// oracles still copy through applyPrec, so they are the reference for that
// aliasing too.
func TestFusedReductionsBitwise(t *testing.T) {
	type solver struct {
		name   string
		fused  func(a tpetra.Operator, b, x *tpetra.Vector, opt Options) (Result, error)
		oracle func(a tpetra.Operator, b, x *tpetra.Vector, opt Options) []float64
	}
	solvers := []solver{{"cg", CG, cgUnfused}, {"bicgstab", BiCGSTAB, bicgstabUnfused}}
	onRanks(t, []int{1, 2, 3, 4}, func(c *comm.Comm) error {
		a, b, _ := manufactured(c, 96)
		for _, s := range solvers {
			for _, prec := range []Preconditioner{nil, newDiagPrec(a)} {
				opt := Options{Tol: 1e-10, MaxIter: 400, Precond: prec, RecordHistory: true}
				x := tpetra.NewVector(c, a.Map())
				res, err := s.fused(a, b, x, opt)
				if err != nil {
					return err
				}
				want := s.oracle(a, b, tpetra.NewVector(c, a.Map()), opt)
				if !res.Converged || len(res.History) != len(want) {
					return fmt.Errorf("%s P=%d prec=%v: %v with %d history entries, oracle has %d",
						s.name, c.Size(), prec != nil, res, len(res.History), len(want))
				}
				for k := range want {
					if math.Float64bits(res.History[k]) != math.Float64bits(want[k]) {
						return fmt.Errorf("%s P=%d prec=%v: residual %d is %x, oracle has %x",
							s.name, c.Size(), prec != nil, k, res.History[k], want[k])
					}
				}
			}
		}
		return nil
	})
}

// TestCGAllocsPerIteration pins the hot loop's allocation slope: the extra
// objects of 32 more iterations, all ranks together. A solve allocates its
// work vectors once; an iteration — one Apply, two allreduces, the sweeps —
// allocates nothing, at any rank count.
func TestCGAllocsPerIteration(t *testing.T) {
	const runs = 8
	solves := func(p, iters int) uint64 {
		return alloctest.Mallocs(t, p, runs, func(c *comm.Comm) func() {
			a := galeri.Laplace1DDist(c, distmap.NewBlock(512, c.Size()))
			b := tpetra.NewVector(c, a.Map())
			b.PutScalar(1)
			return func() {
				// Far from converged at 64 iterations (it takes 256), so every
				// solve runs exactly MaxIter of them.
				x := tpetra.NewVector(c, a.Map())
				if res, _ := CG(a, b, x, Options{MaxIter: iters, Tol: 1e-10}); res.Iterations != iters {
					panic(fmt.Sprintf("CG ran %d iterations, want %d", res.Iterations, iters))
				}
			}
		})
	}
	for _, p := range []int{1, 2, 4} {
		long, short := solves(p, 64), solves(p, 32)
		if slope := (int64(long) - int64(short)) / (32 * runs); slope != 0 {
			t.Errorf("P=%d: CG allocates %d objects per iteration (all ranks together; %d vs %d over %d solves), want 0",
				p, slope, long, short, runs)
		}
	}
}
