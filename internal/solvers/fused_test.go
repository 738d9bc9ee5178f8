package solvers

import (
	"fmt"
	"math"
	"testing"

	"odinhpc/internal/comm"
	"odinhpc/internal/comm/alloctest"
	"odinhpc/internal/distmap"
	"odinhpc/internal/exec"
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

// sweepGrain makes the exec engine split the vectors of the tests below into
// several chunks: pool 1 folds them on the caller, larger pools fan them
// out, and both combine them in the one reduction tree.
const sweepGrain = 16

// withPool runs f with the default exec engine set to workers and
// sweepGrain.
func withPool(workers int, f func()) {
	old := exec.Default()
	exec.SetDefault(exec.New(exec.WithWorkers(workers), exec.WithGrain(sweepGrain)))
	defer exec.SetDefault(old)
	f()
}

var fusedPools = []int{1, 2, 4, 7}

// sameHistory reports the first residual at which two histories differ in
// their bits, or -1.
func sameHistory(a, b []float64) int {
	for k := range a {
		if k >= len(b) || math.Float64bits(a[k]) != math.Float64bits(b[k]) {
			return k
		}
	}
	if len(b) > len(a) {
		return len(a)
	}
	return -1
}

// TestFusedReductionsBitwise holds the fused CG and BiCGSTAB loops against
// the unfused oracles: the residual history — every scalar the recurrences
// produce feeds it — must be identical bit for bit, with and without a
// preconditioner, at one rank, at powers of two and at a size that folds a
// rank in and out of the allreduce; and the same at every exec pool size,
// since every reduction takes one order whatever the pool. Without a
// preconditioner the solvers use r itself as z (and p, s as M^-1 p,
// M^-1 s) and reduce <r, r> once; the oracles still copy through applyPrec,
// so they are the reference for that aliasing too.
func TestFusedReductionsBitwise(t *testing.T) {
	type solver struct {
		name   string
		fused  func(a tpetra.Operator, b, x *tpetra.Vector, opt Options) (Result, error)
		oracle func(a tpetra.Operator, b, x *tpetra.Vector, opt Options) []float64
	}
	solvers := []solver{{"cg", CG, cgUnfused}, {"bicgstab", BiCGSTAB, bicgstabUnfused}}
	atPool1 := map[string][]float64{} // history by solver/P/prec, written and read by rank 0 only
	for _, pool := range fusedPools {
		withPool(pool, func() {
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
							return fmt.Errorf("%s pool=%d P=%d prec=%v: %v with %d history entries, oracle has %d",
								s.name, pool, c.Size(), prec != nil, res, len(res.History), len(want))
						}
						if k := sameHistory(res.History, want); k >= 0 {
							return fmt.Errorf("%s pool=%d P=%d prec=%v: residual %d is %x, oracle has %x",
								s.name, pool, c.Size(), prec != nil, k, res.History[k], want[k])
						}
						if c.Rank() != 0 {
							continue
						}
						key := fmt.Sprintf("%s P=%d prec=%v", s.name, c.Size(), prec != nil)
						if pool == 1 {
							atPool1[key] = res.History
						} else if k := sameHistory(res.History, atPool1[key]); k >= 0 {
							return fmt.Errorf("%s: pool %d's residual history differs from pool 1's at %d", key, pool, k)
						}
					}
				}
				return nil
			})
		})
	}
}

// TestFusedSweepsBitwise holds the fused sweeps themselves — tpetra.Axpy2Dot,
// Axpy2 and Vector.WaxpyNorm2 — against the three-call sequences they
// replace, vectors and scalar bit for bit, on 1 to 4 ranks, at global
// lengths that give the ranks empty, one-element and chunk-boundary
// (sweepGrain +- 1) local segments; and the scalars the same at every pool
// size.
func TestFusedSweepsBitwise(t *testing.T) {
	same := func(a, b *tpetra.Vector) bool {
		for i := range a.Data {
			if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
				return false
			}
		}
		return true
	}
	atPool1 := map[string][]float64{} // <r, r> and ||s|| by P/n, written and read by rank 0 only
	for _, pool := range fusedPools {
		withPool(pool, func() {
			onRanks(t, []int{1, 2, 3, 4}, func(c *comm.Comm) error {
				P := c.Size()
				for _, n := range []int{1, P - 1, P * (sweepGrain - 1), P * (sweepGrain + 1), 5*P*sweepGrain + 3} {
					if n == 0 {
						continue
					}
					m := distmap.NewBlock(n, P)
					vec := func(k float64) *tpetra.Vector {
						v := tpetra.NewVector(c, m)
						v.FillFromGlobal(func(g int) float64 { return math.Sin(k*float64(g) + k) })
						return v
					}
					p, ap, x0, r0 := vec(0.7), vec(1.3), vec(2.1), vec(0.4)
					const alpha = 0.8125 + 1e-9
					fail := func(what string) error {
						return fmt.Errorf("%s differs from the unfused sequence: pool=%d P=%d n=%d rank %d (local %d)",
							what, pool, P, n, c.Rank(), len(p.Data))
					}

					x, r := x0.Clone(), r0.Clone()
					x.Axpy(alpha, p)
					r.Axpy(-alpha, ap)
					rr := r.Dot(r)
					fx, fr := x0.Clone(), r0.Clone()
					if got := tpetra.Axpy2Dot(alpha, p, fx, -alpha, ap, fr); math.Float64bits(got) != math.Float64bits(rr) || !same(fx, x) || !same(fr, r) {
						return fail("Axpy2Dot")
					}
					gx, gr := x0.Clone(), r0.Clone()
					if tpetra.Axpy2(alpha, p, gx, -alpha, ap, gr); !same(gx, x) || !same(gr, r) {
						return fail("Axpy2")
					}

					s := tpetra.NewVector(c, m)
					s.CopyFrom(r0)
					s.Axpy(-alpha, ap)
					sn := s.Norm2()
					fs := tpetra.NewVector(c, m)
					if got := fs.WaxpyNorm2(-alpha, ap, r0); math.Float64bits(got) != math.Float64bits(sn) || !same(fs, s) {
						return fail("WaxpyNorm2")
					}
					if c.Rank() != 0 {
						continue
					}
					key := fmt.Sprintf("P=%d n=%d", P, n)
					if pool == 1 {
						atPool1[key] = []float64{rr, sn}
					} else if sameHistory([]float64{rr, sn}, atPool1[key]) >= 0 {
						return fmt.Errorf("%s: <r, r>, ||s|| = %v, %v at pool %d; %v at pool 1", key, rr, sn, pool, atPool1[key])
					}
				}
				return nil
			})
		})
	}
}

type solveFunc = func(tpetra.Operator, *tpetra.Vector, *tpetra.Vector, Options) (Result, error)

// fixedSolve sets up laplace1d at n = 512 with b = 1 on c and returns a call
// that runs solve from x = 0 for exactly iters iterations: the problem is far
// from converged at 64 (CG takes 256), so MaxIter is what ends it. Solves of
// two lengths differ by the cost of the extra iterations and nothing else.
func fixedSolve(c *comm.Comm, solve solveFunc, iters int) func() {
	a := galeri.Laplace1DDist(c, distmap.NewBlock(512, c.Size()))
	b := tpetra.NewVector(c, a.Map())
	b.PutScalar(1)
	return func() {
		x := tpetra.NewVector(c, a.Map())
		if res, _ := solve(a, b, x, Options{MaxIter: iters, Tol: 1e-10}); res.Iterations != iters {
			panic(fmt.Sprintf("solver ran %d iterations, want %d", res.Iterations, iters))
		}
	}
}

// testAllocsPerIteration pins a hot loop's allocation slope: the extra
// objects of 32 more iterations, all ranks together. A solve allocates its
// work vectors once; an iteration — the Applys, the allreduces, the sweeps —
// allocates nothing, at any rank count.
func testAllocsPerIteration(t *testing.T, solve solveFunc) {
	const runs = 8
	solves := func(p, iters int) uint64 {
		return alloctest.Mallocs(t, p, runs, func(c *comm.Comm) func() { return fixedSolve(c, solve, iters) })
	}
	for _, p := range []int{1, 2, 4} {
		long, short := solves(p, 64), solves(p, 32)
		if slope := (int64(long) - int64(short)) / (32 * runs); slope != 0 {
			t.Errorf("P=%d: %d objects allocated per iteration (all ranks together; %d vs %d over %d solves), want 0",
				p, slope, long, short, runs)
		}
	}
}

func TestCGAllocsPerIteration(t *testing.T)       { testAllocsPerIteration(t, CG) }
func TestBiCGSTABAllocsPerIteration(t *testing.T) { testAllocsPerIteration(t, BiCGSTAB) }

// testEngineCallsPerIteration pins how many sweeps an iteration makes, the
// way the allocation slope is pinned: the exec engine's call count (exact
// once observed) over solves of 64 and of 32 iterations, per rank.
func testEngineCallsPerIteration(t *testing.T, solve solveFunc, want int64) {
	old := exec.Default()
	defer exec.SetDefault(old)
	e := exec.New(exec.WithWorkers(1))
	exec.SetDefault(e)
	e.Snapshot() // observe it: calls count from here on
	for _, p := range []int{1, 2, 4} {
		calls := func(iters int) int64 {
			before := e.Snapshot().Calls
			onRanks(t, []int{p}, func(c *comm.Comm) error {
				fixedSolve(c, solve, iters)()
				return nil
			})
			return e.Snapshot().Calls - before
		}
		long, short := calls(64), calls(32)
		if got := float64(long-short) / float64(32*p); got != float64(want) {
			t.Errorf("P=%d: %.3f engine calls per rank-iteration (%d vs %d calls), want %d", p, got, long, short, want)
		}
	}
}

// A CG rank-iteration is four engine calls — SpMV, <p, Ap>, the fused step,
// the p update; six before the step was fused.
func TestCGEngineCallsPerIteration(t *testing.T) { testEngineCallsPerIteration(t, CG, 4) }

// A BiCGSTAB rank-iteration is twelve: two SpMVs, four dots, two fused
// half-steps, four axpy/update sweeps; fourteen before.
func TestBiCGSTABEngineCallsPerIteration(t *testing.T) { testEngineCallsPerIteration(t, BiCGSTAB, 12) }
