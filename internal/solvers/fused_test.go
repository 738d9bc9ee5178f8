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

// cgUnfused is CG with nothing fused: the four updates as four calls, and
// <r, z>, <z, Az> and <r, r> from three allreduces. It is the oracle the
// fused loop must match bit for bit; it exists only here.
func cgUnfused(a tpetra.Operator, b, x *tpetra.Vector, opt Options) []float64 {
	opt = opt.withDefaults()
	c, m := b.Comm(), a.Map()
	r, z, w, p, s := tpetra.NewVector(c, m), tpetra.NewVector(c, m), tpetra.NewVector(c, m), tpetra.NewVector(c, m), tpetra.NewVector(c, m)
	bnorm := b.Norm2()
	a.Apply(x, r)
	r.Update(1, b, -1)
	dots := func() (rz, zw, rr float64) {
		applyPrec(opt.Precond, r, z)
		a.Apply(z, w)
		return r.Dot(z), z.Dot(w), r.Dot(r)
	}
	rz, zw, rr := dots()
	history := []float64{math.Sqrt(rr) / bnorm}
	beta, pap := 0.0, 0.0
	for k := 0; k < opt.MaxIter && math.Sqrt(rr)/bnorm > opt.Tol; k++ {
		pap = zw - beta*beta*pap
		alpha := rz / pap
		p.Update(1, z, beta)
		s.Update(1, w, beta)
		x.Axpy(alpha, p)
		r.Axpy(-alpha, s)
		rzNew, zwNew, rrNew := dots()
		beta, rz, zw, rr = rzNew/rz, rzNew, zwNew, rrNew
		history = append(history, math.Sqrt(rr)/bnorm)
	}
	return history
}

// cgClassic is CG as it was before the single-reduction recurrence:
// <p, Ap>, then <r, z> and <r, r>, two allreduce rounds an iteration, and
// the operator applied to p. It is the reference the recurrence must agree
// with in iteration count; it exists only here.
func cgClassic(a tpetra.Operator, b, x *tpetra.Vector, opt Options) []float64 {
	opt = opt.withDefaults()
	c, m := b.Comm(), a.Map()
	r, z, p, ap := tpetra.NewVector(c, m), tpetra.NewVector(c, m), tpetra.NewVector(c, m), tpetra.NewVector(c, m)
	bnorm := b.Norm2()
	a.Apply(x, r)
	r.Update(1, b, -1)
	applyPrec(opt.Precond, r, z)
	p.CopyFrom(z)
	rz, rr := tpetra.Dot2(r, z, r, r)
	history := []float64{math.Sqrt(rr) / bnorm}
	for k := 0; k < opt.MaxIter && math.Sqrt(rr)/bnorm > opt.Tol; k++ {
		a.Apply(p, ap)
		alpha := rz / p.Dot(ap)
		x.Axpy(alpha, p)
		r.Axpy(-alpha, ap)
		applyPrec(opt.Precond, r, z)
		rzNew, rrNew := tpetra.Dot2(r, z, r, r)
		p.Update(1, z, rzNew/rz)
		rz, rr = rzNew, rrNew
		history = append(history, math.Sqrt(rr)/bnorm)
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

// TestFusedSweepsBitwise holds the fused sweeps themselves — tpetra.CGStep
// and Vector.WaxpyNorm2 — against the call sequences they replace, vectors
// and scalar bit for bit, on 1 to 4 ranks, at global lengths that give the
// ranks empty, one-element and chunk-boundary (sweepGrain +- 1) local
// segments; and the scalars the same at every pool size.
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
					z, w, p0, s0 := vec(0.3), vec(1.7), vec(0.7), vec(1.3)
					ap, x0, r0 := vec(0.9), vec(2.1), vec(0.4)
					const alpha, beta = 0.8125 + 1e-9, 0.375 - 1e-9
					fail := func(what string) error {
						return fmt.Errorf("%s differs from the unfused sequence: pool=%d P=%d n=%d rank %d (local %d)",
							what, pool, P, n, c.Rank(), len(r0.Data))
					}

					p, s, x, r := p0.Clone(), s0.Clone(), x0.Clone(), r0.Clone()
					p.Update(1, z, beta)
					s.Update(1, w, beta)
					x.Axpy(alpha, p)
					r.Axpy(-alpha, s)
					rr := r.Dot(r)
					fp, fs, fx, fr := p0.Clone(), s0.Clone(), x0.Clone(), r0.Clone()
					got := tpetra.CGStep(alpha, beta, z, w, fp, fs, fx, fr)
					if got = comm.AllreduceScalar(c, got, comm.OpSum); math.Float64bits(got) != math.Float64bits(rr) ||
						!same(fp, p) || !same(fs, s) || !same(fx, x) || !same(fr, r) {
						return fail("CGStep")
					}
					// Without a preconditioner z is r itself.
					p, s, x, r = p0.Clone(), s0.Clone(), x0.Clone(), r0.Clone()
					p.Update(1, r, beta)
					s.Update(1, w, beta)
					x.Axpy(alpha, p)
					r.Axpy(-alpha, s)
					fp, fs, fx, fr = p0.Clone(), s0.Clone(), x0.Clone(), r0.Clone()
					if tpetra.CGStep(alpha, beta, fr, w, fp, fs, fx, fr); !same(fp, p) || !same(fs, s) || !same(fx, x) || !same(fr, r) {
						return fail("CGStep with z = r")
					}

					hs := tpetra.NewVector(c, m)
					hs.CopyFrom(r0)
					hs.Axpy(-alpha, ap)
					sn := hs.Norm2()
					ws := tpetra.NewVector(c, m)
					if got := ws.WaxpyNorm2(-alpha, ap, r0); math.Float64bits(got) != math.Float64bits(sn) || !same(ws, hs) {
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

// A CG rank-iteration is three engine calls — the fused step with <r, r>,
// the SpMV, <r, Ar>; four for classic CG (SpMV, <p, Ap>, the step, the p
// update), six before its step was fused.
func TestCGEngineCallsPerIteration(t *testing.T) { testEngineCallsPerIteration(t, CG, 3) }

// A BiCGSTAB rank-iteration is twelve: two SpMVs, four dots, two fused
// half-steps, four axpy/update sweeps; fourteen before.
func TestBiCGSTABEngineCallsPerIteration(t *testing.T) { testEngineCallsPerIteration(t, BiCGSTAB, 12) }

// classicSolve runs the classic-CG oracle as a solveFunc.
func classicSolve(a tpetra.Operator, b, x *tpetra.Vector, opt Options) (Result, error) {
	h := cgClassic(a, b, x, opt)
	return Result{Iterations: len(h) - 1, Residual: h[len(h)-1]}, nil
}

// TestCGOneAllreducePerIteration pins the rounds of an iteration in
// messages, counted by the fabric: the extra messages of 32 more iterations
// must be those of 32 Applys and 32 scalar allreduces — one reduction round
// per iteration at every P — where classic CG pays two allreduces.
func TestCGOneAllreducePerIteration(t *testing.T) {
	msgs := func(p int, body func(c *comm.Comm)) int64 {
		st, err := comm.RunStats(p, func(c *comm.Comm) error { body(c); return nil })
		if err != nil {
			t.Fatal(err)
		}
		return st.Snapshot().TotalMsgs()
	}
	for _, p := range []int{2, 3, 4} {
		setup := func(c *comm.Comm) (*tpetra.CrsMatrix, *tpetra.Vector) {
			a := galeri.Laplace1DDist(c, distmap.NewBlock(512, c.Size()))
			return a, tpetra.NewVector(c, a.Map())
		}
		apply := msgs(p, func(c *comm.Comm) { a, x := setup(c); a.Apply(x, x.Clone()) }) -
			msgs(p, func(c *comm.Comm) { setup(c) })
		allreduce := msgs(p, func(c *comm.Comm) { comm.AllreduceScalar(c, 1.0, comm.OpSum) })
		for _, s := range []struct {
			name       string
			solve      solveFunc
			allreduces int64
		}{{"cg", CG, 1}, {"classic", classicSolve, 2}} {
			perIter := func(iters int) int64 {
				return msgs(p, func(c *comm.Comm) { fixedSolve(c, s.solve, iters)() })
			}
			got, want := (perIter(64)-perIter(32))/32, apply+s.allreduces*allreduce
			if got != want {
				t.Errorf("P=%d %s: %d messages per iteration, want %d (an Apply is %d, an allreduce %d)",
					p, s.name, got, want, apply, allreduce)
			}
		}
	}
}

// TestCGMatchesClassicIterations holds the single-reduction recurrence to
// classic CG, which it equals in exact arithmetic: the same iteration count
// and a true residual under the tolerance, on the benchmark's two solve
// workloads at their five tolerances (laplace1d n = 512 at 1e-10 takes
// 256 iterations, laplace3d 32^3 at 1e-8 takes 79) and with a Jacobi
// preconditioner on a badly scaled Laplacian, at P = 1 to 3.
func TestCGMatchesClassicIterations(t *testing.T) {
	type problem struct {
		name  string
		n     int
		tol   float64
		iters int // the count both must take; 0 leaves it to the oracle
		build func(c *comm.Comm, m *distmap.Map) *tpetra.CrsMatrix
		prec  bool
	}
	problems := []problem{
		{"laplace1d/512", 512, 1e-10, 256, func(c *comm.Comm, m *distmap.Map) *tpetra.CrsMatrix {
			return galeri.Laplace1DDist(c, m)
		}, false},
		{"laplace3d/32^3", 32 * 32 * 32, 1e-8, 79, func(c *comm.Comm, m *distmap.Map) *tpetra.CrsMatrix {
			return galeri.Laplace3DDist(c, m, 32, 32, 32)
		}, false},
		{"scaled-laplace1d/80+jacobi", 80, 1e-8, 0, func(c *comm.Comm, m *distmap.Map) *tpetra.CrsMatrix {
			scale := func(i int) float64 { return 1 + 10*float64(i%7) }
			return galeri.BuildDist(c, m, func(i int) ([]int, []float64) {
				cols, vals := galeri.Laplace1DRow(80)(i)
				for k := range vals {
					vals[k] *= scale(i) * scale(cols[k])
				}
				return cols, vals
			})
		}, true},
	}
	for _, pr := range problems {
		onRanks(t, []int{1, 2, 3}, func(c *comm.Comm) error {
			m := distmap.NewBlock(pr.n, c.Size())
			a := pr.build(c, m)
			b := tpetra.NewVector(c, m)
			b.PutScalar(1)
			var prec Preconditioner
			if pr.prec {
				prec = newDiagPrec(a)
			}
			for seed := 0; seed < 5; seed++ {
				opt := Options{Tol: pr.tol * (1 + 0.01*float64(seed)), MaxIter: 2000, Precond: prec}
				x := tpetra.NewVector(c, m)
				res, err := CG(a, b, x, opt)
				if err != nil {
					return fmt.Errorf("%s: %v", pr.name, err)
				}
				classic := len(cgClassic(a, b, tpetra.NewVector(c, m), opt)) - 1
				want := pr.iters
				if want == 0 {
					want = classic
				}
				if !res.Converged || res.Iterations != want || classic != want {
					return fmt.Errorf("%s tol=%g P=%d: %v; classic CG took %d, want %d",
						pr.name, opt.Tol, c.Size(), res, classic, want)
				}
				if tr := ResidualNorm(a, b, x); !(tr <= opt.Tol) {
					return fmt.Errorf("%s tol=%g P=%d: true residual %g over the tolerance", pr.name, opt.Tol, c.Size(), tr)
				}
			}
			return nil
		})
	}
}
