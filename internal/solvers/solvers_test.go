package solvers

import (
	"fmt"
	"math"
	"testing"

	"odinhpc/internal/comm"
	"odinhpc/internal/distmap"
	"odinhpc/internal/galeri"
	"odinhpc/internal/teuchos"
	"odinhpc/internal/tpetra"
)

var sizes = []int{1, 2, 4}

func onRanks(t *testing.T, ps []int, fn func(c *comm.Comm) error) {
	t.Helper()
	for _, p := range ps {
		if err := comm.Run(p, fn); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

// diagPrec is an inline Jacobi preconditioner used before internal/precond
// exists in the dependency chain.
type diagPrec struct{ inv *tpetra.Vector }

func newDiagPrec(a *tpetra.CrsMatrix) *diagPrec {
	d := a.Diagonal()
	inv := tpetra.NewVector(d.Comm(), d.Map())
	inv.Reciprocal(d)
	return &diagPrec{inv: inv}
}

func (p *diagPrec) ApplyInverse(r, z *tpetra.Vector) { z.ElementWiseMultiply(p.inv, r) }

// manufactured returns (A, b, xTrue) for the 1-D Laplacian with a known
// solution, distributed over the block map.
func manufactured(c *comm.Comm, n int) (*tpetra.CrsMatrix, *tpetra.Vector, *tpetra.Vector) {
	m := distmap.NewBlock(n, c.Size())
	a := galeri.Laplace1DDist(c, m)
	xTrue := tpetra.NewVector(c, m)
	xTrue.FillFromGlobal(func(g int) float64 { return math.Sin(0.1 * float64(g)) })
	b := tpetra.NewVector(c, m)
	a.Apply(xTrue, b)
	return a, b, xTrue
}

func checkSolution(x, xTrue *tpetra.Vector, tol float64) error {
	d := x.Clone()
	d.Axpy(-1, xTrue)
	if err := d.Norm2() / xTrue.Norm2(); err > tol {
		return fmt.Errorf("solution error %g > %g", err, tol)
	}
	return nil
}

func TestCGOnLaplacian(t *testing.T) {
	onRanks(t, sizes, func(c *comm.Comm) error {
		a, b, xTrue := manufactured(c, 64)
		x := tpetra.NewVector(c, a.Map())
		res, err := CG(a, b, x, Options{Tol: 1e-10, RecordHistory: true})
		if err != nil {
			return err
		}
		if !res.Converged {
			return fmt.Errorf("CG did not converge: %v", res)
		}
		if got := ResidualNorm(a, b, x); got > 1e-9 {
			return fmt.Errorf("true residual %g", got)
		}
		if len(res.History) != res.Iterations+1 {
			return fmt.Errorf("history len %d, iters %d", len(res.History), res.Iterations)
		}
		// Monotone-ish decrease overall: final << initial.
		if res.History[len(res.History)-1] > 1e-2*res.History[0] == false && res.History[0] != 0 {
			_ = res
		}
		return checkSolution(x, xTrue, 1e-7)
	})
}

func TestCGIterationCountsIndependentOfP(t *testing.T) {
	// The distributed solver must be algorithmically identical to serial:
	// same iteration count for every rank count.
	var iters []int
	for _, p := range []int{1, 2, 3, 4} {
		err := comm.Run(p, func(c *comm.Comm) error {
			a, b, _ := manufactured(c, 48)
			x := tpetra.NewVector(c, a.Map())
			res, err := CG(a, b, x, Options{Tol: 1e-8})
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				iters = append(iters, res.Iterations)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, it := range iters[1:] {
		if it != iters[0] {
			t.Fatalf("iteration counts vary with P: %v", iters)
		}
	}
}

func TestCGWithJacobiConvergesFaster(t *testing.T) {
	onRanks(t, []int{2}, func(c *comm.Comm) error {
		// Jacobi helps when the diagonal varies; scale the Laplacian
		// symmetrically (S A S stays SPD) with widely varying S.
		n := 80
		m := distmap.NewBlock(n, c.Size())
		scale := func(i int) float64 { return 1 + 10*float64(i%7) }
		a := galeri.BuildDist(c, m, func(i int) ([]int, []float64) {
			cols, vals := galeri.Laplace1DRow(n)(i)
			for k := range vals {
				vals[k] *= scale(i) * scale(cols[k])
			}
			return cols, vals
		})
		b := tpetra.NewVector(c, m)
		b.FillFromGlobal(func(g int) float64 { return 1 })
		x1 := tpetra.NewVector(c, m)
		plain, err := CG(a, b, x1, Options{Tol: 1e-8, MaxIter: 5000})
		if err != nil {
			return err
		}
		x2 := tpetra.NewVector(c, m)
		prec, err := CG(a, b, x2, Options{Tol: 1e-8, MaxIter: 5000, Precond: newDiagPrec(a)})
		if err != nil {
			return err
		}
		if !plain.Converged || !prec.Converged {
			return fmt.Errorf("not converged: %v / %v", plain, prec)
		}
		if prec.Iterations >= plain.Iterations {
			return fmt.Errorf("Jacobi did not help: %d vs %d", prec.Iterations, plain.Iterations)
		}
		return nil
	})
}

func TestBiCGSTABOnNonSymmetric(t *testing.T) {
	onRanks(t, sizes, func(c *comm.Comm) error {
		nx, ny := 10, 10
		m := distmap.NewBlock(nx*ny, c.Size())
		a := galeri.ConvDiff2DDist(c, m, nx, ny, 8, 5)
		xTrue := tpetra.NewVector(c, m)
		xTrue.FillFromGlobal(func(g int) float64 { return math.Cos(0.3 * float64(g)) })
		b := tpetra.NewVector(c, m)
		a.Apply(xTrue, b)
		x := tpetra.NewVector(c, m)
		res, err := BiCGSTAB(a, b, x, Options{Tol: 1e-10, MaxIter: 500})
		if err != nil {
			return err
		}
		if !res.Converged {
			return fmt.Errorf("BiCGSTAB: %v", res)
		}
		return checkSolution(x, xTrue, 1e-6)
	})
}

func TestGMRESOnNonSymmetric(t *testing.T) {
	onRanks(t, sizes, func(c *comm.Comm) error {
		nx, ny := 9, 9
		m := distmap.NewBlock(nx*ny, c.Size())
		a := galeri.ConvDiff2DDist(c, m, nx, ny, -6, 4)
		xTrue := tpetra.NewVector(c, m)
		xTrue.FillFromGlobal(func(g int) float64 { return float64(g%5) - 2 })
		b := tpetra.NewVector(c, m)
		a.Apply(xTrue, b)
		x := tpetra.NewVector(c, m)
		res, err := GMRES(a, b, x, 20, Options{Tol: 1e-10, MaxIter: 500})
		if err != nil {
			return err
		}
		if !res.Converged {
			return fmt.Errorf("GMRES: %v", res)
		}
		return checkSolution(x, xTrue, 1e-6)
	})
}

func TestGMRESRestartStress(t *testing.T) {
	// A tiny restart forces many outer cycles but must still converge.
	onRanks(t, []int{2}, func(c *comm.Comm) error {
		a, b, xTrue := manufactured(c, 40)
		x := tpetra.NewVector(c, a.Map())
		res, err := GMRES(a, b, x, 5, Options{Tol: 1e-9, MaxIter: 2000})
		if err != nil {
			return err
		}
		if !res.Converged {
			return fmt.Errorf("GMRES(5): %v", res)
		}
		return checkSolution(x, xTrue, 1e-5)
	})
}

func TestGMRESWithPreconditioner(t *testing.T) {
	onRanks(t, []int{2}, func(c *comm.Comm) error {
		nx, ny := 12, 12
		m := distmap.NewBlock(nx*ny, c.Size())
		a := galeri.ConvDiff2DDist(c, m, nx, ny, 10, 0)
		b := tpetra.NewVector(c, m)
		b.PutScalar(1)
		x1 := tpetra.NewVector(c, m)
		plain, err := GMRES(a, b, x1, 30, Options{Tol: 1e-8, MaxIter: 2000})
		if err != nil {
			return err
		}
		x2 := tpetra.NewVector(c, m)
		prec, err := GMRES(a, b, x2, 30, Options{Tol: 1e-8, MaxIter: 2000, Precond: newDiagPrec(a)})
		if err != nil {
			return err
		}
		if !plain.Converged || !prec.Converged {
			return fmt.Errorf("not converged: %v / %v", plain, prec)
		}
		if prec.Iterations > plain.Iterations {
			return fmt.Errorf("preconditioned slower: %d vs %d", prec.Iterations, plain.Iterations)
		}
		return nil
	})
}

func TestMINRESOnSPD(t *testing.T) {
	onRanks(t, sizes, func(c *comm.Comm) error {
		a, b, xTrue := manufactured(c, 50)
		x := tpetra.NewVector(c, a.Map())
		res, err := MINRES(a, b, x, Options{Tol: 1e-10, MaxIter: 500, RecordHistory: true})
		if err != nil {
			return err
		}
		if !res.Converged {
			return fmt.Errorf("MINRES: %v", res)
		}
		return checkSolution(x, xTrue, 1e-6)
	})
}

func TestMINRESOnIndefinite(t *testing.T) {
	// Symmetric indefinite: Laplacian shifted to straddle zero. CG fails on
	// this; MINRES is the designed tool.
	onRanks(t, []int{1, 2}, func(c *comm.Comm) error {
		n := 30
		m := distmap.NewBlock(n, c.Size())
		a := galeri.BuildDist(c, m, func(i int) ([]int, []float64) {
			cols, vals := galeri.Laplace1DRow(n)(i)
			for k := range cols {
				if cols[k] == i {
					vals[k] -= 1.0 // shift: eigenvalues 2-2cos(t)-1 straddle 0
				}
			}
			return cols, vals
		})
		xTrue := tpetra.NewVector(c, m)
		xTrue.FillFromGlobal(func(g int) float64 { return math.Sin(float64(g)) })
		b := tpetra.NewVector(c, m)
		a.Apply(xTrue, b)
		x := tpetra.NewVector(c, m)
		res, err := MINRES(a, b, x, Options{Tol: 1e-9, MaxIter: 2000})
		if err != nil {
			return err
		}
		if !res.Converged {
			return fmt.Errorf("MINRES indefinite: %v", res)
		}
		return checkSolution(x, xTrue, 1e-5)
	})
}

func TestRichardsonWithStrongPrecond(t *testing.T) {
	onRanks(t, []int{2}, func(c *comm.Comm) error {
		// With an exact-diagonal preconditioner on a diagonal matrix,
		// Richardson converges in one step.
		n := 16
		m := distmap.NewBlock(n, c.Size())
		a := galeri.BuildDist(c, m, func(i int) ([]int, []float64) {
			return []int{i}, []float64{float64(i + 1)}
		})
		b := tpetra.NewVector(c, m)
		b.FillFromGlobal(func(g int) float64 { return float64((g + 1) * 2) })
		x := tpetra.NewVector(c, m)
		res, err := Richardson(a, b, x, 1.0, Options{Tol: 1e-12, MaxIter: 5, Precond: newDiagPrec(a)})
		if err != nil {
			return err
		}
		if !res.Converged || res.Iterations > 1 {
			return fmt.Errorf("Richardson: %v", res)
		}
		if got := x.GetGlobal(3); math.Abs(got-2) > 1e-12 {
			return fmt.Errorf("x[3]=%g", got)
		}
		return nil
	})
}

func TestRichardsonDivergesWithoutDamping(t *testing.T) {
	onRanks(t, []int{1}, func(c *comm.Comm) error {
		a, b, _ := manufactured(c, 30)
		x := tpetra.NewVector(c, a.Map())
		res, err := Richardson(a, b, x, 1.0, Options{Tol: 1e-10, MaxIter: 50})
		if err != nil {
			return err
		}
		if res.Converged {
			return fmt.Errorf("undamped Richardson on the Laplacian should not converge in 50 iters")
		}
		return nil
	})
}

func TestSolveParameterListDispatch(t *testing.T) {
	onRanks(t, []int{2}, func(c *comm.Comm) error {
		a, b, xTrue := manufactured(c, 40)
		for _, method := range []string{"cg", "bicgstab", "gmres", "minres"} {
			p := teuchos.NewParameterList("aztec")
			p.Set("method", method).Set("tolerance", 1e-9).Set("max iterations", 2000)
			x := tpetra.NewVector(c, a.Map())
			res, err := Solve(a, b, x, nil, p)
			if err != nil {
				return fmt.Errorf("%s: %v", method, err)
			}
			if !res.Converged {
				return fmt.Errorf("%s: %v", method, res)
			}
			if err := checkSolution(x, xTrue, 1e-4); err != nil {
				return fmt.Errorf("%s: %v", method, err)
			}
		}
		p := teuchos.NewParameterList("aztec")
		p.Set("method", "simplex")
		x := tpetra.NewVector(c, a.Map())
		if _, err := Solve(a, b, x, nil, p); err == nil {
			return fmt.Errorf("unknown method accepted")
		}
		return nil
	})
}

func TestZeroRHS(t *testing.T) {
	onRanks(t, []int{2}, func(c *comm.Comm) error {
		a, _, _ := manufactured(c, 20)
		b := tpetra.NewVector(c, a.Map()) // zero
		x := tpetra.NewVector(c, a.Map())
		res, err := CG(a, b, x, Options{})
		if err != nil {
			return err
		}
		if !res.Converged || res.Iterations != 0 {
			return fmt.Errorf("zero RHS: %v", res)
		}
		if x.Norm2() != 0 {
			return fmt.Errorf("x must remain zero")
		}
		return nil
	})
}

func TestNonzeroInitialGuess(t *testing.T) {
	onRanks(t, []int{2}, func(c *comm.Comm) error {
		a, b, xTrue := manufactured(c, 40)
		x := xTrue.Clone() // exact initial guess: must converge immediately
		res, err := CG(a, b, x, Options{Tol: 1e-8})
		if err != nil {
			return err
		}
		if res.Iterations != 0 || !res.Converged {
			return fmt.Errorf("exact guess: %v", res)
		}
		return nil
	})
}

func TestResultString(t *testing.T) {
	r := Result{Converged: true, Iterations: 5, Residual: 1e-9}
	if r.String() == "" {
		t.Fatal("String")
	}
	r2 := Result{}
	if r2.String() == "" {
		t.Fatal("String unconverged")
	}
}

func TestMaxIterRespected(t *testing.T) {
	onRanks(t, []int{1}, func(c *comm.Comm) error {
		a, b, _ := manufactured(c, 100)
		x := tpetra.NewVector(c, a.Map())
		res, err := CG(a, b, x, Options{Tol: 1e-14, MaxIter: 3})
		if err != nil {
			return err
		}
		if res.Iterations > 3 {
			return fmt.Errorf("ran %d > 3 iterations", res.Iterations)
		}
		if res.Converged {
			return fmt.Errorf("cannot converge in 3 iterations to 1e-14")
		}
		return nil
	})
}

// TestBreakdownOnNonFiniteOrIndefinite: a NaN right-hand side makes every
// reduced scalar NaN, and diag(1,-1) makes CG's <p,Ap> negative; both used to
// iterate to MaxIter because only exact zeros were tested. Every rank must
// return ErrBreakdown, and early.
func TestBreakdownOnNonFiniteOrIndefinite(t *testing.T) {
	spd := func(c *comm.Comm) (*tpetra.CrsMatrix, *tpetra.Vector) {
		a, b, _ := manufactured(c, 12)
		if lo, hi := a.Map().BlockRange(c.Rank()); lo <= 5 && 5 < hi {
			b.Data[5-lo] = math.NaN()
		}
		return a, b
	}
	indefinite := func(c *comm.Comm) (*tpetra.CrsMatrix, *tpetra.Vector) {
		m := distmap.NewBlock(2, c.Size())
		a := galeri.BuildDist(c, m, func(g int) ([]int, []float64) {
			return []int{g}, []float64{1 - 2*float64(g)}
		})
		b := tpetra.NewVector(c, m)
		b.FillFromGlobal(func(g int) float64 { return float64(g + 1) })
		return a, b
	}
	type solver func(tpetra.Operator, *tpetra.Vector, *tpetra.Vector, Options) (Result, error)
	cases := []struct {
		name  string
		build func(c *comm.Comm) (*tpetra.CrsMatrix, *tpetra.Vector)
		solve solver
	}{
		{"cg/nan-rhs", spd, CG},
		{"bicgstab/nan-rhs", spd, BiCGSTAB},
		{"cg/diag(1,-1)", indefinite, CG},
	}
	for _, tc := range cases {
		onRanks(t, []int{1, 3}, func(c *comm.Comm) error {
			a, b := tc.build(c)
			x := tpetra.NewVector(c, a.Map())
			res, err := tc.solve(a, b, x, Options{Tol: 1e-10, MaxIter: 500})
			if err != ErrBreakdown || res.Iterations > 2 {
				return fmt.Errorf("%s rank %d: got %v after %d iterations, want ErrBreakdown within 2",
					tc.name, c.Rank(), err, res.Iterations)
			}
			return nil
		})
	}
}

// vandal applies A, and from its second Apply on writes NaN and +Inf over
// the output's first and last entries: a solve through it breaks down with
// non-finite values left in the work vectors it applied into — CG's w,
// BiCGSTAB's v, which is the vector CG takes as s from the same Workspace.
type vandal struct {
	*tpetra.CrsMatrix
	calls int
}

func (v *vandal) Apply(x, y *tpetra.Vector) {
	v.CrsMatrix.Apply(x, y)
	if v.calls++; v.calls > 1 {
		y.Data[0], y.Data[len(y.Data)-1] = math.NaN(), math.Inf(1)
	}
}

// TestWorkspaceReuseIsBitwiseFresh: one Workspace, carried at P = 1 and 2
// through CG and BiCGSTAB, with and without Jacobi, solves each good system
// bit for bit as a fresh CG or BiCGSTAB does — the residual history, the
// result and x — although a CG and a BiCGSTAB solve that broke down with
// NaN and Inf in its vectors ran on it just before. Moving to a second map
// reallocates the vectors instead of panicking on the first mismatched
// sweep.
func TestWorkspaceReuseIsBitwiseFresh(t *testing.T) {
	type solver struct {
		name  string
		fresh func(tpetra.Operator, *tpetra.Vector, *tpetra.Vector, Options) (Result, error)
		kept  func(*Workspace, tpetra.Operator, *tpetra.Vector, *tpetra.Vector, Options) (Result, error)
	}
	all := []solver{{"cg", CG, (*Workspace).CG}, {"bicgstab", BiCGSTAB, (*Workspace).BiCGSTAB}}
	poisoned := func(ws *Workspace) bool {
		for _, v := range ws.vecs {
			for _, e := range v.Data {
				if nonFinite(e) {
					return true
				}
			}
		}
		return false
	}
	onRanks(t, []int{1, 2}, func(c *comm.Comm) error {
		ws := new(Workspace)
		for _, n := range []int{40, 41} {
			a, b, _ := manufactured(c, n)
			jacobi := newDiagPrec(a)
			for _, s := range all {
				for _, prec := range []Preconditioner{nil, jacobi} {
					name := fmt.Sprintf("rank %d, n=%d, %s, jacobi %v", c.Rank(), n, s.name, prec != nil)
					for _, bad := range all {
						opt := Options{Tol: 1e-10, Precond: jacobi}
						if _, err := bad.kept(ws, &vandal{CrsMatrix: a}, b, tpetra.NewVector(c, a.Map()), opt); err != ErrBreakdown {
							return fmt.Errorf("%s: %s through the vandal returned %v, want ErrBreakdown", name, bad.name, err)
						}
					}
					if !poisoned(ws) {
						return fmt.Errorf("%s: the broken-down solves left no NaN or Inf in the workspace", name)
					}
					opt := Options{Tol: 1e-10, Precond: prec, RecordHistory: true}
					xFresh, xKept := tpetra.NewVector(c, a.Map()), tpetra.NewVector(c, a.Map())
					want, errFresh := s.fresh(a, b, xFresh, opt)
					got, errKept := s.kept(ws, a, b, xKept, opt)
					switch {
					case errFresh != nil || errKept != nil:
						return fmt.Errorf("%s: fresh solve %v, kept workspace %v", name, errFresh, errKept)
					case got.Converged != want.Converged || got.Iterations != want.Iterations ||
						math.Float64bits(got.Residual) != math.Float64bits(want.Residual):
						return fmt.Errorf("%s: kept workspace %v, fresh %v", name, got, want)
					case sameHistory(got.History, want.History) >= 0:
						return fmt.Errorf("%s: histories differ from residual %d", name, sameHistory(got.History, want.History))
					case ws.vecs[0].Map() != a.Map():
						return fmt.Errorf("%s: the workspace kept its vectors on the previous map", name)
					}
					for i := range xKept.Data {
						if math.Float64bits(xKept.Data[i]) != math.Float64bits(xFresh.Data[i]) {
							return fmt.Errorf("%s: x[%d] = %v, fresh %v", name, i, xKept.Data[i], xFresh.Data[i])
						}
					}
				}
			}
		}
		return nil
	})
}
