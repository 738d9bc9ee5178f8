package precond

import (
	"fmt"
	"math"
	"testing"

	"odinhpc/internal/comm"
	"odinhpc/internal/dense"
	"odinhpc/internal/distmap"
	"odinhpc/internal/galeri"
	"odinhpc/internal/solvers"
	"odinhpc/internal/tpetra"
)

func onRanks(t *testing.T, ps []int, fn func(c *comm.Comm) error) {
	t.Helper()
	for _, p := range ps {
		if err := comm.Run(p, fn); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

// poisson2D builds the standard test problem on the block map.
func poisson2D(c *comm.Comm, nx int) (*tpetra.CrsMatrix, *tpetra.Vector) {
	m := distmap.NewBlock(nx*nx, c.Size())
	a := galeri.Laplace2DDist(c, m, nx, nx)
	b := tpetra.NewVector(c, m)
	h := 1.0 / float64(nx+1)
	b.PutScalar(h * h) // a uniform unit source, scaled by h^2
	return a, b
}

// cgIters solves the Poisson problem with the given preconditioner and
// returns the iteration count, failing on non-convergence.
func cgIters(a *tpetra.CrsMatrix, b *tpetra.Vector, p solvers.Preconditioner) (int, error) {
	x := tpetra.NewVector(b.Comm(), a.Map())
	res, err := solvers.CG(a, b, x, solvers.Options{Tol: 1e-8, MaxIter: 5000, Precond: p})
	if err != nil {
		return 0, err
	}
	if !res.Converged {
		return 0, fmt.Errorf("not converged: %v", res)
	}
	if tr := solvers.ResidualNorm(a, b, x); tr > 1e-7 {
		return 0, fmt.Errorf("true residual %g", tr)
	}
	return res.Iterations, nil
}

func TestJacobiEqualsDiagonalScaling(t *testing.T) {
	onRanks(t, []int{1, 3}, func(c *comm.Comm) error {
		n := 12
		m := distmap.NewBlock(n, c.Size())
		a := galeri.BuildDist(c, m, func(i int) ([]int, []float64) {
			return []int{i}, []float64{float64(i + 1)}
		})
		j, err := NewJacobi(a)
		if err != nil {
			return err
		}
		r := tpetra.NewVector(c, m)
		r.FillFromGlobal(func(g int) float64 { return float64(g + 1) })
		z := tpetra.NewVector(c, m)
		j.ApplyInverse(r, z)
		for l := range z.Data {
			if math.Abs(z.Data[l]-1) > 1e-15 {
				return fmt.Errorf("z=%v", z.Data)
			}
		}
		return nil
	})
}

func TestJacobiRejectsZeroDiagonal(t *testing.T) {
	onRanks(t, []int{1}, func(c *comm.Comm) error {
		m := distmap.NewBlock(2, 1)
		a := tpetra.NewCrsMatrix(c, m)
		a.InsertGlobal(0, 1, 1)
		a.InsertGlobal(1, 0, 1)
		a.FillComplete()
		if _, err := NewJacobi(a); err == nil {
			return fmt.Errorf("zero diagonal accepted")
		}
		return nil
	})
}

// TestPreconditionerHierarchy is the E-A2 ablation: on the 2-D Poisson
// problem, the iteration ordering must be
// none >= Jacobi >= SSOR and ILU0 and BlockJacobi and AMG.
func TestPreconditionerHierarchy(t *testing.T) {
	onRanks(t, []int{1, 4}, func(c *comm.Comm) error {
		a, b := poisson2D(c, 24)
		iters := map[string]int{}
		var err error
		if iters["none"], err = cgIters(a, b, nil); err != nil {
			return fmt.Errorf("none: %v", err)
		}
		jac, err := NewJacobi(a)
		if err != nil {
			return err
		}
		if iters["jacobi"], err = cgIters(a, b, jac); err != nil {
			return fmt.Errorf("jacobi: %v", err)
		}
		ssor, err := NewSSOR(a, 1.2, 1)
		if err != nil {
			return err
		}
		if iters["ssor"], err = cgIters(a, b, ssor); err != nil {
			return fmt.Errorf("ssor: %v", err)
		}
		ilu, err := NewILU0(a)
		if err != nil {
			return err
		}
		if iters["ilu0"], err = cgIters(a, b, ilu); err != nil {
			return fmt.Errorf("ilu0: %v", err)
		}
		bj, err := NewBlockJacobi(a)
		if err != nil {
			return err
		}
		if iters["blockjacobi"], err = cgIters(a, b, bj); err != nil {
			return fmt.Errorf("blockjacobi: %v", err)
		}
		amg, err := NewAMG(a, AMGOptions{})
		if err != nil {
			return err
		}
		if iters["amg"], err = cgIters(a, b, amg); err != nil {
			return fmt.Errorf("amg: %v", err)
		}
		// For the constant-diagonal Laplacian Jacobi is a pure scaling, so
		// allow equality; the stronger preconditioners must strictly win.
		if iters["jacobi"] > iters["none"]+1 {
			return fmt.Errorf("jacobi slower than none: %v", iters)
		}
		for _, strong := range []string{"ssor", "ilu0", "blockjacobi", "amg"} {
			if iters[strong] >= iters["none"] {
				return fmt.Errorf("%s (%d) not faster than unpreconditioned (%d): %v", strong, iters[strong], iters["none"], iters)
			}
		}
		return nil
	})
}

func TestSSORValidation(t *testing.T) {
	onRanks(t, []int{1}, func(c *comm.Comm) error {
		a, _ := poisson2D(c, 4)
		if _, err := NewSSOR(a, 2.5, 1); err == nil {
			return fmt.Errorf("omega=2.5 accepted")
		}
		if _, err := NewSSOR(a, 1.0, 0); err == nil {
			return fmt.Errorf("sweeps=0 accepted")
		}
		return nil
	})
}

// vcycles runs the AMG as a standalone solver: V-cycles on the residual
// equation until the relative residual drops below tol or maxCycles is
// reached. It returns the cycle count and the final relative residual.
func vcycles(m *AMG, b, x []float64, tol float64, maxCycles int) (int, float64) {
	nrm2 := func(v []float64) float64 { return math.Sqrt(dense.DotSlices(v, v)) }
	r, z := make([]float64, len(b)), make([]float64, len(b))
	bn := nrm2(b)
	if bn == 0 {
		bn = 1
	}
	for cycle := 0; ; cycle++ {
		m.levels[0].aop.MulVec(x, r)
		for i := range r {
			r[i] = b[i] - r[i]
		}
		if rel := nrm2(r) / bn; rel <= tol || cycle == maxCycles {
			return cycle, rel
		}
		m.LocalSolve(r, z)
		for i := range x {
			x[i] += z[i]
		}
	}
}

func TestSerialAMGStandaloneSolve(t *testing.T) {
	// As a standalone solver the V-cycle must reach 1e-8 in few cycles on
	// the model problem and be h-independent-ish across sizes.
	for _, nx := range []int{16, 32} {
		a := galeri.Laplace2D(nx, nx)
		amg, err := NewSerialAMG(a, AMGOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if amg.NumLevels() < 2 {
			t.Fatalf("nx=%d: only %d levels", nx, amg.NumLevels())
		}
		// Operator complexity: nnz over all levels per fine-level nnz.
		fine, total := amg.levels[0].a.NNZ(), 0
		for _, l := range amg.levels {
			total += l.a.NNZ()
		}
		if oc := float64(total) / float64(fine); oc > 3 {
			t.Fatalf("operator complexity %g too high", oc)
		}
		n := nx * nx
		b := make([]float64, n)
		for i := range b {
			b[i] = 1
		}
		x := make([]float64, n)
		cycles, rel := vcycles(amg, b, x, 1e-8, 60)
		if rel > 1e-8 {
			t.Fatalf("nx=%d: V-cycles stalled at %g after %d cycles", nx, rel, cycles)
		}
		if cycles > 40 {
			t.Fatalf("nx=%d: %d cycles — not multigrid-like", nx, cycles)
		}
	}
}

func TestAMGGridIndependence(t *testing.T) {
	// Cycle counts must grow at most mildly as h decreases (the multigrid
	// selling point vs. plain iterative methods).
	counts := map[int]int{}
	for _, nx := range []int{8, 16, 32} {
		a := galeri.Laplace2D(nx, nx)
		amg, err := NewSerialAMG(a, AMGOptions{})
		if err != nil {
			t.Fatal(err)
		}
		b := make([]float64, nx*nx)
		for i := range b {
			b[i] = float64(i % 5)
		}
		x := make([]float64, nx*nx)
		cycles, rel := vcycles(amg, b, x, 1e-8, 100)
		if rel > 1e-8 {
			t.Fatalf("nx=%d stalled at %g", nx, rel)
		}
		counts[nx] = cycles
	}
	if counts[32] > 3*counts[8]+5 {
		t.Fatalf("cycle growth not grid-independent: %v", counts)
	}
}

func TestAMGCoarseOnlyFallsBackToDirect(t *testing.T) {
	// A matrix smaller than CoarseSize is solved directly in one cycle.
	a := galeri.Laplace1D(8)
	amg, err := NewSerialAMG(a, AMGOptions{CoarseSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	if amg.NumLevels() != 1 {
		t.Fatalf("levels=%d", amg.NumLevels())
	}
	b := []float64{1, 0, 0, 0, 0, 0, 0, 1}
	x := make([]float64, 8)
	cycles, rel := vcycles(amg, b, x, 1e-12, 3)
	if rel > 1e-12 || cycles > 1 {
		t.Fatalf("direct coarse solve: cycles=%d rel=%g", cycles, rel)
	}
}

func TestAdditiveSchwarzSizeGuard(t *testing.T) {
	onRanks(t, []int{2}, func(c *comm.Comm) error {
		a, _ := poisson2D(c, 6)
		ilu, err := NewILU0(a)
		if err != nil {
			return err
		}
		wrong := tpetra.NewVector(c, distmap.NewBlock(5, c.Size()))
		defer func() { recover() }()
		ilu.ApplyInverse(wrong, wrong)
		return fmt.Errorf("expected panic")
	})
}
