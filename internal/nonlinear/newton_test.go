package nonlinear

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"odinhpc/internal/comm"
	"odinhpc/internal/distmap"
	"odinhpc/internal/tpetra"
)

// bratu1D builds the residual of the 1-D Bratu problem
// -u” = lambda e^u on (0,1), u(0)=u(1)=0, discretized on n interior points:
// F_i(u) = (2 u_i - u_{i-1} - u_{i+1}) - lambda h^2 e^{u_i}.
// The halo values are fetched with a GatherPlan, exercising the distributed
// residual-callback workflow of paper §V.
func bratu1D(c *comm.Comm, m *distmap.Map, lambda float64) Residual {
	n := m.NumGlobal()
	h := 1.0 / float64(n+1)
	me := c.Rank()
	// Each rank needs its neighbors' boundary values.
	var needed []int
	for l := 0; l < m.LocalCount(me); l++ {
		g := m.LocalToGlobal(me, l)
		if g > 0 && m.Owner(g-1) != me {
			needed = append(needed, g-1)
		}
		if g < n-1 && m.Owner(g+1) != me {
			needed = append(needed, g+1)
		}
	}
	plan := tpetra.NewGatherPlan(c, m, needed)
	ghostPos := make(map[int]int, len(needed))
	for k, g := range needed {
		ghostPos[g] = k
	}
	ghosts := make([]float64, len(needed))
	return func(x, f *tpetra.Vector) {
		plan.Gather(c, x.Data, ghosts)
		at := func(g int) float64 {
			if g < 0 || g >= n {
				return 0 // Dirichlet boundary
			}
			if r, l := m.GlobalToLocal(g); r == me {
				return x.Data[l]
			}
			return ghosts[ghostPos[g]]
		}
		for l := range f.Data {
			g := m.LocalToGlobal(me, l)
			u := x.Data[l]
			f.Data[l] = 2*u - at(g-1) - at(g+1) - lambda*h*h*math.Exp(u)
		}
	}
}

func TestNewtonKrylovBratu(t *testing.T) {
	for _, p := range []int{1, 2, 4} {
		err := comm.Run(p, func(c *comm.Comm) error {
			n := 63
			m := distmap.NewBlock(n, c.Size())
			f := bratu1D(c, m, 1.0)
			x := tpetra.NewVector(c, m)
			rep, err := NewtonKrylov(f, x, Options{Tol: 1e-10})
			if err != nil {
				return err
			}
			if !rep.Converged {
				return fmt.Errorf("%v", rep)
			}
			if rep.Iterations > 10 {
				return fmt.Errorf("Newton took %d steps — not quadratic", rep.Iterations)
			}
			// Verify the residual directly.
			chk := tpetra.NewVector(c, m)
			f(x, chk)
			if chk.Norm2() > 1e-9 {
				return fmt.Errorf("residual check %g", chk.Norm2())
			}
			// Solution is positive and symmetric-ish with max in the middle.
			if slices.Min(x.GatherAll()) < 0 {
				return fmt.Errorf("negative solution")
			}
			mid := x.GetGlobal(n / 2)
			edge := x.GetGlobal(0)
			if mid <= edge {
				return fmt.Errorf("solution not peaked: mid=%g edge=%g", mid, edge)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestNewtonQuadraticConvergence(t *testing.T) {
	// Simple decoupled quadratic: F_i(x) = x_i^2 - a_i. History must show
	// superlinear decrease near the root.
	err := comm.Run(2, func(c *comm.Comm) error {
		m := distmap.NewBlock(10, c.Size())
		target := func(g int) float64 { return float64(g + 1) }
		f := func(x, out *tpetra.Vector) {
			me := x.Comm().Rank()
			for l := range out.Data {
				g := x.Map().LocalToGlobal(me, l)
				out.Data[l] = x.Data[l]*x.Data[l] - target(g)
			}
		}
		x := tpetra.NewVector(c, m)
		x.PutScalar(3) // positive start -> converges to +sqrt
		rep, err := NewtonKrylov(f, x, Options{Tol: 1e-12, LinearTol: 1e-10})
		if err != nil {
			return err
		}
		if !rep.Converged {
			return fmt.Errorf("%v", rep)
		}
		for g := 0; g < 10; g++ {
			want := math.Sqrt(float64(g + 1))
			if got := x.GetGlobal(g); math.Abs(got-want) > 1e-8 {
				return fmt.Errorf("x[%d]=%g want %g", g, got, want)
			}
		}
		// Superlinear tail: last step reduces the norm by > 100x.
		h := rep.History
		if len(h) >= 2 {
			last, prev := h[len(h)-1], h[len(h)-2]
			if prev > 0 && last > prev/10 && last > 1e-12 {
				return fmt.Errorf("tail not superlinear: %v", h)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLineSearchEngages(t *testing.T) {
	// A residual with strong curvature forces backtracking from far-away
	// starts but must still converge.
	err := comm.Run(1, func(c *comm.Comm) error {
		m := distmap.NewBlock(4, 1)
		f := func(x, out *tpetra.Vector) {
			for l := range out.Data {
				out.Data[l] = math.Atan(x.Data[l]) // root at 0; Newton overshoots from |x|>~1.39
			}
		}
		x := tpetra.NewVector(c, m)
		x.PutScalar(3)
		rep, err := NewtonKrylov(f, x, Options{Tol: 1e-10, MaxNewton: 100})
		if err != nil {
			return err
		}
		if !rep.Converged {
			return fmt.Errorf("%v", rep)
		}
		if rep.Backtracks == 0 {
			return fmt.Errorf("expected backtracking from x0=3 on atan")
		}
		if math.Abs(x.GetGlobal(0)) > 1e-8 {
			return fmt.Errorf("x=%g", x.GetGlobal(0))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAlreadyConverged(t *testing.T) {
	err := comm.Run(2, func(c *comm.Comm) error {
		m := distmap.NewBlock(6, c.Size())
		f := func(x, out *tpetra.Vector) {
			for l := range out.Data {
				out.Data[l] = x.Data[l]
			}
		}
		x := tpetra.NewVector(c, m) // zero is the root
		rep, err := NewtonKrylov(f, x, Options{})
		if err != nil {
			return err
		}
		if !rep.Converged || rep.Iterations != 0 {
			return fmt.Errorf("%v", rep)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReportString(t *testing.T) {
	r := Report{Converged: true, Iterations: 4, FinalNorm: 1e-12}
	if r.String() == "" {
		t.Fatal("String")
	}
	r2 := Report{}
	if r2.String() == "" {
		t.Fatal("String unconverged")
	}
}
