package odinhpc

// Cross-subsystem integration tests: each exercises a workflow the paper
// describes as the point of combining the three projects, crossing at
// least two of the ODIN / Trilinos-analog / Seamless boundaries.

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"odinhpc/internal/bridge"
	"odinhpc/internal/comm"
	"odinhpc/internal/comm/chaostest"
	"odinhpc/internal/comm/stresstest"
	"odinhpc/internal/core"
	"odinhpc/internal/dense"
	"odinhpc/internal/distmap"
	"odinhpc/internal/exec"
	"odinhpc/internal/galeri"
	"odinhpc/internal/iodist"
	"odinhpc/internal/nonlinear"
	"odinhpc/internal/precond"
	"odinhpc/internal/seamless"
	"odinhpc/internal/seamless/export"
	"odinhpc/internal/slicing"
	"odinhpc/internal/solvers"
	"odinhpc/internal/teuchos"
	"odinhpc/internal/tpetra"
	"odinhpc/internal/ufunc"
)

// TestSeamlessKernelAsODINLocalFunction is the paper's §V synthesis:
// "A user can create a function designed to work on array data, compile it
// with Seamless' JIT compiler ..., and use that function as the node-level
// function for a distributed array computation with ODIN."
func TestSeamlessKernelAsODINLocalFunction(t *testing.T) {
	const kernelSrc = `
def smooth(xs):
    out = zeros(len(xs))
    for i in range(len(xs)):
        lo = max(i - 1, 0)
        hi = min(i + 1, len(xs) - 1)
        out[i] = (xs[lo] + xs[i] + xs[hi]) / 3.0
    return out
`
	prog, err := seamless.CompileSource(kernelSrc)
	if err != nil {
		t.Fatal(err)
	}
	smoothFn, err := export.New(prog).SliceToSlice("smooth")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2, 4} {
		err := comm.Run(p, func(c *comm.Comm) error {
			ctx := core.NewContext(c)
			// Register the compiled kernel as the node-level function.
			ctx.RegisterLocal("smooth", func(c *comm.Comm, locals ...*dense.Array[float64]) *dense.Array[float64] {
				out := smoothFn(locals[0].Flatten())
				return dense.FromSlice(out, len(out))
			})
			n := 64
			x := core.FromFunc(ctx, []int{n}, func(g []int) float64 { return float64(g[0] % 4) })
			y, err := ctx.CallLocal("smooth", x)
			if err != nil {
				return err
			}
			// The kernel ran per-rank: totals must match a serial run of
			// the same compiled kernel on the gathered data, segment-wise.
			me := ctx.Rank()
			wantLocal := smoothFn(x.Local().Flatten())
			for l, w := range wantLocal {
				if got := y.Local().At(l); got != w {
					return fmt.Errorf("rank %d: [%d]=%g want %g", me, l, got, w)
				}
			}
			// And the distributed result supports global-mode follow-up.
			if s := ufunc.Sum(y); math.IsNaN(s) {
				return fmt.Errorf("NaN sum")
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

// TestSeamlessModelInNewtonKrylov reproduces §V's "the solver calls back to
// Python to evaluate a model ... Seamless is used to convert this callback
// into a highly efficient numerical kernel": the Newton-Krylov residual is
// a compiled Seamless kernel.
func TestSeamlessModelInNewtonKrylov(t *testing.T) {
	prog, err := seamless.CompileSource(`
def residual(x):
    out = zeros(len(x))
    for i in range(len(x)):
        out[i] = x[i] * x[i] * x[i] + 2.0 * x[i] - 4.0
    return out
`)
	if err != nil {
		t.Fatal(err)
	}
	model, err := export.New(prog).SliceToSlice("residual")
	if err != nil {
		t.Fatal(err)
	}
	err = comm.Run(3, func(c *comm.Comm) error {
		m := distmap.NewBlock(12, c.Size())
		x := tpetra.NewVector(c, m)
		f := func(in, out *tpetra.Vector) {
			copy(out.Data, model(in.Data))
		}
		rep, err := nonlinear.NewtonKrylov(f, x, nonlinear.Options{Tol: 1e-12})
		if err != nil {
			return err
		}
		if !rep.Converged {
			return fmt.Errorf("%v", rep)
		}
		// x^3 + 2x - 4 = 0 has the real root x ~= 1.17950902...
		got := x.GetGlobal(0)
		if math.Abs(got*got*got+2*got-4) > 1e-10 {
			return fmt.Errorf("root %g does not satisfy the equation", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPartitionDrivenODINArrays links a part assignment to ODIN's "apportion
// non-uniform sections of an array to each node" (§III.A): a weighted 1-D
// chain partition becomes the array's distribution map.
func TestPartitionDrivenODINArrays(t *testing.T) {
	err := comm.Run(4, func(c *comm.Comm) error {
		ctx := core.NewContext(c)
		n := 100
		// Element i costs ~i, so balanced partitions are non-uniform.
		weights := make([]float64, n)
		for i := range weights {
			weights[i] = float64(i + 1)
		}
		// Chain partition: element i goes to the part its weight midpoint
		// falls in, at total/P per part.
		parts := make([]int, n)
		whole, acc := float64(n*(n+1)/2), 0.0
		for i, w := range weights {
			parts[i] = min(int((acc+w/2)/whole*float64(c.Size())), c.Size()-1)
			acc += w
		}
		m := distmap.NewArbitrary(parts, c.Size())
		x := core.FromFunc(ctx, []int{n}, func(g []int) float64 { return weights[g[0]] },
			core.Options{Map: m})
		// Weighted balance: each rank's local weight near total/P.
		var local float64
		x.Local().Each(func(v float64) { local += v })
		total := ufunc.Sum(x)
		share := local / total * float64(c.Size())
		if share < 0.7 || share > 1.3 {
			return fmt.Errorf("rank %d weight share %.2f", c.Rank(), share)
		}
		// Later ranks hold fewer (heavier) elements.
		counts := comm.AllgatherFlat(c, []int{x.Local().Size()})
		if counts[0] <= counts[len(counts)-1] {
			return fmt.Errorf("weighted partition not non-uniform: %v", counts)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointThenSolve chains distributed IO into the solver stack:
// write a right-hand side with one rank count, reload under another, solve.
func TestCheckpointThenSolve(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "rhs.odn")
	const n = 24 * 24
	err := comm.Run(3, func(c *comm.Comm) error {
		ctx := core.NewContext(c)
		b := core.FromFunc(ctx, []int{n}, func(g []int) float64 { return 1.0 / float64(n) })
		return iodist.Save(b, path)
	})
	if err != nil {
		t.Fatal(err)
	}
	err = comm.Run(4, func(c *comm.Comm) error {
		ctx := core.NewContext(c)
		m := distmap.NewBlock(n, c.Size())
		b, err := iodist.Load[float64](ctx, path, core.Options{Map: m})
		if err != nil {
			return err
		}
		a := galeri.Laplace2DDist(c, m, 24, 24)
		x := core.Zeros[float64](ctx, []int{n}, core.Options{Map: m})
		prec, err := precond.NewILU0(a)
		if err != nil {
			return err
		}
		params := teuchos.NewParameterList("s")
		params.Set("method", "cg").Set("tolerance", 1e-9)
		res, err := bridge.Solve(a, b, x, prec, params)
		if err != nil {
			return err
		}
		if !res.Converged {
			return fmt.Errorf("%v", res)
		}
		if tr := solvers.ResidualNorm(a, bridge.ToVector(b), bridge.ToVector(x)); tr > 1e-8 {
			return fmt.Errorf("residual %g", tr)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestLargePoissonStress is the biggest problem the suite solves: 128^2
// unknowns at 8 ranks under AMG-preconditioned CG, verified against the
// independently computed residual. The solve itself lives in the stress
// corpus (the "poisson128-amg-cg" kernel in internal/comm/stresstest), so
// the same body also rides the odinstress sweep grid; this test replays it
// as one harness point at its historical geometry, now with seeded
// scheduling pressure on top. Skipped under -short.
func TestLargePoissonStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	k, ok := stresstest.Find("poisson128-amg-cg")
	if !ok {
		t.Fatal("poisson128-amg-cg missing from stress corpus")
	}
	g := chaostest.Grid{Jitter: true, RecvTimeout: 60 * time.Second}
	p := chaostest.Point{
		Kernel: k.Name, Ranks: 8, Procs: runtime.GOMAXPROCS(0),
		Pool: exec.Default().Workers(), Transport: "inproc",
		Plan: chaostest.PlanNone, Seed: 8128,
	}
	if out := chaostest.RunPoint(g, p, k); out.Err != nil {
		t.Fatalf("%s: %v (replay: odinstress -replay %s)", p.Fingerprint(), out.Err, p.Fingerprint())
	}
}

// TestEnsembleSolvesViaSplit runs a parameter sweep the way production
// codes do: the world communicator splits into independent groups, each
// group builds and solves its own problem concurrently, and the results
// come back through the world communicator.
func TestEnsembleSolvesViaSplit(t *testing.T) {
	err := comm.Run(6, func(world *comm.Comm) error {
		groups := 3
		color := world.Rank() % groups
		sub := world.Split(color, world.Rank())
		// Each group solves a differently sized 1-D Poisson problem.
		n := 30 + 20*color
		ctx := core.NewContext(sub)
		m := distmap.NewBlock(n, sub.Size())
		a := galeri.Laplace1DDist(sub, m)
		b := core.Full(ctx, 1.0/float64(n), []int{n}, core.Options{Map: m})
		x := core.Zeros[float64](ctx, []int{n}, core.Options{Map: m})
		params := teuchos.NewParameterList("s")
		params.Set("method", "cg").Set("tolerance", 1e-10)
		res, err := bridge.Solve(a, b, x, nil, params)
		if err != nil {
			return err
		}
		if !res.Converged {
			return fmt.Errorf("group %d: %v", color, res)
		}
		mx := ufunc.Max(x)
		// Collect each group's answer on the world communicator (group
		// leaders report; others send 0 and are ignored).
		report := 0.0
		if sub.Rank() == 0 {
			report = mx
		}
		maxima := comm.AllgatherFlat(world, []float64{report})
		// Larger n -> larger peak of the discrete Green's function.
		var groupMax [3]float64
		for r, v := range maxima {
			if v != 0 {
				groupMax[r%groups] = v
			}
		}
		if !(groupMax[0] < groupMax[1] && groupMax[1] < groupMax[2]) {
			return fmt.Errorf("ensemble maxima not ordered: %v", groupMax)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFiniteDifferenceMatchesSolverDerivative ties slicing to the solver
// world: d2/dx2 via two nested Diffs equals the 1-D Laplacian applied
// through tpetra, up to sign and boundary rows.
func TestFiniteDifferenceMatchesSolverDerivative(t *testing.T) {
	err := comm.Run(4, func(c *comm.Comm) error {
		ctx := core.NewContext(c)
		n := 200
		m := distmap.NewBlock(n, c.Size())
		u := core.FromFunc(ctx, []int{n}, func(g []int) float64 {
			x := float64(g[0]) / float64(n-1)
			return x * x * x
		}, core.Options{Map: m})
		// ODIN side: second difference u[i+1]-2u[i]+u[i-1] via Diff twice.
		d2 := slicing.Diff(slicing.Diff(u))
		// Solver side: -(Laplacian u) has the same interior values.
		a := galeri.Laplace1DDist(c, m)
		au := tpetra.NewVector(c, m)
		a.Apply(bridge.ToVector(u), au)
		auArr := bridge.FromVector(ctx, au)
		for g := 1; g < n-1; g++ {
			odin := d2.At(g - 1) // d2 index shifts by one
			tpet := -auArr.At(g)
			if math.Abs(odin-tpet) > 1e-12 {
				return fmt.Errorf("g=%d: odin %g vs tpetra %g", g, odin, tpet)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
