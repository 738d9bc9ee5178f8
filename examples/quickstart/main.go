// Quickstart tours the framework's public API in a few lines: create
// distributed arrays in global mode, apply ufuncs, reduce, scan, slice, and
// hand an array to a Trilinos-analog solver — the workflow of the paper's
// abstract, end to end. Each ufunc and reduction beyond the first few is
// checked against a closed form, and a failed check exits 1.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"

	"odinhpc/internal/bridge"
	"odinhpc/internal/comm"
	"odinhpc/internal/core"
	"odinhpc/internal/distmap"
	"odinhpc/internal/galeri"
	"odinhpc/internal/slicing"
	"odinhpc/internal/teuchos"
	"odinhpc/internal/ufunc"
)

func main() {
	ranks := flag.Int("ranks", 4, "number of simulated MPI ranks")
	n := flag.Int("n", 1000, "global array length")
	flag.Parse()

	err := comm.Run(*ranks, func(c *comm.Comm) error {
		ctx := core.NewContext(c)

		// Global mode: arrays feel like NumPy even though every rank only
		// holds a slice of them.
		x := core.Linspace[float64](ctx, 0, 1, *n)
		y := core.Random(ctx, []int{*n}, 42)
		z := ufunc.Add(ufunc.Sqrt(x), y)

		total := ufunc.Sum(z)
		mean := ufunc.Mean(z)
		dz := slicing.Diff(z)

		// The rest of the NumPy surface, each result checked against a
		// closed form. r = arange(n) holds small integers, so every sum and
		// product below is exact whatever order the ranks reduce in.
		r := core.Arange[float64](ctx, *n)
		r1 := ufunc.Scalar(r, 1, func(v, s float64) float64 { return v + s })
		ten := ufunc.Scalar(core.Arange[int64](ctx, 10), 1, func(v, s int64) int64 { return v + s })
		grid := core.FromFunc(ctx, []int{*n, 3}, func(g []int) float64 { return float64(3*g[0] + g[1]) })
		last, gridSum := float64(*n)*float64(*n-1)/2, float64(3**n)*float64(3**n-1)/2
		checks := []struct {
			what string
			ok   bool
		}{
			{"dot(r, r) == sum(r*r)", ufunc.Dot(r, r) == ufunc.Sum(ufunc.Mul(r, r))},
			{"norm2(r)^2 ~ dot(r, r)", math.Abs(math.Pow(ufunc.Norm2(r), 2)-ufunc.Dot(r, r)) <= 1e-9*ufunc.Dot(r, r)},
			{"max(cumsum(r)) == n(n-1)/2", ufunc.Max(ufunc.CumSum(r)) == last},
			{"min((r+1)/(r+1)) == 1", ufunc.Min(ufunc.Div(r1, r1)) == 1},
			{"prod(arange(1, 11)) == 10!", ufunc.Prod(ten) == 3628800},
			{"count(|cos(z)| <= 1) == n", ufunc.Count(ufunc.Abs(ufunc.Cos(z)), func(v float64) bool { return v <= 1 }) == *n},
			{"min(exp(-z)) > 0", ufunc.Min(ufunc.Exp(ufunc.Scalar(z, -1, func(v, s float64) float64 { return v * s }))) > 0},
			{"sum(sum(grid, axis=0)) == 3n(3n-1)/2", ufunc.Sum(ufunc.SumAxis(grid, 0)) == gridSum},
			{"sum(sum(grid, axis=1)) == 3n(3n-1)/2", ufunc.Sum(ufunc.SumAxis(grid, 1)) == gridSum},
		}

		// Hand off to the solver stack: 1-D Poisson with the Laplacian.
		m := distmap.NewBlock(*n, c.Size())
		a := galeri.Laplace1DDist(c, m)
		b := core.Full(ctx, 1.0/float64(*n), []int{*n}, core.Options{Map: m})
		sol := core.Zeros[float64](ctx, []int{*n}, core.Options{Map: m})
		params := teuchos.NewParameterList("solver")
		params.Set("method", "cg").Set("tolerance", 1e-8)
		res, err := bridge.Solve(a, b, sol, nil, params)
		if err != nil {
			return err
		}

		// Reductions are collective: every rank participates, rank 0 prints.
		maxSol := ufunc.Max(sol)
		if c.Rank() == 0 {
			fmt.Printf("ranks           : %d\n", c.Size())
			fmt.Printf("sum(z)          : %.6f\n", total)
			fmt.Printf("mean(z)         : %.6f\n", mean)
			fmt.Printf("len(diff(z))    : %d\n", dz.GlobalSize())
			fmt.Printf("CG solve        : %v\n", res)
			fmt.Printf("max(solution)   : %.6e\n", maxSol)
			for _, ch := range checks {
				fmt.Printf("%-40s: %v\n", ch.what, ch.ok)
			}
		}
		for _, ch := range checks {
			if !ch.ok {
				return fmt.Errorf("check failed: %s", ch.what)
			}
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
}
