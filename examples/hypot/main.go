// Hypot is the paper's §III.C local-function example: a function is
// registered once (the @odin.local decorator), broadcast to the workers,
// and then called from the global level against the local segments of two
// distributed arrays. The same computation is repeated in pure global mode
// and with fused expressions — built-in operators, and the function's own
// body as user-supplied nodes — and all four answers are compared.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"

	"odinhpc/internal/comm"
	"odinhpc/internal/core"
	"odinhpc/internal/dense"
	"odinhpc/internal/fusion"
	"odinhpc/internal/ufunc"
)

func main() {
	ranks := flag.Int("ranks", 4, "number of simulated MPI ranks")
	n := flag.Int("n", 100_000, "elements per array")
	flag.Parse()

	err := comm.Run(*ranks, func(c *comm.Comm) error {
		ctx := core.NewContext(c)

		// @odin.local
		// def hypot(x, y): return odin.sqrt(x**2 + y**2)
		ctx.RegisterLocal("hypot", func(c *comm.Comm, locals ...*dense.Array[float64]) *dense.Array[float64] {
			x, y := locals[0], locals[1]
			return dense.Binary(x, y, math.Hypot)
		})

		x := core.Random(ctx, []int{*n}, 1)
		y := core.Random(ctx, []int{*n}, 2)

		// 1. Local mode: the registered worker function.
		hLocal, err := ctx.CallLocal("hypot", x, y)
		if err != nil {
			return err
		}
		// 2. Global mode: "the computation could be performed at the global
		//    level with the arrays x and y" (paper, same section).
		hGlobal := ufunc.Hypot(x, y)
		// 3. Fused expression mode: the expression DAG is compiled to a
		// register program and run block-by-block.
		plan := fusion.Analyze(fusion.Sqrt(fusion.Var(x).Square().Add(fusion.Var(y).Square())))
		if c.Rank() == 0 {
			fmt.Print(plan.ProgramString())
		}
		hFused := plan.Execute()
		// 4. The local function's own body inside a fused expression: user
		//    functions become opaque nodes the VM calls element by element.
		sumSq := fusion.Binary("sumsq", func(a, b float64) float64 { return a*a + b*b }, fusion.Var(x), fusion.Var(y))
		hUser := fusion.Analyze(fusion.Unary("sqrt", math.Sqrt, sumSq)).Execute()

		okLG := ufunc.AllClose(hLocal, hGlobal, 1e-14, 1e-14)
		okLF := ufunc.AllClose(hLocal, hFused, 1e-14, 1e-14)
		okLU := ufunc.AllClose(hLocal, hUser, 1e-14, 1e-14)
		sum := ufunc.Sum(hLocal)
		if c.Rank() == 0 {
			fmt.Printf("n=%d on %d ranks\n", *n, c.Size())
			fmt.Printf("local == global : %v\n", okLG)
			fmt.Printf("local == fused  : %v\n", okLF)
			fmt.Printf("local == user   : %v\n", okLU)
			fmt.Printf("sum(hypot)      : %.6f\n", sum)
		}
		if !okLG || !okLF || !okLU {
			return fmt.Errorf("modes disagree")
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
}
