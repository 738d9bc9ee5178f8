// Jitstencil is the paper's §V synthesis in one program: a numerical kernel
// is written in the Seamless language, compiled ("the time comes to solve
// one or more large problems, Seamless is used to convert this callback
// into a highly efficient numerical kernel"), registered as an ODIN
// node-level function, and applied to a distributed array — with the
// interpreted engine timed against the compiled one on identical inputs.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"odinhpc/internal/comm"
	"odinhpc/internal/core"
	"odinhpc/internal/dense"
	"odinhpc/internal/seamless"
	"odinhpc/internal/seamless/export"
	"odinhpc/internal/seamless/vm"
	"odinhpc/internal/ufunc"
)

const kernelSrc = `
# A 3-point smoothing stencil written in the Seamless language.
def smooth(xs):
    out = zeros(len(xs))
    for i in range(len(xs)):
        lo = max(i - 1, 0)
        hi = min(i + 1, len(xs) - 1)
        out[i] = 0.25 * xs[lo] + 0.5 * xs[i] + 0.25 * xs[hi]
    return out
`

func main() {
	ranks := flag.Int("ranks", 4, "number of simulated MPI ranks")
	n := flag.Int("n", 400_000, "global array length")
	sweeps := flag.Int("sweeps", 3, "smoothing sweeps")
	flag.Parse()

	// Compile once, outside the parallel region (the paper's prototype ->
	// deploy workflow: the kernel is debugged serially first).
	progC, err := seamless.CompileSource(kernelSrc)
	if err != nil {
		log.Fatal(err)
	}
	smoothCompiled, err := export.New(progC).SliceToSlice("smooth")
	if err != nil {
		log.Fatal(err)
	}
	progV, _ := seamless.CompileSource(kernelSrc)
	interp := vm.NewEngine(progV)
	smoothInterp := func(xs []float64) []float64 {
		out, err := interp.Call("smooth", seamless.ArrFV(xs))
		if err != nil {
			panic(err)
		}
		return out.AF
	}

	err = comm.Run(*ranks, func(c *comm.Comm) error {
		ctx := core.NewContext(c)
		register := func(name string, f func([]float64) []float64) {
			ctx.RegisterLocal(name, func(c *comm.Comm, locals ...*dense.Array[float64]) *dense.Array[float64] {
				out := f(locals[0].Flatten())
				return dense.FromSlice(out, len(out))
			})
		}
		register("smooth-compiled", smoothCompiled)
		register("smooth-interp", smoothInterp)

		x := core.Random(ctx, []int{*n}, 7)

		run := func(name string) (time.Duration, *core.DistArray[float64], error) {
			y := x
			c.Barrier()
			start := time.Now()
			for s := 0; s < *sweeps; s++ {
				var err error
				y, err = ctx.CallLocal(name, y)
				if err != nil {
					return 0, nil, err
				}
			}
			c.Barrier()
			return time.Since(start), y, nil
		}
		dInterp, yi, err := run("smooth-interp")
		if err != nil {
			return err
		}
		dCompiled, yc, err := run("smooth-compiled")
		if err != nil {
			return err
		}
		if !ufunc.AllClose(yi, yc, 1e-14, 1e-14) {
			return fmt.Errorf("engines disagree")
		}
		mean := ufunc.Mean(yc)
		if c.Rank() == 0 {
			fmt.Printf("n=%d ranks=%d sweeps=%d\n", *n, c.Size(), *sweeps)
			fmt.Printf("node-level kernel, interpreted : %v\n", dInterp)
			fmt.Printf("node-level kernel, compiled    : %v\n", dCompiled)
			fmt.Printf("speedup                        : %.1fx\n", float64(dInterp)/float64(dCompiled))
			fmt.Printf("mean after smoothing           : %.6f (expect ~0.5)\n", mean)
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
}
