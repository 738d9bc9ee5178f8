// Package a exercises hotalloc on chunk kernels: builtin allocation, fmt
// calls, and interface boxing are flagged; hoisted allocation, index-only
// kernels, non-boxing generics, and //lint:allow scratch stay quiet.
package a

import (
	"fmt"

	"exec"
)

// sink takes an interface argument, forcing a box at the call site.
func sink(v any) {}

func kernels(e *exec.Engine, out []float64) {
	e.ParallelFor(len(out), func(lo, hi int) {
		buf := make([]float64, hi-lo) // want `make allocates`
		_ = buf
	})

	e.ParallelFor(len(out), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = float64(i) // index-only kernel: fine
		}
	})

	scratch := make([]float64, len(out)) // hoisted out of the kernel: fine
	_ = scratch

	var logs []string
	e.ParallelFor(len(out), func(lo, hi int) {
		logs = append(logs, fmt.Sprintf("[%d,%d)", lo, hi)) // want `append allocates` `fmt.Sprintf call`
	})

	total := exec.ParallelReduce(e, len(out), func(lo, hi int) float64 {
		s := 0.0
		for i := lo; i < hi; i++ {
			s += out[i] // generic fold, no boxing: fine
		}
		return s
	}, func(a, b float64) float64 { return a + b })
	_ = total

	e.ParallelFor(len(out), func(lo, hi int) {
		sink(lo) // want `boxes int into`
	})

	e.ParallelFor(len(out), func(lo, hi int) {
		//lint:allow hotalloc per-chunk scratch, amortized over the chunk
		acc := make([]float64, 8)
		_ = acc
	})
}

// vecArgs is a range function's operand set.
type vecArgs struct{ x, y []float64 }

// The range functions handed to ForRange/ReduceRange by name are kernels as
// much as a literal is: their bodies are checked where they are declared.
func cleanRange(a vecArgs, lo, hi int) {
	for i := lo; i < hi; i++ {
		a.y[i] += a.x[i] // index-only: fine
	}
}

func leakyRange(a vecArgs, lo, hi int) {
	tmp := make([]float64, hi-lo) // want `make allocates in exec.ForRange kernel leakyRange`
	copy(a.y[lo:hi], tmp)
}

func dotRange(a vecArgs, lo, hi int) float64 {
	sink(hi) // want `boxes int into`
	return a.x[lo] * a.y[lo]
}

func add(a, b float64) float64 { return a + b }

func rangeKernels(e *exec.Engine, x, y []float64) float64 {
	exec.ForRange(e, len(x), vecArgs{x, y}, cleanRange)
	exec.ForRange(e, len(x), vecArgs{x, y}, leakyRange)
	return exec.ReduceRange(e, len(x), vecArgs{x, y}, dotRange, add)
}
