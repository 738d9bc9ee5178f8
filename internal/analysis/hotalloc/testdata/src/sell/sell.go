// Package sell mirrors the SELL-C-sigma SpMV kernels: the slice sweep runs
// as an exec.ParallelFor chunk kernel, so its body must not allocate — the
// per-slice accumulators live in a fixed stack array hoisted into the
// closure, exactly like internal/sparse's real kernels.
package sell

import "exec"

// Matrix is the fake SELL layout.
type Matrix struct {
	SlicePtr []int
	ColIdx   []int32
	Val      []float64
	Perm     []int
}

// MulVecGood sweeps slices with a hoisted accumulator array: fine.
func MulVecGood(e *exec.Engine, m *Matrix, x, y []float64) {
	const c = 8
	e.ParallelFor(len(m.SlicePtr)-1, func(slo, shi int) {
		var acc [c]float64
		for s := slo; s < shi; s++ {
			base := m.SlicePtr[s]
			w := (m.SlicePtr[s+1] - base) / c
			for r := 0; r < c; r++ {
				acc[r] = 0
			}
			for j := 0; j < w; j++ {
				off := base + j*c
				for r := 0; r < c; r++ {
					acc[r] += m.Val[off+r] * x[m.ColIdx[off+r]]
				}
			}
			for r := 0; r < c; r++ {
				y[m.Perm[s*c+r]] = acc[r]
			}
		}
	})
}

// MulVecBad allocates the accumulators per slice inside the kernel.
func MulVecBad(e *exec.Engine, m *Matrix, x, y []float64) {
	const c = 8
	e.ParallelFor(len(m.SlicePtr)-1, func(slo, shi int) {
		for s := slo; s < shi; s++ {
			acc := make([]float64, c) // want `make allocates`
			base := m.SlicePtr[s]
			w := (m.SlicePtr[s+1] - base) / c
			for j := 0; j < w; j++ {
				off := base + j*c
				for r := 0; r < c; r++ {
					acc[r] += m.Val[off+r] * x[m.ColIdx[off+r]]
				}
			}
			for r := 0; r < c; r++ {
				y[m.Perm[s*c+r]] = acc[r]
			}
		}
	})
}

// MulVecTransScratch keeps the transpose path's deliberate per-chunk dense
// accumulator behind the annotation, matching the real kernel.
func MulVecTransScratch(e *exec.Engine, m *Matrix, cols int, x, y []float64) {
	out := exec.ParallelReduce(e, len(m.Perm), func(lo, hi int) []float64 {
		//lint:allow hotalloc One dense accumulator per chunk by design
		acc := make([]float64, cols)
		for i := lo; i < hi; i++ {
			acc[i%cols] += x[i]
		}
		return acc
	}, func(a, b []float64) []float64 {
		for j := range a {
			a[j] += b[j]
		}
		return a
	})
	copy(y, out)
}
