package tpetra

import (
	"fmt"
	"testing"

	"odinhpc/internal/comm"
	"odinhpc/internal/distmap"
)

// BenchmarkDistributedSpMV measures the full Apply path (ghost exchange +
// local SpMV) on the 1-D Laplacian across rank counts.
func BenchmarkDistributedSpMV(b *testing.B) {
	const n = 1 << 16
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			err := comm.Run(p, func(c *comm.Comm) error {
				m := distmap.NewBlock(n, c.Size())
				a := buildLaplace1D(c, m)
				x := NewVector(c, m)
				x.Randomize(1)
				y := NewVector(c, m)
				c.Barrier()
				for i := 0; i < b.N; i++ {
					a.Apply(x, y)
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkGatherPlan separates plan construction (one alltoall of index
// lists) from plan execution (one alltoall of values).
func BenchmarkGatherPlan(b *testing.B) {
	const n = 1 << 14
	const p = 4
	b.Run("build", func(b *testing.B) {
		b.ReportAllocs()
		err := comm.Run(p, func(c *comm.Comm) error {
			m := distmap.NewBlock(n, c.Size())
			needed := []int{0, n / 3, n / 2, n - 1}
			for i := 0; i < b.N; i++ {
				_ = NewGatherPlan(c, m, needed)
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	})
	// ReportAllocs pins the pooled pack scratch: steady-state applies reuse
	// per-call buffers from the plan's pool instead of allocating fresh ones
	// per Gather (see also TestGatherSteadyStateAllocs).
	b.Run("apply", func(b *testing.B) {
		b.ReportAllocs()
		err := comm.Run(p, func(c *comm.Comm) error {
			m := distmap.NewBlock(n, c.Size())
			needed := []int{0, n / 3, n / 2, n - 1}
			plan := NewGatherPlan(c, m, needed)
			local := make([]float64, m.LocalCount(c.Rank()))
			out := make([]float64, len(needed))
			for i := 0; i < b.N; i++ {
				plan.Gather(c, local, out)
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkVectorDot measures the collective inner product (local dot +
// Allreduce) across rank counts.
func BenchmarkVectorDot(b *testing.B) {
	const n = 1 << 16
	for _, p := range []int{1, 4} {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			err := comm.Run(p, func(c *comm.Comm) error {
				m := distmap.NewBlock(n, c.Size())
				x := NewVector(c, m)
				x.Randomize(1)
				y := NewVector(c, m)
				y.Randomize(2)
				c.Barrier()
				for i := 0; i < b.N; i++ {
					_ = x.Dot(y)
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}
