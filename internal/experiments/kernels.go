package experiments

// The intra-rank kernel experiments behind BENCH_exec/fusion/spmv.json:
// exec-pool scaling (E5b), the fusion register VM (E12), SpMV formats (E14).

import (
	"fmt"
	"math"

	"odinhpc/internal/comm"
	"odinhpc/internal/core"
	"odinhpc/internal/dense"
	"odinhpc/internal/exec"
	"odinhpc/internal/fusion"
	"odinhpc/internal/galeri"
	"odinhpc/internal/sparse"
)

// ramps are the two operand arrays of the single-rank fusion sweeps.
func ramps(ctx *core.Context, n int) (x, y *core.DistArray[float64]) {
	x = core.FromFunc(ctx, []int{n}, func(g []int) float64 { return float64(g[0]) / float64(n) })
	y = core.FromFunc(ctx, []int{n}, func(g []int) float64 { return 1 - float64(g[0])/float64(n) })
	return x, y
}

// spmvOperands returns an input vector for m and a buffer for the product.
func spmvOperands(m *sparse.CSR) (x, y []float64) {
	x, y = make([]float64, m.Cols), make([]float64, m.Rows)
	for i := range x {
		x[i] = float64(i%97) / 97
	}
	return x, y
}

// e5b is the intra-rank counterpart of the rank sweeps: the exec engine's
// worker pool at sizes 1/2/4/8 under three kernel classes, N = 2^20. With
// fewer cores than workers it shows chunked dispatch is free, not a speedup.
var e5b = Experiment{
	ID: "E5b", Anchor: "§III: element-wise kernels scale inside a rank (exec-engine pool sweep)",
	Cases: func() []Case {
		const n = 1 << 20
		kernels := []struct {
			name string
			body func(m *Meter) error
		}{
			{"ufunc-sin", func(m *Meter) error {
				x, out := dense.Linspace[float64](0, 1, n), dense.Zeros[float64](n)
				return m.Throughput(nil, 8*n, func() { dense.UnaryInto(out, x, math.Sin) })
			}},
			{"fused-hypot", func(m *Meter) error {
				return comm.Run(1, func(c *comm.Comm) error {
					x, y := ramps(core.NewContext(c), n)
					e := fusion.Sqrt(fusion.Var(x).Square().Add(fusion.Var(y).Square()))
					return m.Throughput(c, 8*n, func() { _ = fusion.Eval(e) })
				})
			}},
			{"spmv-csr", func(m *Meter) error {
				lap := galeri.Laplace1D(n)
				x, y := spmvOperands(lap)
				return m.Throughput(nil, 8*lap.NNZ(), func() { lap.MulVec(x, y) })
			}},
		}
		var cases []Case
		for _, w := range []int{1, 2, 4, 8} {
			for _, k := range kernels {
				cases = append(cases, Case{fmt.Sprintf("%s/threads=%d", k.name, w), func(m *Meter) error {
					defer exec.SetDefault(exec.Default())
					exec.SetDefault(exec.New(exec.WithWorkers(w)))
					return k.body(m)
				}})
			}
		}
		return cases
	},
}

// e12 profiles the fusion register VM over expression depth — each level
// appends one multiply-add e = e*y + x, so instructions grow while traffic
// stays one output stream. plancache is an iterative method rebuilding its
// update expression every iteration: structural hashing must make every
// rebuild after the first a hit.
var e12 = Experiment{
	ID: "E12", Anchor: "§III: loop fusion compiled to a blocked register VM, plans cached by structure",
	Cases: func() []Case {
		const n = 1 << 20
		var cases []Case
		for _, depth := range []int{1, 4, 16} {
			cases = append(cases, Case{fmt.Sprintf("depth=%d", depth), func(m *Meter) error {
				return comm.Run(1, func(c *comm.Comm) error {
					x, y := ramps(core.NewContext(c), n)
					e := fusion.Var(x)
					for d := 0; d < depth; d++ {
						e = e.Mul(fusion.Var(y)).Add(fusion.Var(x))
					}
					// One untimed Eval fills the sweep's pooled scratch, so
					// the measured calls all find it warm.
					_ = fusion.Eval(e)
					return m.Throughput(c, 8*n, func() { _ = fusion.Eval(e) })
				})
			}})
		}
		return append(cases, Case{"plancache", func(m *Meter) error {
			const rebuilds = 200
			return comm.Run(1, func(c *comm.Comm) error {
				x, y := ramps(core.NewContext(c), 1<<16)
				var hits, misses int64
				_, err := m.Loop(c, func() error {
					fusion.ResetPlanCache()
					for i := 0; i < rebuilds; i++ {
						// Fresh Expr nodes each time, same structure.
						_ = fusion.Analyze(fusion.Sqrt(fusion.Var(x).Square().Add(fusion.Var(y).Square()))).Execute()
					}
					hits, misses = fusion.PlanCacheStats()
					return nil
				})
				m.Report("rebuilds", rebuilds)
				m.Report("planHits", float64(hits))
				m.Report("planMisses", float64(misses))
				return err
			})
		}})
	},
	Check: each(func(r Row) error {
		hits, misses, rebuilds := r.Get("planHits"), r.Get("planMisses"), r.Get("rebuilds")
		return want(r.Case != "plancache" || misses == 1 && hits == rebuilds-1,
			"plan cache: %g hits, %g misses over %g rebuilt expressions, want one compile", hits, misses, rebuilds)
	}),
}

// e14 times SpMV format by format on the conformance corpus's stencils. auto
// times whatever sparse.ChooseFormat picks (conversion is outside the measured
// region): it should track the faster of the csr and sell rows. ns/nnz is the
// fastest call's time per stored nonzero, the figure that says whether a
// kernel is bound by instructions or by memory.
var e14 = Experiment{
	ID: "E14", Anchor: "SpMV formats: CSR vs SELL-C-sigma and the auto-select heuristic",
	Cases: func() []Case {
		mats := []struct {
			name  string
			build func() *sparse.CSR
		}{
			{"laplace1d-1048576", func() *sparse.CSR { return galeri.Laplace1D(1 << 20) }},
			{"laplace2d-512x512", func() *sparse.CSR { return galeri.Laplace2D(512, 512) }},
			{"laplace3d-48", func() *sparse.CSR { return galeri.Laplace3D(48, 48, 48) }},
		}
		formats := []struct {
			name string
			of   func(*sparse.CSR) sparse.Operator
		}{
			{"csr", func(m *sparse.CSR) sparse.Operator { return m }},
			{"sell", func(m *sparse.CSR) sparse.Operator { return sparse.NewSELL(m) }},
			{"auto", sparse.AutoOperator},
		}
		var cases []Case
		for _, mt := range mats {
			for _, f := range formats {
				cases = append(cases, Case{mt.name + "/" + f.name, func(m *Meter) error {
					a := mt.build()
					op := f.of(a)
					x, y := spmvOperands(a)
					d, err := m.Loop(nil, func() error { op.MulVec(x, y); return nil })
					m.Report("MB/s", float64(8*a.NNZ())/d.Seconds()/1e6)
					m.Report("ns/nnz", float64(d.Nanoseconds())/float64(a.NNZ()))
					return err
				}})
			}
		}
		return cases
	},
}
