package experiments

// The ODIN array experiments: control traffic (E1, E10), ufunc scaling and
// redistribution (E2, E3), finite differences (E4, E13) and loop fusion (E5).

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"odinhpc/internal/comm"
	"odinhpc/internal/core"
	"odinhpc/internal/dense"
	"odinhpc/internal/distmap"
	"odinhpc/internal/fusion"
	"odinhpc/internal/slicing"
	"odinhpc/internal/trace"
	"odinhpc/internal/ufunc"
)

// quietRandom is a random n-vector on a context whose control messages are
// off, so that every byte the run moves is array data.
func quietRandom(c *comm.Comm, n int, seed int64) *core.DistArray[float64] {
	ctx := core.NewContext(c)
	ctx.SetControlMessages(false)
	return core.Random(ctx, []int{n}, seed)
}

// e1 measures the control traffic of five global operations (create, unary
// and binary ufunc, reduction, slice): the descriptors rank 0 sends the
// workers, never the array payload.
var e1 = Experiment{
	ID: "E1", Anchor: `§III.B: control messages are "at most tens of bytes"`, Exact: true,
	Cases: func() []Case {
		return sweep("P", []int{2, 4, 8, 16}, func(p int, m *Meter) error {
			const ops = 5
			var msgs int
			var bytes int64
			_, err := m.Runs(p, func(c *comm.Comm) error {
				ctx := core.NewContext(c)
				x := core.Random(ctx, []int{1 << 16}, 1)
				z := ufunc.Add(x, ufunc.Sin(x))
				_ = ufunc.Sum(z)
				_ = slicing.Diff(z)
				if c.Rank() == 0 {
					msgs, bytes = ctx.CtrlStats()
				}
				return nil
			})
			m.Report("globalOps", ops)
			m.Report("ctrlMsgs", float64(msgs))
			m.Report("ctrlBytes", float64(bytes))
			m.Report("ctrlB/op/worker", float64(bytes)/ops/float64(p-1))
			return err
		})
	},
	Check: each(func(r Row) error {
		b := r.Get("ctrlB/op/worker")
		return want(b > 0 && b <= 64, "%g control bytes per op per worker, want (0, 64]", b)
	}),
}

// e2 characterizes ufunc scaling by the two facts that determine it — per-rank
// work is N/P and conformable ufuncs move no array data — because the host
// cannot show wall-clock speedup at P=32. The modeled times combine the serial
// cost of sin(x), calibrated once at P=1, with the alpha-beta model.
var e2 = Experiment{
	ID: "E2", Anchor: "§III.D: unary ufuncs and conformable binary ufuncs parallelize trivially",
	Cases: func() []Case {
		const n = 4_000_000
		sinCost := sync.OnceValues(func() (secPerElem float64, err error) {
			err = comm.Run(1, func(c *comm.Comm) error {
				x := quietRandom(c, n, 1)
				_ = ufunc.Sin(x)
				d, err := (&Meter{N: 3}).Loop(c, func() error { _ = ufunc.Sin(x); return nil })
				secPerElem = d.Seconds() / n
				return err
			})
			return
		})
		return sweep("P", []int{1, 2, 4, 8, 16, 32}, func(p int, m *Meter) error {
			traffic, err := m.Runs(p, func(c *comm.Comm) error {
				x := quietRandom(c, n, 1)
				_ = ufunc.Sin(x)
				_ = ufunc.Add(x, core.Random(x.Context(), []int{n}, 2))
				return nil
			})
			if err != nil {
				return err
			}
			perElem, err := sinCost()
			perRank := (n + p - 1) / p
			model := comm.EthernetLike()
			totalMS := (perElem*float64(perRank) + model.Time(traffic.TotalBytes()/int64(p))) * 1000
			m.Report("elems/rank", float64(perRank))
			m.Report("bytesMoved", float64(traffic.TotalBytes()))
			m.Report("modeledMs", totalMS)
			m.Report("modeledSpeedup", (perElem*n+model.Time(0))*1000/totalMS)
			return err
		})
	},
	Check: each(func(r Row) error {
		return want(r.Get("bytesMoved") == 0, "%g bytes moved by conformable ufuncs, want 0", r.Get("bytesMoved"))
	}),
}

// e3 counts the elements each redistribution strategy moves for
// non-conformable operands; the chooser must pick the minimum.
var e3 = Experiment{
	ID: "E3", Anchor: "§III.D: ODIN chooses the redistribution strategy that minimizes communication", Exact: true,
	Cases: func() []Case {
		const n, p = 1 << 16, 4
		block, cyclic := func() *distmap.Map { return distmap.NewBlock(n, p) }, func() *distmap.Map { return distmap.NewCyclic(n, p) }
		layouts := []struct {
			name   string
			xm, ym func() *distmap.Map
		}{
			{"block-vs-cyclic", block, cyclic},
			{"block-vs-block", block, block},
			{"block-vs-one-row-off", block, func() *distmap.Map {
				owners := block().OwnersTable()
				owners[0] = p - 1 // one slab lives on the wrong rank
				return distmap.NewArbitrary(owners, p)
			}},
			{"all-on-0-vs-cyclic", func() *distmap.Map { return distmap.NewArbitrary(make([]int, n), p) }, cyclic},
		}
		var cases []Case
		for _, l := range layouts {
			cases = append(cases, Case{l.name, func(m *Meter) error {
				var right, left, auto int
				var chosen ufunc.Strategy
				_, err := m.Runs(p, func(c *comm.Comm) error {
					ctx := core.NewContext(c)
					x := core.Zeros[float64](ctx, []int{n}, core.Options{Map: l.xm()})
					y := core.Zeros[float64](ctx, []int{n}, core.Options{Map: l.ym()})
					_, r := ufunc.PlanBinary(x, y, ufunc.BinaryOptions{Strategy: ufunc.StrategyImportRight})
					_, lf := ufunc.PlanBinary(x, y, ufunc.BinaryOptions{Strategy: ufunc.StrategyImportLeft})
					ch, a := ufunc.PlanBinary(x, y)
					// Every rank computes the same plans; rank 0 alone reports
					// them, so the ranks do not race on the case's variables.
					if c.Rank() == 0 {
						right, left, chosen, auto = r, lf, ch, a
					}
					return nil
				})
				m.Report("importRight", float64(right))
				m.Report("importLeft", float64(left))
				m.Report("auto", float64(auto))
				m.Note("chosen", chosen.String())
				return err
			}})
		}
		return cases
	},
	Check: each(func(r Row) error {
		cheaper := math.Min(r.Get("importRight"), r.Get("importLeft"))
		return want(r.Get("auto") == cheaper, "chooser moves %g elements, the cheaper import moves %g", r.Get("auto"), cheaper)
	}),
}

// e4 compares three ways to evaluate y[1:] - y[:-1] (ablation E-A1): the
// halo exchange, the general slab-slice path (boundary-dominated too for a
// shift by one), and the allgather strategy an MPI novice writes first —
// materialize the whole array everywhere, then difference the local rows.
var e4 = Experiment{
	ID: "E4", Anchor: "§III.G: finite differences need only boundary communication", Exact: true,
	Cases: func() []Case {
		const p = 4
		return sweep("N", []int{100_000, 1_000_000, 10_000_000}, func(n int, m *Meter) error {
			strategies := []struct {
				metric string
				diff   func(c *comm.Comm, y *core.DistArray[float64])
			}{
				{"haloB", func(_ *comm.Comm, y *core.DistArray[float64]) { _ = slicing.Diff(y) }},
				{"sliceB", func(_ *comm.Comm, y *core.DistArray[float64]) {
					hi := slicing.Slice(y, dense.Range{Start: 1, Stop: n, Step: 1})
					lo := slicing.Slice(y, dense.Range{Start: 0, Stop: n - 1, Step: 1})
					_ = ufunc.Sub(hi, lo)
				}},
				{"allgatherB", func(c *comm.Comm, y *core.DistArray[float64]) {
					full := y.Gather()
					me, dm := c.Rank(), y.Map()
					out := dense.Zeros[float64](dm.LocalCount(me))
					for l := 0; l < out.Dim(0); l++ {
						if g := dm.LocalToGlobal(me, l); g < n-1 {
							out.Set(full.At(g+1)-full.At(g), l)
						}
					}
				}},
			}
			for _, s := range strategies {
				traffic, err := m.Runs(p, func(c *comm.Comm) error { s.diff(c, quietRandom(c, n, 1)); return nil })
				if err != nil {
					return err
				}
				m.Report(s.metric, float64(traffic.TotalBytes()))
			}
			return nil
		})
	},
	Check: each(func(r Row) error {
		boundary, all, n := r.Get("haloB")+r.Get("sliceB"), r.Get("allgatherB"), r.Dim("N")
		return want(boundary < 1024 && all >= float64(8*n),
			"halo+slice paths move %g bytes (want < 1 KiB at every N), allgather %g (want >= 8*N = %d)", boundary, all, 8*n)
	}),
}

// e5 measures loop fusion: one fused sweep against op-at-a-time temporaries,
// in time and in bytes allocated by all ranks together.
var e5 = Experiment{
	ID: "E5", Anchor: "§III: loop fusion",
	Cases: func() []Case {
		const n, p = 2_000_000, 4
		exprs := []struct {
			name  string
			build func(x, y *fusion.Expr) *fusion.Expr
		}{
			{"hypot", func(x, y *fusion.Expr) *fusion.Expr { return fusion.Sqrt(x.Square().Add(y.Square())) }},
			{"chain7", func(x, y *fusion.Expr) *fusion.Expr {
				return fusion.Exp(fusion.Neg(x)).Mul(y).Add(fusion.Sin(x)).Div(y.Add(fusion.Const(2)))
			}},
		}
		var cases []Case
		for _, ex := range exprs {
			cases = append(cases, Case{ex.name, func(m *Meter) error {
				return comm.Run(p, func(c *comm.Comm) error {
					x := quietRandom(c, n, 1)
					e := ex.build(fusion.Var(x), fusion.Var(core.Random(x.Context(), []int{n}, 2)))
					if !ufunc.AllClose(fusion.Eval(e), fusion.EvalNaive(e), 1e-13, 1e-13) {
						return fmt.Errorf("fused result differs from the op-at-a-time result")
					}
					region := func(eval func(*fusion.Expr) *core.DistArray[float64]) (msPerOp, mbPerOp float64, err error) {
						c.Barrier()
						before := allocatedBytes()
						d, err := m.Loop(c, func() error { _ = eval(e); return nil })
						return ms(d), float64(allocatedBytes()-before) / float64(m.N) / 1e6, err
					}
					naiveMS, naiveMB, err := region(fusion.EvalNaive)
					if err != nil {
						return err
					}
					fusedMS, fusedMB, err := region(fusion.Eval)
					if c.Rank() == 0 {
						m.Report("ops", float64(e.CountOps()))
						m.Report("naiveMs", naiveMS)
						m.Report("fusedMs", fusedMS)
						m.Report("speedup", naiveMS/fusedMS)
						m.Report("naiveMB/op", naiveMB)
						m.Report("fusedMB/op", fusedMB)
					}
					return err
				})
			}})
		}
		return cases
	},
	Check: each(func(r Row) error {
		f, n := r.Get("fusedMB/op"), r.Get("naiveMB/op")
		return want(f < n, "fused sweep allocates %.1f MB, op-at-a-time %.1f MB: no temporary was removed", f, n)
	}),
}

// allocatedBytes is the process's cumulative heap allocation.
func allocatedBytes() uint64 {
	var s runtime.MemStats
	runtime.ReadMemStats(&s)
	return s.TotalAlloc
}

// e10 tracks the Fig. 1 property over five stencil sweeps with a global monitor:
// bytes through rank 0 stay O(P) per operation, workers carry the data.
var e10 = Experiment{
	ID: "E10", Anchor: "Fig. 1: workers communicate directly, so the ODIN process is not a bottleneck", Exact: true,
	Cases: func() []Case {
		const n = 1 << 20
		return sweep("P", []int{2, 4, 8, 16}, func(p int, m *Meter) error {
			traffic, err := m.Runs(p, func(c *comm.Comm) error {
				x := core.Random(core.NewContext(c), []int{n}, 1)
				for iter := 0; iter < 5; iter++ {
					_ = ufunc.Sum(slicing.Diff(x)) // global monitor through the master
					x = ufunc.Scalar(x, 1.0-1e-9*math.Sqrt(float64(iter+1)), func(v, s float64) float64 { return v * s })
				}
				return nil
			})
			m.Report("masterB/op", float64(traffic.MasterBytes()))
			m.Report("workerB/op", float64(traffic.WorkerBytes()))
			m.Report("arrayB", 8*n)
			m.Report("master/array%", float64(traffic.MasterBytes())/(8*n)*100)
			return err
		})
	},
	Check: each(func(r Row) error {
		s := r.Get("master/array%")
		return want(s < 0.1, "%.4f%% of the array's bytes transit the master, want < 0.1%%", s)
	}),
}

// e13 re-verifies E4's claim message by message: under a private trace session
// the sends tagged slicing.HaloTag are the halo exchange of y[k:] - y[:-k].
var e13 = Experiment{
	ID: "E13", Anchor: "§III.G: boundary-only communication, read off a trace capture", Exact: true,
	Cases: func() []Case {
		const p = 4
		var cases []Case
		for _, n := range []int{1 << 12, 1 << 16, 1 << 20} {
			for _, k := range []int{1, 4} {
				cases = append(cases, Case{fmt.Sprintf("N=%d/k=%d", n, k), func(m *Meter) error {
					var msgs, bytes, total int64 // of the last run: the counts repeat
					_, err := m.Loop(nil, func() error {
						// Private: the capture must hold one ShiftDiff and not mix into a -trace session.
						prev := trace.Active()
						s := trace.Start(1 << 16)
						stats, err := comm.RunStats(p, func(c *comm.Comm) error {
							y := quietRandom(c, n, 1)
							c.Barrier()
							_ = slicing.ShiftDiff(y, k)
							return nil
						})
						trace.Install(prev)
						if err != nil {
							return err
						}
						msgs, bytes, total = 0, 0, stats.Snapshot().TotalBytes()
						for _, ev := range s.Events() {
							if ev.Kind == trace.KindSend && ev.Tag == slicing.HaloTag {
								msgs++
								bytes += ev.Bytes
								if ev.Bytes != int64(8*k) {
									return fmt.Errorf("a halo message of %d bytes, want 8k = %d", ev.Bytes, 8*k)
								}
							}
						}
						return nil
					})
					m.Report("P", p)
					m.Report("haloMsgs", float64(msgs))
					m.Report("B/msg", float64(bytes)/math.Max(float64(msgs), 1))
					m.Report("haloB", float64(bytes))
					m.Report("totalB", float64(total))
					return err
				}})
			}
		}
		return cases
	},
	Check: each(func(r Row) error {
		p, k := r.Get("P"), float64(r.Dim("k"))
		return want(r.Get("haloMsgs") == p-1 && r.Get("B/msg") == 8*k,
			"%g halo messages of %g bytes, want P-1 = %g of 8k = %g bytes", r.Get("haloMsgs"), r.Get("B/msg"), p-1, 8*k)
	}),
}
