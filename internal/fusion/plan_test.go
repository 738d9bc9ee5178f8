package fusion

// A Plan is the reusable unit: these tests pin that keeping one and calling
// it again is the same evaluation Eval/SumEval make, that its reduction
// allocates nothing, and that the single lowering walk reports what the
// public pre-walk helpers report.

import (
	"fmt"
	"math"
	"testing"

	"odinhpc/internal/comm"
	"odinhpc/internal/comm/alloctest"
	"odinhpc/internal/core"
	"odinhpc/internal/distmap"
	"odinhpc/internal/exec"
)

// TestPlanReuseMatchesEval runs one kept Plan repeatedly against fresh
// Eval/SumEval calls of the same expression: same bits every time, with a
// redistributed (snapshotted) leaf in the mix, and the Plan calls issue no
// control message where each Eval/SumEval issues exactly one.
func TestPlanReuseMatchesEval(t *testing.T) {
	onRanks(t, sizes, func(ctx *core.Context) error {
		const n = 1500 // straddles the VM block size at P=1
		x := core.FromFunc(ctx, []int{n}, func(g []int) float64 { return math.Sin(float64(g[0])) + 1.5 })
		y := core.FromFunc(ctx, []int{n}, func(g []int) float64 { return float64(g[0]%17) - 3 },
			core.Options{Kind: distmap.Cyclic})
		e := Sqrt(Var(x).Square().Add(Var(y).Square())).Sub(Var(x).Mul(Const(0.25)))
		plan := Analyze(e)
		if ctx.Size() > 1 && plan.Redistributed != 1 {
			return fmt.Errorf("Redistributed = %d, want the cyclic leaf realigned once", plan.Redistributed)
		}
		ctrl0, _ := ctx.CtrlStats()
		for round := 0; round < 3; round++ {
			if err := bitsEqual(plan.Execute(), Eval(e)); err != nil {
				return fmt.Errorf("round %d: Plan.Execute != Eval: %v", round, err)
			}
			if got, want := plan.Sum(), SumEval(e); math.Float64bits(got) != math.Float64bits(want) {
				return fmt.Errorf("round %d: Plan.Sum %x != SumEval %x", round, math.Float64bits(got), math.Float64bits(want))
			}
		}
		// Three rounds of one Eval and one SumEval: six operations, one
		// control message each to (or on) every worker.
		per := 1
		if ctx.Rank() == 0 {
			per = ctx.Size() - 1
		}
		if ctrl1, _ := ctx.CtrlStats(); ctrl1-ctrl0 != 6*per {
			return fmt.Errorf("rank %d saw %d control messages over 6 global and 6 plan evaluations, want %d", ctx.Rank(), ctrl1-ctrl0, 6*per)
		}
		return nil
	})
}

// TestAnalyzeCountsWhatThePrewalksCount pins the one-walk Analyze against
// the public helpers it no longer calls: Ops is CountOps (a shared node
// counts once per use, a folded constant subtree still counts), and leaf
// slots follow Leaves() order.
func TestAnalyzeCountsWhatThePrewalksCount(t *testing.T) {
	onRanks(t, []int{1, 2}, func(ctx *core.Context) error {
		x := core.FromFunc(ctx, []int{40}, func(g []int) float64 { return float64(g[0]) })
		y := core.FromFunc(ctx, []int{40}, func(g []int) float64 { return float64(2*g[0] + 1) })
		shared := Var(x).Mul(Var(y))
		exprs := []*Expr{
			Var(y),
			shared.Add(shared).Add(Sqrt(shared)),
			Var(y).Sub(Var(x)).Mul(Const(2).Mul(Const(3))).Add(Var(x)),
			Unary("twice", func(v float64) float64 { return 2 * v }, Var(y).Add(Var(x))),
		}
		for i, e := range exprs {
			p := Analyze(e)
			if p.Ops != e.CountOps() {
				return fmt.Errorf("expr %d (%s): Plan.Ops = %d, CountOps = %d", i, e, p.Ops, e.CountOps())
			}
			leaves := e.Leaves()
			if len(p.leafData) != len(leaves) {
				return fmt.Errorf("expr %d (%s): %d bound leaves, Leaves() has %d", i, e, len(p.leafData), len(leaves))
			}
			for s, l := range leaves {
				if &p.leafData[s][0] != &l.Local().Raw()[0] {
					return fmt.Errorf("expr %d (%s): slot %d is not bound to Leaves()[%d]", i, e, s, s)
				}
			}
		}
		return nil
	})
}

// TestPlanSumAllocs pins the warm served path's whole rank-side cost: a
// kept Plan's Sum — scratch from the program's pool, the sweep handed to
// the engine by value, a typed scalar allreduce — allocates no object on
// any rank, whether a rank's elements are one engine chunk or several that
// a one-worker engine folds in turn on the rank's goroutine.
func TestPlanSumAllocs(t *testing.T) {
	old := exec.Default()
	defer exec.SetDefault(old)
	exec.SetDefault(exec.New(exec.WithWorkers(1)))
	for _, p := range []int{1, 2, 4} {
		for _, tc := range []struct{ n, runs int }{{4000, 1000}, {4 * exec.DefaultGrain * p, 100}} {
			var sink float64
			total := alloctest.Mallocs(t, p, tc.runs, func(c *comm.Comm) func() {
				ctx := core.NewContext(c)
				x := core.FromFunc(ctx, []int{tc.n}, func(g []int) float64 { return float64(g[0]) })
				y := core.FromFunc(ctx, []int{tc.n}, func(g []int) float64 { return 1 / float64(g[0]+1) })
				plan := Analyze(Sqrt(Var(x).Square().Add(Var(y).Square())).Add(Exp(Neg(Var(y)))))
				return func() {
					if v := plan.Sum(); c.Rank() == 0 {
						sink = v
					}
				}
			})
			if got := total / uint64(tc.runs); got != 0 {
				t.Errorf("P=%d n=%d: Plan.Sum allocates %d objects per call (all ranks, %d over %d calls; last sum %g), want 0",
					p, tc.n, got, total, tc.runs, sink)
			}
		}
	}
}
