package fusion

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"odinhpc/internal/comm"
	"odinhpc/internal/core"
	"odinhpc/internal/distmap"
	"odinhpc/internal/ufunc"
)

func onRanks(t *testing.T, ps []int, fn func(ctx *core.Context) error) {
	t.Helper()
	for _, p := range ps {
		err := comm.Run(p, func(c *comm.Comm) error { return fn(core.NewContext(c)) })
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

var sizes = []int{1, 2, 3, 4}

func TestFusedMatchesNaive(t *testing.T) {
	onRanks(t, sizes, func(ctx *core.Context) error {
		n := 57
		x := core.FromFunc(ctx, []int{n}, func(g []int) float64 { return float64(g[0])/10 + 0.1 })
		y := core.FromFunc(ctx, []int{n}, func(g []int) float64 { return math.Sin(float64(g[0])) })
		exprs := []*Expr{
			Var(x).Add(Var(y)),
			Sqrt(Var(x).Square().Add(Var(y).Square())), // hypot
			Exp(Neg(Var(x))).Mul(Var(y)).Sub(Const(0.5)).Div(Var(x)),
			Abs(Sin(Var(x)).Mul(Cos(Var(y)))),
			Hypot(Var(x), Var(y)),
		}
		for i, e := range exprs {
			fused := Eval(e)
			naive := EvalNaive(e)
			if !ufunc.AllClose(fused, naive, 1e-14, 1e-14) {
				return fmt.Errorf("expr %d (%s): fused != naive", i, e)
			}
		}
		return nil
	})
}

func TestFusedHypotMatchesDirect(t *testing.T) {
	// The paper's hypot example via fusion vs. the direct ufunc.
	onRanks(t, sizes, func(ctx *core.Context) error {
		x := core.Random(ctx, []int{100}, 1)
		y := core.Random(ctx, []int{100}, 2)
		fused := Eval(Sqrt(Var(x).Square().Add(Var(y).Square())))
		direct := ufunc.Hypot(x, y)
		if !ufunc.AllClose(fused, direct, 1e-14, 1e-14) {
			return fmt.Errorf("hypot mismatch")
		}
		return nil
	})
}

func TestFusionZeroCommunicationWhenConformable(t *testing.T) {
	stats, err := comm.RunStats(4, func(c *comm.Comm) error {
		ctx := core.NewContext(c)
		ctx.SetControlMessages(false)
		x := core.Random(ctx, []int{500}, 1)
		y := core.Random(ctx, []int{500}, 2)
		c.Barrier()
		if c.Rank() == 0 {
			c.ResetStats()
		}
		c.Barrier()
		_ = Eval(Sqrt(Var(x).Square().Add(Var(y).Square())))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := stats.Snapshot().TotalBytes(); got > 64 {
		t.Fatalf("fused conformable expression moved %d bytes", got)
	}
}

func TestFusionRedistributesOnce(t *testing.T) {
	onRanks(t, []int{4}, func(ctx *core.Context) error {
		n := 32
		x := core.FromFunc(ctx, []int{n}, func(g []int) float64 { return float64(g[0]) })
		y := core.FromFunc(ctx, []int{n}, func(g []int) float64 { return 2 * float64(g[0]) },
			core.Options{Kind: distmap.Cyclic})
		// y appears twice but must be redistributed only once (distinct
		// leaves are deduplicated).
		e := Var(x).Add(Var(y)).Mul(Var(y))
		plan := Analyze(e)
		if plan.Redistributed != 1 {
			return fmt.Errorf("redistributed %d leaves, want 1", plan.Redistributed)
		}
		got := plan.Execute()
		for g := 0; g < n; g++ {
			want := (float64(g) + 2*float64(g)) * 2 * float64(g)
			if got.At(g) != want {
				return fmt.Errorf("[%d]=%g want %g", g, got.At(g), want)
			}
		}
		return nil
	})
}

func TestCountOpsAndLeaves(t *testing.T) {
	onRanks(t, []int{1}, func(ctx *core.Context) error {
		x := core.Zeros[float64](ctx, []int{4})
		y := core.Zeros[float64](ctx, []int{4})
		e := Sqrt(Var(x).Square().Add(Var(y).Square()))
		if e.CountOps() != 4 {
			return fmt.Errorf("ops=%d want 4", e.CountOps())
		}
		if len(e.Leaves()) != 2 {
			return fmt.Errorf("leaves=%d", len(e.Leaves()))
		}
		// Same leaf twice counts once.
		e2 := Var(x).Mul(Var(x))
		if len(e2.Leaves()) != 1 {
			return fmt.Errorf("dedup leaves=%d", len(e2.Leaves()))
		}
		return nil
	})
}

func TestExprString(t *testing.T) {
	onRanks(t, []int{1}, func(ctx *core.Context) error {
		x := core.Zeros[float64](ctx, []int{2})
		s := Sqrt(Var(x).Add(Const(1))).String()
		if !strings.Contains(s, "sqrt") || !strings.Contains(s, "add") || !strings.Contains(s, "1") {
			return fmt.Errorf("String = %q", s)
		}
		return nil
	})
}

func TestConstantsInExpressions(t *testing.T) {
	onRanks(t, []int{2}, func(ctx *core.Context) error {
		x := core.FromFunc(ctx, []int{10}, func(g []int) float64 { return float64(g[0]) })
		e := Var(x).Mul(Const(2)).Add(Const(3))
		fused := Eval(e)
		naive := EvalNaive(e)
		for g := 0; g < 10; g++ {
			want := 2*float64(g) + 3
			if fused.At(g) != want || naive.At(g) != want {
				return fmt.Errorf("[%d] fused=%g naive=%g want %g", g, fused.At(g), naive.At(g), want)
			}
		}
		// Constant on the left of a binary op.
		e2 := Const(10).Sub(Var(x))
		if got := EvalNaive(e2).At(3); got != 7 {
			return fmt.Errorf("const-left naive: %g", got)
		}
		if got := Eval(e2).At(3); got != 7 {
			return fmt.Errorf("const-left fused: %g", got)
		}
		return nil
	})
}

func TestFusionValidation(t *testing.T) {
	onRanks(t, []int{2}, func(ctx *core.Context) error {
		x := core.Zeros[float64](ctx, []int{8})
		short := core.Zeros[float64](ctx, []int{7})
		for name, fn := range map[string]func(){
			"no-leaves":      func() { Eval(Const(1).Add(Const(2))) },
			"shape-mismatch": func() { Eval(Var(x).Add(Var(short))) },
			"nil-leaf":       func() { Var(nil) },
		} {
			ok := func() (ok bool) {
				defer func() { ok = recover() != nil }()
				fn()
				return false
			}()
			if !ok {
				return fmt.Errorf("%s: expected panic", name)
			}
		}
		return nil
	})
}

func TestFusion2D(t *testing.T) {
	onRanks(t, []int{3}, func(ctx *core.Context) error {
		x := core.FromFunc(ctx, []int{7, 4}, func(g []int) float64 { return float64(g[0] + g[1]) })
		got := Eval(Var(x).Square())
		full := got.Gather()
		for i := 0; i < 7; i++ {
			for j := 0; j < 4; j++ {
				want := float64((i + j) * (i + j))
				if full.At(i, j) != want {
					return fmt.Errorf("[%d,%d]=%g", i, j, full.At(i, j))
				}
			}
		}
		return nil
	})
}

func TestSumEvalMatchesEvalThenSum(t *testing.T) {
	onRanks(t, sizes, func(ctx *core.Context) error {
		x := core.Random(ctx, []int{333}, 1)
		y := core.Random(ctx, []int{333}, 2)
		e := Sqrt(Var(x).Square().Add(Var(y).Square()))
		fusedSum := SumEval(e)
		twoStep := ufunc.Sum(Eval(e))
		if diff := fusedSum - twoStep; diff > 1e-9 || diff < -1e-9 {
			return fmt.Errorf("SumEval %g vs Eval+Sum %g", fusedSum, twoStep)
		}
		return nil
	})
}

func TestSumEvalWithRedistribution(t *testing.T) {
	onRanks(t, []int{3}, func(ctx *core.Context) error {
		n := 30
		x := core.FromFunc(ctx, []int{n}, func(g []int) float64 { return float64(g[0]) })
		y := core.FromFunc(ctx, []int{n}, func(g []int) float64 { return 1 },
			core.Options{Kind: distmap.Cyclic})
		got := SumEval(Var(x).Mul(Var(y)))
		want := float64(n*(n-1)) / 2
		if got != want {
			return fmt.Errorf("got %g want %g", got, want)
		}
		return nil
	})
}

func (e *Expr) String() string {
	switch e.kind {
	case kindLeaf:
		return "x"
	case kindSliceLeaf:
		return fmt.Sprintf("s%d", e.slot)
	case kindScalarLeaf:
		return fmt.Sprintf("k%d", e.slot)
	case kindConst:
		return fmt.Sprintf("%g", e.value)
	case kindUnary:
		return fmt.Sprintf("%s(%s)", e.name, e.args[0])
	default:
		return fmt.Sprintf("%s(%s, %s)", e.name, e.args[0], e.args[1])
	}
}
