package ufunc

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"odinhpc/internal/comm"
	"odinhpc/internal/core"
	"odinhpc/internal/dense"
	"odinhpc/internal/distmap"
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

func TestUnaryMatchesSerial(t *testing.T) {
	onRanks(t, sizes, func(ctx *core.Context) error {
		x := core.Linspace[float64](ctx, 0, 10, 37)
		got := Sqrt(x).Gather()
		want := dense.Unary(dense.Linspace[float64](0, 10, 37), math.Sqrt)
		if !dense.AllClose(got, want, 1e-15, 0) {
			return fmt.Errorf("sqrt differs")
		}
		return nil
	})
}

// TestNamedUfuncsMatchMath holds Sin, Cos, Exp and Sqrt to math bit for
// bit on contiguous local blocks (the dense.Vec* kernels) and on a strided
// one (element by element), with values outside the kernels' domains among
// ordinary ones, and counts one control message per call either way.
func TestNamedUfuncsMatchMath(t *testing.T) {
	named := []struct {
		name string
		op   func(*core.DistArray[float64]) *core.DistArray[float64]
		f    func(float64) float64
	}{{"sin", Sin, math.Sin}, {"cos", Cos, math.Cos}, {"exp", Exp, math.Exp}, {"sqrt", Sqrt, math.Sqrt}}
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1 << 29, 745.5, -745.5, 5e-324, math.Copysign(0, -1)}
	value := func(g int) float64 {
		if g%5 == 2 {
			return specials[(g/5)%len(specials)]
		}
		return float64(g)/7 - 3
	}
	check := func(name string, f func(float64) float64, x, got *core.DistArray[float64]) error {
		in, out := x.Gather().Flatten(), got.Gather().Flatten()
		for i := range in {
			if want := math.Float64bits(f(in[i])); math.Float64bits(out[i]) != want {
				return fmt.Errorf("%s(%v) at %d = %#x, want %#x", name, in[i], i, math.Float64bits(out[i]), want)
			}
		}
		return nil
	}
	onRanks(t, sizes, func(ctx *core.Context) error {
		x := core.FromFunc(ctx, []int{203}, func(g []int) float64 { return value(g[0]) })
		// A square local block with its columns reversed: the same shape, strided.
		sq := core.FromFunc(ctx, []int{ctx.Size() * 9, 9}, func(g []int) float64 { return value(9*g[0] + g[1]) })
		var strided *core.DistArray[float64]
		if ctx.Size() == 1 {
			strided = sq.WithLocal(sq.Local().Slice(1, dense.Range{Start: 8, Stop: -10, Step: -1}))
		}
		for _, u := range named {
			before, _ := ctx.CtrlStats()
			y := u.op(x)
			after, _ := ctx.CtrlStats()
			want := 1 // received by a worker; rank 0 sends one to each worker
			if ctx.Rank() == 0 {
				want = ctx.Size() - 1
			}
			if after-before != want {
				return fmt.Errorf("%s: %d control messages on rank %d, want %d", u.name, after-before, ctx.Rank(), want)
			}
			if err := check(u.name, u.f, x, y); err != nil {
				return err
			}
			if strided != nil {
				if err := check(u.name+" strided", u.f, strided, u.op(strided)); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

func TestUnaryNoCommunication(t *testing.T) {
	stats, err := comm.RunStats(4, func(c *comm.Comm) error {
		ctx := core.NewContext(c)
		ctx.SetControlMessages(false) // isolate data traffic
		x := core.Random(ctx, []int{1000}, 1)
		c.Barrier()
		if c.Rank() == 0 {
			c.ResetStats()
		}
		c.Barrier()
		_ = Sin(x)
		_ = Exp(x)
		_ = Abs(x)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := stats.Snapshot()
	// Only the trailing barrier bytes (1 byte each) may appear.
	if snap.TotalBytes() > 64 {
		t.Fatalf("unary ufuncs moved %d bytes; must be zero", snap.TotalBytes())
	}
}

func TestUnaryTypeChange(t *testing.T) {
	onRanks(t, []int{2}, func(ctx *core.Context) error {
		x := core.Linspace[float64](ctx, 0, 9, 10)
		ints := Unary(x, func(v float64) int64 { return int64(v * 2) })
		if ints.At(9) != 18 {
			return fmt.Errorf("cast ufunc: %d", ints.At(9))
		}
		return nil
	})
}

func TestBinaryConformableNoComm(t *testing.T) {
	stats, err := comm.RunStats(4, func(c *comm.Comm) error {
		ctx := core.NewContext(c)
		ctx.SetControlMessages(false)
		x := core.Random(ctx, []int{400}, 1)
		y := core.Random(ctx, []int{400}, 2)
		c.Barrier()
		if c.Rank() == 0 {
			c.ResetStats()
		}
		c.Barrier()
		z := Add(x, y)
		if z.GlobalSize() != 400 {
			return fmt.Errorf("size")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Snapshot().TotalBytes() > 64 {
		t.Fatalf("conformable binary moved %d bytes", stats.Snapshot().TotalBytes())
	}
}

func TestBinaryMatchesSerialAllOps(t *testing.T) {
	onRanks(t, sizes, func(ctx *core.Context) error {
		n := 29
		x := core.FromFunc(ctx, []int{n}, func(g []int) float64 { return float64(g[0]) + 1 })
		y := core.FromFunc(ctx, []int{n}, func(g []int) float64 { return float64(g[0]%5) + 1 })
		// NOTE: collectives must run in the same order on every rank, so
		// the checks live in a slice, not a map (map iteration order is
		// per-process random and would desynchronize Gather calls).
		checks := []struct {
			name string
			got  *core.DistArray[float64]
			want func(a, b float64) float64
		}{
			{"add", Add(x, y), func(a, b float64) float64 { return a + b }},
			{"sub", Sub(x, y), func(a, b float64) float64 { return a - b }},
			{"mul", Mul(x, y), func(a, b float64) float64 { return a * b }},
			{"div", Div(x, y), func(a, b float64) float64 { return a / b }},
			{"hyp", Hypot(x, y), math.Hypot},
		}
		for _, chk := range checks {
			name := chk.name
			full := chk.got.Gather()
			for g := 0; g < n; g++ {
				a, b := float64(g)+1, float64(g%5)+1
				if math.Abs(full.At(g)-chk.want(a, b)) > 1e-12 {
					return fmt.Errorf("%s[%d]=%g", name, g, full.At(g))
				}
			}
		}
		return nil
	})
}

func TestBinaryNonConformableRedistributes(t *testing.T) {
	onRanks(t, sizes, func(ctx *core.Context) error {
		n := 23
		x := core.FromFunc(ctx, []int{n}, func(g []int) float64 { return float64(g[0]) })
		y := core.FromFunc(ctx, []int{n}, func(g []int) float64 { return 100 * float64(g[0]) },
			core.Options{Kind: distmap.Cyclic})
		z := Add(x, y)
		// Result adopts x's (block) distribution under import-right.
		if !z.Map().SameAs(x.Map()) {
			return fmt.Errorf("result map should match left operand")
		}
		full := z.Gather()
		for g := 0; g < n; g++ {
			if full.At(g) != 101*float64(g) {
				return fmt.Errorf("[%d]=%g", g, full.At(g))
			}
		}
		return nil
	})
}

func TestBinaryStrategyOverride(t *testing.T) {
	onRanks(t, []int{3}, func(ctx *core.Context) error {
		n := 12
		x := core.FromFunc(ctx, []int{n}, func(g []int) float64 { return float64(g[0]) })
		y := core.FromFunc(ctx, []int{n}, func(g []int) float64 { return float64(g[0]) },
			core.Options{Kind: distmap.Cyclic})
		left := Add(x, y, BinaryOptions{Strategy: StrategyImportLeft})
		if !left.Map().SameAs(y.Map()) {
			return fmt.Errorf("ImportLeft must adopt right operand's map")
		}
		right := Add(x, y, BinaryOptions{Strategy: StrategyImportRight})
		if !right.Map().SameAs(x.Map()) {
			return fmt.Errorf("ImportRight must adopt left operand's map")
		}
		for g := 0; g < n; g++ {
			if left.At(g) != right.At(g) || left.At(g) != 2*float64(g) {
				return fmt.Errorf("strategies disagree at %d", g)
			}
		}
		return nil
	})
}

func TestPlanBinaryPicksCheaper(t *testing.T) {
	onRanks(t, []int{4}, func(ctx *core.Context) error {
		n := 64
		// x block; y nearly-block (one element swapped between ranks 0/1):
		// moving y to x's layout costs 2 slabs; moving x to y's costs 2 as
		// well -- so use a cyclic y where costs are asymmetric with a 2-d
		// slab to amplify.
		x := core.Zeros[float64](ctx, []int{n, 8})
		y := core.Zeros[float64](ctx, []int{n, 8}, core.Options{Kind: distmap.Cyclic})
		strat, cost := PlanBinary(x, y)
		// Costs are symmetric here; chooser must still return a definite
		// strategy and the true minimum.
		lcost := core.RedistributeCost(x, y.Map())
		rcost := core.RedistributeCost(y, x.Map())
		wantMin := lcost
		if rcost < wantMin {
			wantMin = rcost
		}
		if cost != wantMin {
			return fmt.Errorf("cost %d, min %d", cost, wantMin)
		}
		if strat != StrategyImportLeft && strat != StrategyImportRight {
			return fmt.Errorf("strategy %v", strat)
		}
		// Conformable: zero cost.
		if _, c0 := PlanBinary(x, x.Clone()); c0 != 0 {
			return fmt.Errorf("conformable cost %d", c0)
		}
		return nil
	})
}

func TestPlanBinaryAsymmetric(t *testing.T) {
	onRanks(t, []int{2}, func(ctx *core.Context) error {
		n := 10
		// y lives entirely on rank 0 (arbitrary map), x is block.
		all0 := make([]int, n)
		y := core.Zeros[float64](ctx, []int{n}, core.Options{Map: distmap.NewArbitrary(all0, 2)})
		x := core.Zeros[float64](ctx, []int{n})
		// Moving y to block costs 5 (rank 1's half); moving x to all-0 also
		// costs 5. Equal. Make y cheaper: y distributed as block but with
		// one row moved.
		owners := []int{0, 0, 0, 0, 0, 1, 1, 1, 1, 0} // one row differs from block
		y2 := core.Zeros[float64](ctx, []int{n}, core.Options{Map: distmap.NewArbitrary(owners, 2)})
		// Byte costs tie at 1; the block layout is better balanced, so the
		// chooser aligns to it from either side.
		strat, cost := PlanBinary(x, y2)
		if strat != StrategyImportRight || cost != 1 {
			return fmt.Errorf("want ImportRight cost 1, got %v cost %d", strat, cost)
		}
		strat2, cost2 := PlanBinary(y2, x)
		if strat2 != StrategyImportLeft || cost2 != 1 {
			return fmt.Errorf("reversed: want ImportLeft cost 1, got %v cost %d", strat2, cost2)
		}
		// Degenerate all-on-rank-0 operand: never import toward it.
		strat3, _ := PlanBinary(y, x)
		if strat3 != StrategyImportLeft {
			return fmt.Errorf("all-on-0 left operand: want ImportLeft, got %v", strat3)
		}
		strat4, _ := PlanBinary(x, y)
		if strat4 != StrategyImportRight {
			return fmt.Errorf("all-on-0 right operand: want ImportRight, got %v", strat4)
		}
		return nil
	})
}

func TestBinaryShapeMismatchPanics(t *testing.T) {
	onRanks(t, []int{2}, func(ctx *core.Context) error {
		x := core.Zeros[float64](ctx, []int{8})
		y := core.Zeros[float64](ctx, []int{9})
		ok := func() (ok bool) {
			defer func() { ok = recover() != nil }()
			Add(x, y)
			return false
		}()
		if !ok {
			return fmt.Errorf("expected panic")
		}
		return nil
	})
}

func TestScalarOp(t *testing.T) {
	onRanks(t, []int{2}, func(ctx *core.Context) error {
		x := core.Arange[float64](ctx, 6)
		y := Scalar(x, 10, func(v, s float64) float64 { return v * s })
		if y.At(5) != 50 {
			return fmt.Errorf("scalar: %g", y.At(5))
		}
		return nil
	})
}

func TestReductionsMatchSerial(t *testing.T) {
	onRanks(t, sizes, func(ctx *core.Context) error {
		n := 41
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = math.Sin(float64(i)*1.7) * 10
		}
		x := core.FromFunc(ctx, []int{n}, func(g []int) float64 { return vals[g[0]] })
		ref := dense.FromSlice(vals, n)
		if got := Sum(x); math.Abs(got-dense.Sum(ref)) > 1e-10 {
			return fmt.Errorf("Sum=%g want %g", got, dense.Sum(ref))
		}
		if got := Min(x); got != dense.Min(ref) {
			return fmt.Errorf("Min=%g", got)
		}
		if got := Max(x); got != dense.Max(ref) {
			return fmt.Errorf("Max=%g", got)
		}
		argMax, sumsq := 0, 0.0
		for i, v := range vals {
			if v > vals[argMax] {
				argMax = i
			}
			sumsq += v * v
		}
		if got := Mean(x); math.Abs(got-dense.Sum(ref)/float64(n)) > 1e-12 {
			return fmt.Errorf("Mean=%g", got)
		}
		if got := ArgMax(x); got != argMax {
			return fmt.Errorf("ArgMax=%d want %d", got, argMax)
		}
		if got := Norm2(x); math.Abs(got-math.Sqrt(sumsq)) > 1e-10 {
			return fmt.Errorf("Norm2=%g", got)
		}
		if got := Count(x, func(v float64) bool { return v > 0 }); got != dense.Count(ref, func(v float64) bool { return v > 0 }) {
			return fmt.Errorf("Count=%d", got)
		}
		return nil
	})
}

func TestReductions2D(t *testing.T) {
	onRanks(t, []int{3}, func(ctx *core.Context) error {
		x := core.FromFunc(ctx, []int{5, 4}, func(g []int) float64 { return float64(g[0]*4 + g[1]) })
		if got := Sum(x); got != 190 { // sum 0..19
			return fmt.Errorf("Sum=%g", got)
		}
		if got := ArgMax(x); got != 19 {
			return fmt.Errorf("ArgMax=%d", got)
		}
		return nil
	})
}

func TestSumAxisMatchesSerial(t *testing.T) {
	onRanks(t, sizes, func(ctx *core.Context) error {
		// 5x4 array distributed along axis 0.
		x := core.FromFunc(ctx, []int{5, 4}, func(g []int) float64 { return float64(10*g[0] + g[1]) })
		serial := dense.FromSlice(x.Gather().Flatten(), 5, 4)

		// Axis 1 (non-distributed): local reduction, result 1-d of length 5.
		rows := SumAxis(x, 1)
		wantRows := dense.SumAxis(serial, 1)
		if !dense.AllClose(rows.Gather(), wantRows, 0, 0) {
			return fmt.Errorf("axis-1 sums differ: %v vs %v", rows.Gather(), wantRows)
		}
		// Axis 0 (distributed): allreduce, result 1-d of length 4.
		cols := SumAxis(x, 0)
		wantCols := dense.SumAxis(serial, 0)
		if !dense.AllClose(cols.Gather(), wantCols, 0, 0) {
			return fmt.Errorf("axis-0 sums differ: %v vs %v", cols.Gather(), wantCols)
		}
		return nil
	})
}

func TestSumAxis3D(t *testing.T) {
	onRanks(t, []int{3}, func(ctx *core.Context) error {
		x := core.FromFunc(ctx, []int{4, 3, 2}, func(g []int) float64 {
			return float64(100*g[0] + 10*g[1] + g[2])
		}, core.Options{Axis: 1})
		serial := dense.FromSlice(x.Gather().Flatten(), 4, 3, 2)
		for axis := 0; axis < 3; axis++ {
			got := SumAxis(x, axis)
			want := dense.SumAxis(serial, axis)
			if !dense.AllClose(got.Gather(), want, 0, 0) {
				return fmt.Errorf("axis %d differs", axis)
			}
		}
		return nil
	})
}

func TestSumAxisValidation(t *testing.T) {
	onRanks(t, []int{2}, func(ctx *core.Context) error {
		for name, fn := range map[string]func(){
			"1d":       func() { SumAxis(core.Zeros[float64](ctx, []int{4}), 0) },
			"bad-axis": func() { SumAxis(core.Zeros[float64](ctx, []int{2, 2}), 5) },
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

func TestProdIntExact(t *testing.T) {
	onRanks(t, []int{2}, func(ctx *core.Context) error {
		x := core.FromFunc(ctx, []int{5}, func(g []int) int64 { return int64(g[0] + 1) })
		if got := Prod(x); got != 120 {
			return fmt.Errorf("Prod=%d", got)
		}
		return nil
	})
}

func TestCumSumMatchesSerial(t *testing.T) {
	onRanks(t, sizes, func(ctx *core.Context) error {
		n := 33
		x := core.FromFunc(ctx, []int{n}, func(g []int) float64 { return float64(g[0]%7) - 2 })
		got := CumSum(x).Gather()
		acc := 0.0
		for g := 0; g < n; g++ {
			acc += float64(g%7) - 2
			if math.Abs(got.At(g)-acc) > 1e-12 {
				return fmt.Errorf("cumsum[%d]=%g want %g", g, got.At(g), acc)
			}
		}
		return nil
	})
}

func TestCumSumRejectsCyclic(t *testing.T) {
	onRanks(t, []int{2}, func(ctx *core.Context) error {
		x := core.Zeros[float64](ctx, []int{8}, core.Options{Kind: distmap.Cyclic})
		ok := func() (ok bool) {
			defer func() { ok = recover() != nil }()
			CumSum(x)
			return false
		}()
		if !ok {
			return fmt.Errorf("expected panic")
		}
		return nil
	})
}

func TestDotWithRedistribution(t *testing.T) {
	onRanks(t, sizes, func(ctx *core.Context) error {
		n := 19
		x := core.FromFunc(ctx, []int{n}, func(g []int) float64 { return float64(g[0]) })
		y := core.FromFunc(ctx, []int{n}, func(g []int) float64 { return 2 },
			core.Options{Kind: distmap.Cyclic})
		want := 2.0 * float64(n*(n-1)) / 2
		if got := Dot(x, y); got != want {
			return fmt.Errorf("Dot=%g want %g", got, want)
		}
		return nil
	})
}

func TestAllClose(t *testing.T) {
	onRanks(t, []int{2}, func(ctx *core.Context) error {
		x := core.Linspace[float64](ctx, 0, 1, 20)
		y := core.Linspace[float64](ctx, 0, 1, 20, core.Options{Kind: distmap.Cyclic})
		if !AllClose(x, y, 1e-12, 1e-12) {
			return fmt.Errorf("equal arrays not close")
		}
		z := Scalar(x, 1.0, func(v, s float64) float64 { return v + s })
		if AllClose(x, z, 1e-3, 1e-3) {
			return fmt.Errorf("shifted arrays close")
		}
		if AllClose(x, core.Zeros[float64](ctx, []int{19}), 1, 1) {
			return fmt.Errorf("shape mismatch close")
		}
		return nil
	})
}

// Property: distributed ufunc+reduction pipeline equals the serial one for
// random inputs and random rank counts.
func TestPipelineEquivalenceQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(60)
		p := 1 + rng.Intn(4)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.NormFloat64()
		}
		// Serial reference: sum(|sin(v)| + v^2).
		want := 0.0
		for _, v := range vals {
			want += math.Abs(math.Sin(v)) + v*v
		}
		ok := true
		err := comm.Run(p, func(c *comm.Comm) error {
			ctx := core.NewContext(c)
			x := core.FromFunc(ctx, []int{n}, func(g []int) float64 { return vals[g[0]] })
			got := Sum(Add(Abs(Sin(x)), Mul(x, x)))
			if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
				return fmt.Errorf("got %g want %g", got, want)
			}
			return nil
		})
		if err != nil {
			ok = false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestStrategyString(t *testing.T) {
	for s, want := range map[Strategy]string{StrategyAuto: "auto", StrategyImportLeft: "import-left", StrategyImportRight: "import-right", Strategy(9): "Strategy(9)"} {
		if s.String() != want {
			t.Errorf("%v != %s", s, want)
		}
	}
}

func TestEmptyReductionsPanic(t *testing.T) {
	onRanks(t, []int{1}, func(ctx *core.Context) error {
		x := core.Zeros[float64](ctx, []int{0})
		for _, fn := range []func(){
			func() { Min(x) }, func() { Max(x) }, func() { Mean(x) },
			func() { ArgMax(x) },
		} {
			ok := func() (ok bool) {
				defer func() { ok = recover() != nil }()
				fn()
				return false
			}()
			if !ok {
				return fmt.Errorf("expected panic on empty reduction")
			}
		}
		return nil
	})
}
