package fusion

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"odinhpc/internal/core"
	"odinhpc/internal/distmap"
	"odinhpc/internal/exec"
)

// bitsEqual compares two local arrays bitwise (NaN-safe, unlike ==).
func bitsEqual(a, b *core.DistArray[float64]) error {
	af, bf := a.Local().Flatten(), b.Local().Flatten()
	if len(af) != len(bf) {
		return fmt.Errorf("local sizes differ: %d vs %d", len(af), len(bf))
	}
	for i := range af {
		if math.Float64bits(af[i]) != math.Float64bits(bf[i]) {
			return fmt.Errorf("[%d] %x != %x (%g vs %g)",
				i, math.Float64bits(af[i]), math.Float64bits(bf[i]), af[i], bf[i])
		}
	}
	return nil
}

func TestVMMatchesClosureReference(t *testing.T) {
	onRanks(t, sizes, func(ctx *core.Context) error {
		n := 143
		x := core.FromFunc(ctx, []int{n}, func(g []int) float64 { return float64(g[0])/10 - 3 })
		y := core.FromFunc(ctx, []int{n}, func(g []int) float64 { return math.Cos(float64(g[0])) })
		exprs := []*Expr{
			Var(x),
			Var(x).Add(Var(y)),
			Sqrt(Var(x).Square().Add(Var(y).Square())),
			Exp(Neg(Var(x))).Mul(Var(y)).Sub(Const(0.5)).Div(Var(x)),
			Abs(Sin(Var(x)).Mul(Cos(Var(y)))),
			Hypot(Var(x), Var(y)),
			Var(x).FloorDiv(Var(y)).Add(Var(x).Mod(Var(y))), // both operand signs
			Var(x).Mod(Const(0)),                            // NaN
			Log(Var(x)).Add(Var(y).Pow(Var(x))),             // log of negatives, negative base to a fraction
			Var(x).Div(Var(y)),                              // hits zeros of cos -> Inf paths
			Sqrt(Var(x)),                                    // negative inputs -> NaN paths
			Unary("scaled", func(v float64) float64 { return 3*v + 1 }, Var(x).Mul(Var(y))),
			Binary("wsum", func(a, b float64) float64 { return 0.25*a + 0.75*b }, Var(x), Var(y)),
		}
		for i, e := range exprs {
			p := Analyze(e)
			if err := bitsEqual(p.Execute(), p.executeClosure(e)); err != nil {
				return fmt.Errorf("expr %d (%s): VM != closure: %v", i, e, err)
			}
		}
		return nil
	})
}

// rootShapes returns, over two length-n leaves (x with an Inf every 19
// elements, y with zeros), every root shape the superinstruction pass can
// leave as a program's last instruction, a leaf root, and roots it leaves
// alone.
func rootShapes(ctx *core.Context, n int) map[string]*Expr {
	x := Var(core.FromFunc(ctx, []int{n}, func(g []int) float64 {
		if g[0]%19 == 0 {
			return math.Inf(1)
		}
		return math.Sin(float64(g[0] * 3))
	}))
	y := Var(core.FromFunc(ctx, []int{n}, func(g []int) float64 { return float64(g[0]%23)*0.5 - 5 }))
	horner := x
	for i := 0; i < 4; i++ {
		horner = horner.Mul(y).Add(x)
	}
	return map[string]*Expr{
		"copy":   x,
		"add":    x.Add(y),
		"sub":    x.Sub(y),
		"mul":    x.Mul(y),
		"square": x.Add(y).Square(),
		"fma":    x.Mul(y).Add(x),
		"fmar":   x.Add(y.Mul(x)),
		"fms":    x.Mul(y).Sub(x),
		"fmsr":   x.Sub(y.Mul(x)),
		"axpy":   x.Mul(Const(1.5)).Add(y),
		"axpyr":  y.Add(x.Mul(Const(-2))),
		"fma2":   horner,
		"sqrt":   Sqrt(x.Add(y)),
		"hypot":  Sqrt(x.Square().Add(y.Square())),
		"div":    x.Div(y), // Inf and zero divisors
	}
}

// TestVMSumMatchesClosureReferenceAllPools holds the fused sum to the
// closure oracle's lane-order sum, bit for bit, for every root shape
// (rootShapes), at pools 1/2/4/7 and P = 1/3. The length spans VM blocks
// and exec chunks — five chunks at P = 1, two a rank at P = 3 — so the
// lanes run on across block ends and restart at chunk starts; the
// element-wise results the sums are taken over are held to the oracle
// across the same boundaries.
func TestVMSumMatchesClosureReferenceAllPools(t *testing.T) {
	old := exec.Default()
	defer exec.SetDefault(old)
	const n = 4*exec.DefaultGrain + 5
	for _, w := range []int{1, 2, 4, 7} {
		exec.SetDefault(exec.New(exec.WithWorkers(w)))
		onRanks(t, []int{1, 3}, func(ctx *core.Context) error {
			for name, e := range rootShapes(ctx, n) {
				p := Analyze(e)
				if err := bitsEqual(p.Execute(), p.executeClosure(e)); err != nil {
					return fmt.Errorf("w=%d %s: VM != closure: %v", w, name, err)
				}
				vm, cl := p.sumLocal(), p.sumLocalClosure(e)
				if math.Float64bits(vm) != math.Float64bits(cl) {
					return fmt.Errorf("w=%d %s: fused sum %x != closure sum %x", w, name, math.Float64bits(vm), math.Float64bits(cl))
				}
			}
			return nil
		})
	}
}

func TestPlanCacheHitOnRebuiltExpression(t *testing.T) {
	ResetPlanCache()
	defer ResetPlanCache()
	onRanks(t, []int{1}, func(ctx *core.Context) error {
		x := core.Random(ctx, []int{100}, 1)
		y := core.Random(ctx, []int{100}, 2)
		build := func() *Expr { return Sqrt(Var(x).Square().Add(Var(y).Square())) }
		_ = Eval(build())
		h, m := PlanCacheStats()
		if h != 0 || m != 1 {
			return fmt.Errorf("after first Eval: hits=%d misses=%d, want 0/1", h, m)
		}
		// A solver loop rebuilds the expression every iteration; each
		// rebuild must hit the cache, not recompile.
		for i := 0; i < 5; i++ {
			_ = Eval(build())
		}
		h, m = PlanCacheStats()
		if h != 5 || m != 1 {
			return fmt.Errorf("after rebuilds: hits=%d misses=%d, want 5/1", h, m)
		}
		// Structurally equal expression over different arrays shares the
		// same program.
		z := core.Random(ctx, []int{100}, 3)
		w := core.Random(ctx, []int{100}, 4)
		_ = Eval(Sqrt(Var(z).Square().Add(Var(w).Square())))
		h, m = PlanCacheStats()
		if h != 6 || m != 1 {
			return fmt.Errorf("different arrays, same structure: hits=%d misses=%d, want 6/1", h, m)
		}
		return nil
	})
}

func TestUserClosuresAreNotCached(t *testing.T) {
	ResetPlanCache()
	defer ResetPlanCache()
	onRanks(t, []int{1}, func(ctx *core.Context) error {
		x := core.FromFunc(ctx, []int{20}, func(g []int) float64 { return float64(g[0]) })
		scaled := func(k float64) *Expr {
			return Unary("scale", func(v float64) float64 { return k * v }, Var(x))
		}
		// Two closures from the same code pointer capture different state;
		// a cached program would silently reuse the first k.
		a := Eval(scaled(2))
		b := Eval(scaled(3))
		for g := 0; g < 20; g++ {
			if a.At(g) != 2*float64(g) || b.At(g) != 3*float64(g) {
				return fmt.Errorf("[%d] got %g/%g want %g/%g", g, a.At(g), b.At(g), 2*float64(g), 3*float64(g))
			}
		}
		if h, m := PlanCacheStats(); h != 0 || m != 0 {
			return fmt.Errorf("closure programs touched the cache: hits=%d misses=%d", h, m)
		}
		return nil
	})
}

func TestCSEMergesStructuralDuplicates(t *testing.T) {
	onRanks(t, []int{1}, func(ctx *core.Context) error {
		x := core.Random(ctx, []int{50}, 1)
		y := core.Random(ctx, []int{50}, 2)
		// Pointer-shared subtree.
		s := Var(x).Mul(Var(y))
		shared := s.Add(s)
		// Structurally equal but distinct nodes.
		dup := Var(x).Mul(Var(y)).Add(Var(x).Mul(Var(y)))
		for name, e := range map[string]*Expr{"shared": shared, "dup": dup} {
			p := Analyze(e)
			instrs, _ := p.Program()
			if instrs != 2 { // one mul + one add, not two muls
				return fmt.Errorf("%s: %d instructions, want 2\n%s", name, instrs, p.ProgramString())
			}
			if err := bitsEqual(p.Execute(), p.executeClosure(e)); err != nil {
				return fmt.Errorf("%s: %v", name, err)
			}
		}
		return nil
	})
}

func TestConstantFolding(t *testing.T) {
	onRanks(t, []int{1}, func(ctx *core.Context) error {
		x := core.FromFunc(ctx, []int{10}, func(g []int) float64 { return float64(g[0]) })
		// sin(0) + 2*3 folds to a single add of const 6... with sin(0)=0:
		// (x + (sin(0) + 2*3)) -> x + 6.
		e := Var(x).Add(Sin(Const(0)).Add(Const(2).Mul(Const(3))))
		p := Analyze(e)
		instrs, _ := p.Program()
		if instrs != 1 {
			return fmt.Errorf("%d instructions, want 1 (constants not folded)\n%s", instrs, p.ProgramString())
		}
		if len(p.prog.consts) != 1 || p.prog.consts[0] != 6 {
			return fmt.Errorf("consts = %v, want [6]", p.prog.consts)
		}
		got := p.Execute()
		for g := 0; g < 10; g++ {
			if got.At(g) != float64(g)+6 {
				return fmt.Errorf("[%d] = %g", g, got.At(g))
			}
		}
		// User closures must NOT be folded: a stateful closure is invoked
		// per element by the closure evaluator, so the VM keeps calling it.
		calls := 0
		st := Unary("counted", func(v float64) float64 { calls++; return v + 1 }, Const(1))
		_ = Eval(Var(x).Mul(st))
		if calls < 10 {
			return fmt.Errorf("user closure folded at compile time (%d calls)", calls)
		}
		return nil
	})
}

func TestRegisterPoolStaysSmall(t *testing.T) {
	onRanks(t, []int{1}, func(ctx *core.Context) error {
		x := core.Random(ctx, []int{64}, 1)
		y := core.Random(ctx, []int{64}, 2)
		// The hypot program needs exactly 2 registers: square/square/add/sqrt.
		p := Analyze(Sqrt(Var(x).Square().Add(Var(y).Square())))
		if instrs, regs := p.Program(); instrs != 4 || regs != 2 {
			return fmt.Errorf("hypot program: %d instrs, %d regs, want 4/2\n%s", instrs, regs, p.ProgramString())
		}
		// A long left-leaning chain reuses one register.
		e := Var(x).Add(Const(1))
		for i := 0; i < 30; i++ {
			e = Sqrt(e.Square().Add(Const(1)))
		}
		p = Analyze(e)
		if _, regs := p.Program(); regs > 2 {
			return fmt.Errorf("chain program uses %d regs, want <= 2", regs)
		}
		if err := bitsEqual(p.Execute(), p.executeClosure(e)); err != nil {
			return err
		}
		return nil
	})
}

func TestRootLeafCompilesToCopy(t *testing.T) {
	onRanks(t, []int{1, 3}, func(ctx *core.Context) error {
		x := core.Random(ctx, []int{77}, 9)
		p := Analyze(Var(x))
		if instrs, regs := p.Program(); instrs != 1 || regs != 1 {
			return fmt.Errorf("leaf program: %d instrs %d regs, want 1/1", instrs, regs)
		}
		got := p.Execute()
		if err := bitsEqual(got, x); err != nil {
			return err
		}
		// The result is a copy, not a view over x's storage.
		got.Local().Fill(0)
		if x.Local().At(0) == 0 && x.Local().Size() > 0 {
			return fmt.Errorf("Execute aliased the leaf storage")
		}
		return nil
	})
}

func TestPlanRedistributedCountsDistinctArrays(t *testing.T) {
	onRanks(t, []int{4}, func(ctx *core.Context) error {
		n := 48
		x := core.FromFunc(ctx, []int{n}, func(g []int) float64 { return float64(g[0]) })
		y := core.FromFunc(ctx, []int{n}, func(g []int) float64 { return float64(g[0]) + 1 },
			core.Options{Kind: distmap.Cyclic})
		// y appears three times (twice via one Var node, once via a fresh
		// Var node): one distinct array, one redistribution, one leaf slot.
		vy := Var(y)
		e := vy.Mul(vy).Add(Var(y)).Add(Var(x))
		if got := len(e.Leaves()); got != 2 {
			return fmt.Errorf("Leaves() = %d distinct arrays, want 2", got)
		}
		p := Analyze(e)
		if p.Redistributed != 1 {
			return fmt.Errorf("Redistributed = %d, want 1 (distinct arrays only)", p.Redistributed)
		}
		if len(p.leafData) != 2 || p.prog.nleaves != 2 {
			return fmt.Errorf("flattened %d leaves, program binds %d, want 2/2", len(p.leafData), p.prog.nleaves)
		}
		got := p.Execute()
		for g := 0; g < n; g++ {
			v := float64(g)
			want := (v+1)*(v+1) + (v + 1) + v
			if got.At(g) != want {
				return fmt.Errorf("[%d] = %g want %g", g, got.At(g), want)
			}
		}
		return nil
	})
}

func TestProgramString(t *testing.T) {
	onRanks(t, []int{1}, func(ctx *core.Context) error {
		x := core.Random(ctx, []int{10}, 1)
		y := core.Random(ctx, []int{10}, 2)
		p := Analyze(Sqrt(Var(x).Square().Add(Var(y).Square())))
		s := p.ProgramString()
		for _, want := range []string{"square", "add", "sqrt", "leaf0", "leaf1", "4 instrs", "2 regs"} {
			if !strings.Contains(s, want) {
				return fmt.Errorf("disassembly missing %q:\n%s", want, s)
			}
		}
		return nil
	})
}
