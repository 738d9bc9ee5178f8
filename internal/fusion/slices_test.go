package fusion

import (
	"math"
	"testing"

	"odinhpc/internal/comm"
	"odinhpc/internal/core"
	"odinhpc/internal/exec"
)

func sliceRef(e *Expr, leaves [][]float64, scalars []float64, out []float64) {
	// Closure-tree reference for ExecuteSlots: evaluate elementwise with the
	// same per-node rounding the VM (and its superinstructions) perform.
	var ev func(e *Expr, i int) float64
	ev = func(e *Expr, i int) float64 {
		switch e.kind {
		case kindSliceLeaf:
			return leaves[e.slot][i]
		case kindScalarLeaf:
			return scalars[e.slot]
		case kindConst:
			return e.value
		case kindUnary:
			return e.un(ev(e.args[0], i))
		default:
			return e.bin(ev(e.args[0], i), ev(e.args[1], i))
		}
	}
	for i := range out {
		out[i] = ev(e, i)
	}
}

func TestEvalSlicesMatchesReference(t *testing.T) {
	old := exec.Default()
	defer exec.SetDefault(old)
	exprs := map[string]struct {
		build func() *Expr
		nin   int
	}{
		"axpy":  {func() *Expr { return Const(2.5).Mul(SliceSlot(0)).Add(SliceSlot(1)) }, 2},
		"saxpy": {func() *Expr { return ScalarSlot(0).Mul(SliceSlot(0)).Add(SliceSlot(1)) }, 2},
		"pyops": {func() *Expr {
			x, s := SliceSlot(0), ScalarSlot(1)
			return x.Mod(s).Add(x.FloorDiv(ScalarSlot(0))).Sub(Log(Abs(x)).Pow(s)).Add(s.Mod(x))
		}, 1},
		"scalar-root": {func() *Expr { return ScalarSlot(1) }, 0},
		"dedup":       {func() *Expr { x := SliceSlot(0); return x.Mul(x).Add(x) }, 1},
		"mix": {func() *Expr {
			t := SliceSlot(0).Mul(SliceSlot(1)).Sub(SliceSlot(2))
			return Sqrt(Abs(t)).Add(Exp(Neg(Abs(t)))).Div(Const(1).Add(Sqrt(Abs(t))))
		}, 3},
		"deep16": {func() *Expr {
			e := SliceSlot(0)
			for i := 0; i < 16; i++ {
				e = e.Mul(Const(1.000001)).Add(SliceSlot(1))
			}
			return e
		}, 2},
	}
	for _, workers := range []int{1, 2, 4} {
		exec.SetDefaultWorkers(workers)
		for name, tc := range exprs {
			for _, n := range []int{0, 1, 17, 1000} {
				leaves := make([][]float64, tc.nin)
				for s := range leaves {
					leaves[s] = make([]float64, n)
					for i := range leaves[s] {
						leaves[s][i] = float64((i+1)*(s+2)%37)/7 - 2
					}
				}
				scalars := []float64{-1.75, 3}
				got := make([]float64, n)
				Analyze(tc.build()).ExecuteSlots(got, leaves, scalars)
				want := make([]float64, n)
				sliceRef(tc.build(), leaves, scalars, want)
				for i := range got {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s w=%d n=%d: [%d] = %x, want %x", name, workers, n, i, got[i], want[i])
					}
				}
			}
		}
	}
}

func TestEvalSlicesConstRoot(t *testing.T) {
	// A leafless expression is rejected by Eval but is a slot plan to
	// Analyze: the root constant folds and the program is a single copy from
	// the const block.
	out := []float64{1, 2, 3}
	Analyze(Const(3).Add(Const(4))).ExecuteSlots(out, nil, nil)
	for i, v := range out {
		if v != 7 {
			t.Fatalf("[%d] = %g, want 7", i, v)
		}
	}
}

func TestEvalSlicesSharesPlanCache(t *testing.T) {
	ResetPlanCache()
	mk := func() *Expr { return SliceSlot(0).Mul(Const(3)).Add(SliceSlot(1)) }
	x, y := []float64{1, 2}, []float64{3, 4}
	out := make([]float64, 2)
	Analyze(mk()).ExecuteSlots(out, [][]float64{x, y}, nil)
	_, misses0 := PlanCacheStats()
	Analyze(mk()).ExecuteSlots(out, [][]float64{x, y}, nil)
	hits, misses := PlanCacheStats()
	if hits < 1 || misses != misses0 {
		t.Fatalf("rebuilt template should hit the plan cache: hits=%d misses=%d->%d", hits, misses0, misses)
	}
}

// TestScalarSlotKeyIsValueIndependent pins the reason scalar slots exist:
// one template evaluated with different runtime scalars is one cached
// program (a Const in the same place is one program per value), and a
// pooled scratch state never serves a stale scalar.
func TestScalarSlotKeyIsValueIndependent(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	out := make([]float64, 4)
	ResetPlanCache()
	for _, a := range []float64{2, -3, 0.5} {
		Analyze(ScalarSlot(0).Mul(SliceSlot(0)).Add(Const(1))).ExecuteSlots(out, [][]float64{x}, []float64{a})
		for i, v := range x {
			if out[i] != a*v+1 {
				t.Fatalf("a=%g: out[%d] = %g, want %g", a, i, out[i], a*v+1)
			}
		}
	}
	if hits, misses := PlanCacheStats(); hits != 2 || misses != 1 {
		t.Errorf("scalar-slot template: hits=%d misses=%d, want 2 and 1", hits, misses)
	}
	ResetPlanCache()
	for _, a := range []float64{2, -3, 0.5} {
		Analyze(Const(a).Mul(SliceSlot(0)).Add(Const(1))).ExecuteSlots(out, [][]float64{x}, nil)
	}
	if _, misses := PlanCacheStats(); misses != 3 {
		t.Errorf("constant template: misses=%d, want one per value (3)", misses)
	}
}

func TestSliceAndVarTemplatesShareOneProgram(t *testing.T) {
	// A slice expression and the structurally identical DistArray expression
	// serialize to the same key, so the second compiles to a cache hit.
	err := comm.Run(1, func(c *comm.Comm) error {
		ctx := core.NewContext(c)
		n := 32
		x := core.FromFunc(ctx, []int{n}, func(g []int) float64 { return float64(g[0]) })
		y := core.FromFunc(ctx, []int{n}, func(g []int) float64 { return 2 })
		ResetPlanCache()
		Eval(Var(x).Mul(Const(2)).Add(Var(y)))
		hits0, misses0 := PlanCacheStats()
		out := make([]float64, 8)
		Analyze(SliceSlot(0).Mul(Const(2)).Add(SliceSlot(1))).ExecuteSlots(out,
			[][]float64{make([]float64, 8), make([]float64, 8)}, nil)
		hits, misses := PlanCacheStats()
		if hits != hits0+1 || misses != misses0 {
			t.Errorf("slice template should reuse the Var program: hits %d->%d misses %d->%d",
				hits0, hits, misses0, misses)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestEvalSlicesPanics(t *testing.T) {
	expect := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	expect("negative slot", func() { SliceSlot(-1) })
	expect("negative scalar slot", func() { ScalarSlot(-1) })
	expect("too few scalars", func() {
		Analyze(SliceSlot(0).Mul(ScalarSlot(1))).ExecuteSlots([]float64{0}, [][]float64{{1}}, []float64{2})
	})
	expect("too few slices", func() {
		Analyze(SliceSlot(0).Add(SliceSlot(1))).ExecuteSlots([]float64{0}, [][]float64{{1}}, nil)
	})
	expect("length mismatch", func() {
		Analyze(SliceSlot(0).Add(SliceSlot(1))).ExecuteSlots([]float64{0}, [][]float64{{1}, {1, 2}}, nil)
	})
	expect("Execute of a slot plan", func() { Analyze(SliceSlot(0)).Execute() })
	expect("Sum of a slot plan", func() { Analyze(SliceSlot(0)).Sum() })
	expect("mixing Var and ScalarSlot", func() {
		err := comm.Run(1, func(c *comm.Comm) error {
			x := core.FromFunc(core.NewContext(c), []int{4}, func(g []int) float64 { return 1 })
			Eval(Var(x).Mul(ScalarSlot(0)))
			return nil
		})
		if err != nil {
			panic(err)
		}
	})
	expect("mixing Var and SliceSlot", func() {
		// comm.Run recovers callback panics into its error; re-raise.
		err := comm.Run(1, func(c *comm.Comm) error {
			ctx := core.NewContext(c)
			x := core.FromFunc(ctx, []int{4}, func(g []int) float64 { return 1 })
			Analyze(Var(x).Add(SliceSlot(0)))
			return nil
		})
		if err != nil {
			panic(err)
		}
	})
}
