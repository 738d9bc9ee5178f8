package compile

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"odinhpc/internal/comm"
	"odinhpc/internal/core"
	"odinhpc/internal/fusion"
	"odinhpc/internal/seamless"
	"odinhpc/internal/seamless/compile/exprtable"
	"odinhpc/internal/seamless/vm"
)

// arrayKernels exercises whole-array expressions as kernels use them:
// saxpy, chains, neg, elementwise builtins, runtime scalars, **, //, %,
// log, broadcasts on both sides, augmented assignment, module calls as
// leaves, and fused templates re-entered from a loop.
const arrayKernels = `
def saxpy(x, y):
    return 2.5 * x + y

def chain(x, y, z):
    t = x * y - z
    u = sqrt(abs(t)) + exp(0.0 - abs(t))
    return u / (1.0 + u)

def dynscale(a, x, y):
    return a * x + y

def pymods(x):
    return x % 3.0 + x // 2.0 - x ** 2.0

def broadcast(x):
    return 2.0 / (x * x + 1.0) - (x - 1) * -3.0

def negate(x):
    return -(x + 0.5)

def logmix(x):
    return log(abs(x) + 1.0) * 2.0

def trig(x):
    return sin(x) * cos(x) + sqrt(abs(x))

def augarr(x, y):
    x = x + y
    x += y * 2.0
    x *= 1.5
    x /= 2.0
    return x

def deep(x, y):
    acc = x
    for i in range(16):
        acc = acc * 1.000001 + y
    return acc

def helper(x):
    return sin(x) * cos(x)

def throughcall(x, y):
    return helper(x + y) - helper(x - y)
`

func randArr(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.NormFloat64() * 3
	}
	return out
}

// TestArrayExprEnginesAgree pins the compiled engine's fused array
// expressions bit for bit to the vm engine's boxed elementwise loops.
func TestArrayExprEnginesAgree(t *testing.T) {
	pc, err := seamless.CompileSource(arrayKernels)
	if err != nil {
		t.Fatal(err)
	}
	pv, err := seamless.CompileSource(arrayKernels)
	if err != nil {
		t.Fatal(err)
	}
	ec, ev := NewEngine(pc), vm.NewEngine(pv)
	rng := rand.New(rand.NewSource(1))
	clone := func(a []float64) seamless.Value {
		return seamless.ArrFV(append([]float64(nil), a...))
	}
	check := func(name string, args ...[]float64) {
		t.Helper()
		cargs := make([]seamless.Value, len(args))
		vargs := make([]seamless.Value, len(args))
		for i, a := range args {
			cargs[i], vargs[i] = clone(a), clone(a)
		}
		cv, err := ec.Call(name, cargs...)
		if err != nil {
			t.Fatalf("%s compiled: %v", name, err)
		}
		vv, err := ev.Call(name, vargs...)
		if err != nil {
			t.Fatalf("%s vm: %v", name, err)
		}
		if cv.K != seamless.TArrFloat || vv.K != seamless.TArrFloat {
			t.Fatalf("%s: kinds %v / %v, want float arrays", name, cv.K, vv.K)
		}
		if len(cv.AF) != len(vv.AF) {
			t.Fatalf("%s: lengths %d vs %d", name, len(cv.AF), len(vv.AF))
		}
		for i := range cv.AF {
			if math.Float64bits(cv.AF[i]) != math.Float64bits(vv.AF[i]) {
				t.Fatalf("%s: [%d] differs: %x vs %x", name, i, cv.AF[i], vv.AF[i])
			}
		}
	}
	// Sizes straddle the VM block boundary; zero-length arrays included.
	for _, n := range []int{0, 1, 7, 100, 1500} {
		x, y, z := randArr(rng, n), randArr(rng, n), randArr(rng, n)
		check("saxpy", x, y)
		check("chain", x, y, z)
		check("pymods", x)
		check("broadcast", x)
		check("negate", x)
		check("logmix", x)
		check("trig", x)
		check("augarr", x, y)
		check("deep", x, y)
		check("throughcall", x, y)
	}
	// Runtime scalar argument: one scalar-slot template, every value agrees.
	x, y := randArr(rng, 64), randArr(rng, 64)
	for _, a := range []float64{0, -1.5, 3.25} {
		ca, err := ec.Call("dynscale", seamless.FloatV(a), clone(x), clone(x))
		if err != nil {
			t.Fatal(err)
		}
		va, err := ev.Call("dynscale", seamless.FloatV(a), clone(x), clone(x))
		if err != nil {
			t.Fatal(err)
		}
		for i := range ca.AF {
			if math.Float64bits(ca.AF[i]) != math.Float64bits(va.AF[i]) {
				t.Fatalf("dynscale(%g): [%d] differs", a, i)
			}
		}
	}
	_ = y
}

// TestArrayFusionPlanCacheHits verifies the fast path actually runs on the
// fusion VM and is analyzed once: compiling the kernel (its first call)
// prepares one plan, a cache miss, and repeat calls run that plan without
// looking the cache up at all (the acceptance criterion's PlanCacheStats
// visibility).
func TestArrayFusionPlanCacheHits(t *testing.T) {
	prog, err := seamless.CompileSource("def saxpy(x, y):\n    return 2.5 * x + y\n")
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(prog)
	x := seamless.ArrFV([]float64{1, 2, 3, 4})
	y := seamless.ArrFV([]float64{5, 6, 7, 8})
	fusion.ResetPlanCache()
	if _, err := e.Call("saxpy", x, y); err != nil {
		t.Fatal(err)
	}
	hits0, misses0 := fusion.PlanCacheStats()
	if hits0 != 0 || misses0 != 1 {
		t.Fatalf("first call: hits=%d misses=%d, want one compiled plan (0 and 1)", hits0, misses0)
	}
	for i := 0; i < 3; i++ {
		if _, err := e.Call("saxpy", x, y); err != nil {
			t.Fatal(err)
		}
	}
	if hits1, misses1 := fusion.PlanCacheStats(); hits1 != hits0 || misses1 != misses0 {
		t.Fatalf("repeat calls looked the plan up again: hits %d -> %d, misses %d -> %d", hits0, hits1, misses0, misses1)
	}

	// A runtime scalar is a slot of the template, not a constant in it: the
	// same kernel called with two different values is one plan, prepared once.
	prog, err = seamless.CompileSource("def scale(a, x, y):\n    return (a * 2.0) * x + y // a\n")
	if err != nil {
		t.Fatal(err)
	}
	e = NewEngine(prog)
	fusion.ResetPlanCache()
	for _, a := range []float64{1.5, -4} {
		if _, err := e.Call("scale", seamless.FloatV(a), x, y); err != nil {
			t.Fatal(err)
		}
	}
	if hits, misses := fusion.PlanCacheStats(); hits != 0 || misses != 1 {
		t.Fatalf("two scalar values: hits=%d misses=%d, want exactly 0 and 1", hits, misses)
	}
}

// TestArrayExprPipelineDifferential runs every row three ways and compares
// them bit for bit per element: the stack VM (the oracle: boxed loops that
// share nothing with the lowering), the compiled engine (Lower over slice
// and scalar slots), and the lowering /v1/expr uses — ParseExpr, FreeNames,
// Lower over fusion.Var leaves — on 1, 2 and 4 ranks. There every name is
// an array, so a and k are bound to arrays holding the scalar's value.
func TestArrayExprPipelineDifferential(t *testing.T) {
	const n = 1500 // straddles the VM block size at every P
	rng := rand.New(rand.NewSource(7))
	const a, k = -1.75, int64(7)
	data := map[string][]float64{"x": randArr(rng, n), "y": randArr(rng, n), "a": make([]float64, n), "k": make([]float64, n)}
	for i := 0; i < n; i++ {
		data["a"][i], data["k"][i] = a, float64(k)
	}
	for _, src := range exprtable.Sources {
		kernel := "def f(x, y, a, k):\n    return " + src + "\n"
		args := func() []seamless.Value {
			return []seamless.Value{
				seamless.ArrFV(append([]float64(nil), data["x"]...)),
				seamless.ArrFV(append([]float64(nil), data["y"]...)),
				seamless.FloatV(a), seamless.IntV(k),
			}
		}
		prog, err := seamless.CompileSource(kernel)
		if err != nil {
			t.Errorf("%q: %v", src, err)
			continue
		}
		oracle, err := vm.NewEngine(prog).Call("f", args()...)
		if err != nil || oracle.K != seamless.TArrFloat {
			t.Errorf("%q: stack VM: %v (%v)", src, err, oracle.K)
			continue
		}
		same := func(who string, got []float64) {
			t.Helper()
			if len(got) != n {
				t.Errorf("%q: %s returned %d elements, want %d", src, who, len(got), n)
				return
			}
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(oracle.AF[i]) {
					t.Errorf("%q: %s [%d] = %x (%g), stack VM %x (%g)", src, who, i,
						math.Float64bits(got[i]), got[i], math.Float64bits(oracle.AF[i]), oracle.AF[i])
					return
				}
			}
		}

		prog, err = seamless.CompileSource(kernel)
		if err != nil {
			t.Fatal(err)
		}
		compiled, err := NewEngine(prog).Call("f", args()...)
		if err != nil {
			t.Errorf("%q: compiled engine: %v", src, err)
			continue
		}
		same("compiled engine", compiled.AF)

		ast, err := seamless.ParseExpr(src)
		if err != nil {
			t.Errorf("%q: ParseExpr: %v", src, err)
			continue
		}
		names, err := FreeNames(ast, nil)
		if err != nil {
			t.Errorf("%q: FreeNames: %v", src, err)
			continue
		}
		for _, p := range []int{1, 2, 4} {
			var served []float64
			err := comm.Run(p, func(c *comm.Comm) error {
				ctx := core.NewContext(c)
				leaves := map[string]*fusion.Expr{}
				for _, name := range names {
					vals := data[name]
					leaves[name] = fusion.Var(core.FromFunc(ctx, []int{n}, func(g []int) float64 { return vals[g[0]] }))
				}
				root, err := Lower(ast, func(e seamless.Expr) (*fusion.Expr, error) {
					if nx, ok := e.(*seamless.NameExpr); ok {
						return leaves[nx.Name], nil
					}
					return nil, nil
				})
				if err != nil {
					return err
				}
				out := fusion.Eval(root).Gather().Flatten()
				if c.Rank() == 0 {
					served = out
				}
				return nil
			})
			if err != nil {
				t.Errorf("%q: served lowering at P=%d: %v", src, p, err)
				continue
			}
			same(fmt.Sprintf("served lowering at P=%d", p), served)
		}
	}
}

// TestArrayExprErrors pins the rejection and runtime-fault behavior of
// whole-array expressions in both engines.
func TestArrayExprErrors(t *testing.T) {
	const src = `
def add(a, b):
    return a + b

def neg(a):
    return -a
`
	for _, mk := range []func(*seamless.Program) interface {
		Call(string, ...seamless.Value) (seamless.Value, error)
	}{
		func(p *seamless.Program) interface {
			Call(string, ...seamless.Value) (seamless.Value, error)
		} {
			return NewEngine(p)
		},
		func(p *seamless.Program) interface {
			Call(string, ...seamless.Value) (seamless.Value, error)
		} {
			return vm.NewEngine(p)
		},
	} {
		prog, err := seamless.CompileSource(src)
		if err != nil {
			t.Fatal(err)
		}
		e := mk(prog)
		// Int arrays have no whole-array arithmetic.
		if _, err := e.Call("add", seamless.ArrIV([]int64{1}), seamless.ArrIV([]int64{2})); err == nil {
			t.Fatal("int-array arithmetic should be rejected")
		}
		if _, err := e.Call("neg", seamless.ArrIV([]int64{1})); err == nil {
			t.Fatal("int-array negation should be rejected")
		}
		// Mixed element kinds are rejected.
		if _, err := e.Call("add", seamless.ArrFV([]float64{1}), seamless.ArrIV([]int64{2})); err == nil {
			t.Fatal("float-array + int-array should be rejected")
		}
		// Length mismatches are runtime faults, not silent truncation.
		if _, err := e.Call("add", seamless.ArrFV([]float64{1, 2}), seamless.ArrFV([]float64{1, 2, 3})); err == nil {
			t.Fatal("length mismatch should be a runtime fault")
		}
	}
}
