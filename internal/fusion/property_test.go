package fusion

// Property test for the register VM: random expression DAGs (bounded
// depth, shared subtrees, constants, occasional user closures) must
// evaluate bitwise identically on the register VM, the closure reference
// evaluator, and the op-at-a-time naive path — at every worker-pool size
// and every rank count. Comparisons are on float64 bit patterns, so NaN
// and Inf paths (sqrt of negatives, division by zero) are covered too, and
// a global reference from the first (pool, ranks) combination pins
// cross-pool and cross-P bitwise stability. A fourth leaf interleaves values
// outside the four-lane kernels' domains (|x| >= 1<<29, NaN, ±Inf, exp's
// overflow and underflow, subnormals, -0) with ordinary ones, so the
// groups dense.VecSin, VecCos, VecExp and VecSqrt hand back to math meet
// every lane position at every rank count.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"odinhpc/internal/comm"
	"odinhpc/internal/core"
	"odinhpc/internal/exec"
)

// exprGen builds random DAGs. Reusing a node from the pool creates shared
// subtrees (the DAG part); constants appear only as one operand of a
// binary node, which every evaluator (including EvalNaive's Scalar
// folding) supports.
type exprGen struct {
	r    *rand.Rand
	vars []*Expr
	pool []struct {
		e *Expr
		h int
	}
}

func (g *exprGen) record(e *Expr, h int) *Expr {
	g.pool = append(g.pool, struct {
		e *Expr
		h int
	}{e, h})
	return e
}

// gen returns an expression of height at most h (leaves have height 0).
func (g *exprGen) gen(h int) (*Expr, int) {
	if h <= 0 {
		return g.vars[g.r.Intn(len(g.vars))], 0
	}
	roll := g.r.Float64()
	if roll < 0.22 && len(g.pool) > 0 {
		// Shared subtree: reuse a previously built node that fits.
		for try := 0; try < 4; try++ {
			n := g.pool[g.r.Intn(len(g.pool))]
			if n.h <= h {
				return n.e, n.h
			}
		}
	}
	if roll < 0.55 {
		a, ah := g.gen(h - 1)
		var e *Expr
		switch g.r.Intn(9) {
		case 0:
			e = a.Square()
		case 1:
			e = Sqrt(a)
		case 2:
			e = Sin(a)
		case 3:
			e = Cos(a)
		case 4:
			e = Exp(a)
		case 5:
			e = Abs(a)
		case 6:
			e = Neg(a)
		case 7:
			e = Log(a)
		default:
			k := g.r.NormFloat64()
			e = Unary("affine", func(v float64) float64 { return k*v + 0.5 }, a)
		}
		return g.record(e, ah+1), ah + 1
	}
	a, ah := g.gen(h - 1)
	var b *Expr
	bh := 0
	if g.r.Float64() < 0.25 {
		b = Const(math.Round(g.r.NormFloat64()*8) / 4) // includes 0 sometimes
	} else {
		b, bh = g.gen(h - 1)
	}
	if g.r.Intn(2) == 0 && b.kind != kindConst {
		a, b = b, a // exercise both operand orders
	}
	var e *Expr
	switch g.r.Intn(9) {
	case 0:
		e = a.Add(b)
	case 1:
		e = a.Sub(b)
	case 2:
		e = a.Mul(b)
	case 3:
		e = a.Div(b)
	case 4:
		e = Hypot(a, b)
	case 5:
		e = a.FloorDiv(b)
	case 6:
		e = a.Mod(b)
	case 7:
		e = a.Pow(b)
	default:
		w := g.r.Float64()
		e = Binary("mix", func(x, y float64) float64 { return w*x + (1-w)*y }, a, b)
	}
	h = max(ah, bh) + 1
	return g.record(e, h), h
}

func gatherBits(a *core.DistArray[float64]) []uint64 {
	flat := a.Gather().Flatten()
	out := make([]uint64, len(flat))
	for i, v := range flat {
		out[i] = math.Float64bits(v)
	}
	return out
}

func diffBits(a, b []uint64) error {
	if len(a) != len(b) {
		return fmt.Errorf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("[%d] %x != %x (%g vs %g)",
				i, a[i], b[i], math.Float64frombits(a[i]), math.Float64frombits(b[i]))
		}
	}
	return nil
}

// specialLeaf is the fourth leaf's value at global index g: every seventh
// element is the next of specials, the rest ordinary, so a special meets
// each of the four lane positions in turn and some groups hold none.
func specialLeaf(g int) float64 {
	specials := []float64{
		1 << 29, -3e9, math.NaN(), math.Inf(1), 709.8, math.Inf(-1), -745.5,
		5e-324, -1e-310, math.Copysign(0, -1), 1e300,
	}
	if g%7 == 3 {
		return specials[(g/7)%len(specials)]
	}
	return float64(g%11)/4 - 1.3
}

// propertyLeaves are the suite's four leaves over n elements: a ramp, a
// sine, a small-integer cycle with zeros for the 1/x paths, and specialLeaf.
func propertyLeaves(ctx *core.Context, n int) [4]*core.DistArray[float64] {
	return [4]*core.DistArray[float64]{
		core.FromFunc(ctx, []int{n}, func(g []int) float64 { return float64(g[0])/16 - 5 }),
		core.FromFunc(ctx, []int{n}, func(g []int) float64 { return math.Sin(float64(3 * g[0])) }),
		core.FromFunc(ctx, []int{n}, func(g []int) float64 { return float64(g[0]%7) - 3 }),
		core.FromFunc(ctx, []int{n}, func(g []int) float64 { return specialLeaf(g[0]) }),
	}
}

func TestPropertyRandomDAGs(t *testing.T) {
	const nExprs = 24
	const n = 171
	const maxDepth = 6
	old := exec.Default()
	defer exec.SetDefault(old)

	refs := make([][]uint64, 2*nExprs) // global reference, written by rank 0 of the first combo
	for _, w := range []int{1, 4, 7} {
		exec.SetDefault(exec.New(exec.WithWorkers(w)))
		for _, p := range []int{1, 2, 4} {
			label := fmt.Sprintf("w=%d/P=%d", w, p)
			err := comm.Run(p, func(c *comm.Comm) error {
				ctx := core.NewContext(c)
				ctx.SetControlMessages(false)
				var vars []*Expr
				for _, x := range propertyLeaves(ctx, n) {
					vars = append(vars, Var(x))
				}
				for k := range refs {
					// Seeded per expression index: every rank, pool size,
					// and rank count builds the identical DAG. The first
					// nExprs draw from the first three leaves, the rest
					// from all four.
					leaves := vars[:3]
					if k >= nExprs {
						leaves = vars
					}
					g := &exprGen{r: rand.New(rand.NewSource(int64(1357 + 31*k))), vars: leaves}
					e, _ := g.gen(maxDepth)
					plan := Analyze(e)
					vm := gatherBits(plan.Execute())
					cl := gatherBits(plan.executeClosure(e))
					nv := gatherBits(EvalNaive(e))
					if err := diffBits(vm, cl); err != nil {
						return fmt.Errorf("expr %d (%s): VM != closure: %v", k, e, err)
					}
					if err := diffBits(vm, nv); err != nil {
						return fmt.Errorf("expr %d (%s): VM != naive: %v", k, e, err)
					}
					if c.Rank() == 0 {
						if refs[k] == nil {
							refs[k] = vm
						} else if err := diffBits(vm, refs[k]); err != nil {
							return fmt.Errorf("expr %d: diverged from first-combo reference: %v", k, err)
						}
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
		}
	}
}
