package fusion

// Property tests for the superinstruction peephole pass: programs emitted
// with the pass must be bitwise identical to the closure reference
// evaluator, which knows no superinstructions, over random mul/add-heavy
// DAGs (the shapes the pass actually rewrites), at every pool size and rank
// count, including NaN/Inf element paths. Shape tests pin the selection
// rules themselves — what fuses, and just as importantly what must not.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"odinhpc/internal/comm"
	"odinhpc/internal/core"
	"odinhpc/internal/exec"
)

// mulAddGen builds random DAGs biased toward the fusable shapes: long
// Horner chains, axpy-style const scaling, and shared products that the
// pass must leave materialized. Leaves include NaN and Inf elements.
type mulAddGen struct {
	r    *rand.Rand
	vars []*Expr
	pool []*Expr
}

func (g *mulAddGen) leaf() *Expr { return g.vars[g.r.Intn(len(g.vars))] }

func (g *mulAddGen) gen(h int) *Expr {
	if h <= 0 {
		return g.leaf()
	}
	roll := g.r.Float64()
	if roll < 0.15 && len(g.pool) > 0 {
		return g.pool[g.r.Intn(len(g.pool))]
	}
	a := g.gen(h - 1)
	var e *Expr
	switch g.r.Intn(10) {
	case 0, 1: // Horner step: the fma/fma2 shape
		e = a.Mul(g.gen(h - 1)).Add(g.leaf())
	case 2: // mirrored add: fmar
		e = g.leaf().Add(a.Mul(g.gen(h - 1)))
	case 3: // fms
		e = a.Mul(g.gen(h - 1)).Sub(g.leaf())
	case 4: // fmsr
		e = g.leaf().Sub(a.Mul(g.gen(h - 1)))
	case 5: // axpy: const scale then add
		e = a.Mul(Const(math.Round(g.r.NormFloat64()*8) / 4)).Add(g.leaf())
	case 6: // axpyr with the const on the other side of the product
		e = g.leaf().Add(Const(g.r.NormFloat64()).Mul(a))
	case 7: // shared product: both consumers must read a materialized mul
		m := a.Mul(g.leaf())
		e = m.Add(m.Mul(g.leaf()))
	case 8:
		e = a.Mul(g.gen(h - 1))
	default:
		e = a.Add(g.gen(h - 1))
	}
	g.pool = append(g.pool, e)
	return e
}

// opCount tallies the compiled program's opcodes.
func opCount(p *vmProgram) map[vmOp]int {
	m := map[vmOp]int{}
	for _, ins := range p.code {
		m[ins.op]++
	}
	return m
}

func TestSuperinstructionBitwise(t *testing.T) {
	const nExprs = 20
	const n = 163
	const maxDepth = 6
	old := exec.Default()
	defer exec.SetDefault(old)

	refs := make([][]uint64, nExprs)
	for _, w := range []int{1, 4, 7} {
		exec.SetDefault(exec.New(exec.WithWorkers(w)))
		for _, p := range []int{1, 2, 4} {
			label := fmt.Sprintf("w=%d/P=%d", w, p)
			err := comm.Run(p, func(c *comm.Comm) error {
				ctx := core.NewContext(c)
				ctx.SetControlMessages(false)
				// Element-wise leaves include a NaN with a distinctive
				// payload: kernels must propagate it exactly as the
				// two-instruction sequences do.
				vars := []*Expr{
					Var(core.FromFunc(ctx, []int{n}, func(g []int) float64 { return float64(g[0])/8 - 9 })),
					Var(core.FromFunc(ctx, []int{n}, func(g []int) float64 { return math.Cos(float64(2 * g[0])) })),
					Var(core.FromFunc(ctx, []int{n}, func(g []int) float64 {
						switch g[0] % 11 {
						case 0:
							return math.NaN()
						case 1:
							return math.Inf(1)
						case 2:
							return math.Inf(-1)
						case 3:
							return 0
						default:
							return float64(g[0]%13) - 6
						}
					})),
				}
				// Accumulator leaves carry Inf, signed zero, but no NaN
				// payloads: every NaN a fold meets is then the hardware's
				// canonical quiet NaN (0*Inf, Inf-Inf), so the comparison is
				// exact. Two *distinct* payloads meeting in `acc += v` are
				// outside the bitwise contract — the compiler may commute a
				// float add, and two differently-compiled folds can then keep
				// opposite operands' payloads (the elementwise kernels are
				// single rounded statements, where this cannot happen).
				sumVars := []*Expr{
					vars[0], vars[1],
					Var(core.FromFunc(ctx, []int{n}, func(g []int) float64 {
						switch g[0] % 11 {
						case 0:
							return math.Copysign(0, -1)
						case 1:
							return math.Inf(1)
						case 2:
							return math.Inf(-1)
						case 3:
							return 0
						default:
							return float64(g[0]%13) - 6
						}
					})),
				}
				for k := 0; k < nExprs; k++ {
					seed := int64(907 + 131*k)
					g := &mulAddGen{r: rand.New(rand.NewSource(seed)), vars: vars}
					e := g.gen(maxDepth)
					gs := &mulAddGen{r: rand.New(rand.NewSource(seed)), vars: sumVars}
					es := gs.gen(maxDepth) // same structure over the sum-safe leaves

					plan := Analyze(e)
					fused := gatherBits(plan.Execute())
					cl := gatherBits(plan.executeClosure(e))
					planS := Analyze(es)
					fusedSum := planS.sumLocal()
					closureSum := planS.sumLocalClosure(es)

					if err := diffBits(fused, cl); err != nil {
						return fmt.Errorf("expr %d (%s): fused != closure: %v", k, e, err)
					}
					if fb, cb := math.Float64bits(fusedSum), math.Float64bits(closureSum); fb != cb {
						return fmt.Errorf("expr %d (%s): sums diverge: fused %x closure %x", k, es, fb, cb)
					}
					if c.Rank() == 0 {
						if refs[k] == nil {
							refs[k] = fused
						} else if err := diffBits(fused, refs[k]); err != nil {
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

// TestSuperinstructionShapes pins the selection rules on hand-built
// expressions: what fuses into which opcode, and which shapes must stay
// unfused.
func TestSuperinstructionShapes(t *testing.T) {
	err := comm.Run(1, func(c *comm.Comm) error {
		ctx := core.NewContext(c)
		ctx.SetControlMessages(false)
		x := Var(core.Linspace[float64](ctx, 0, 1, 32))
		y := Var(core.Linspace[float64](ctx, 1, 2, 32))

		check := func(name string, e *Expr, want map[vmOp]int) error {
			prog := Analyze(e).prog
			got := opCount(prog)
			for op, n := range want {
				if got[op] != n {
					return fmt.Errorf("%s: want %d %s, got %d\n%s", name, n, vmOpNames[op], got[op], prog.String())
				}
			}
			total := 0
			for _, n := range want {
				total += n
			}
			if len(prog.code) != total {
				return fmt.Errorf("%s: want %d instrs total, got %d\n%s", name, total, len(prog.code), prog.String())
			}
			return nil
		}

		horner := x
		for i := 0; i < 16; i++ {
			horner = horner.Mul(y).Add(x)
		}
		for name, tc := range map[string]struct {
			e    *Expr
			want map[vmOp]int
		}{
			"fma":           {x.Mul(y).Add(x), map[vmOp]int{vmFMA: 1}},
			"fmar":          {x.Add(y.Mul(x)), map[vmOp]int{vmFMAR: 1}},
			"fms":           {x.Mul(y).Sub(x), map[vmOp]int{vmFMS: 1}},
			"fmsr":          {x.Sub(y.Mul(x)), map[vmOp]int{vmFMSR: 1}},
			"axpy":          {x.Mul(Const(2.5)).Add(y), map[vmOp]int{vmAXPY: 1}},
			"axpy-constl":   {Const(2.5).Mul(x).Add(y), map[vmOp]int{vmAXPY: 1}},
			"axpyr":         {y.Add(x.Mul(Const(-3))), map[vmOp]int{vmAXPYR: 1}},
			"horner-16":     {horner, map[vmOp]int{vmFMA2: 8}},
			"horner-odd":    {x.Mul(y).Add(x).Mul(y).Add(x).Mul(y).Add(x), map[vmOp]int{vmFMA2: 1, vmFMA: 1}},
			"plain-mul":     {x.Mul(y), map[vmOp]int{vmMul: 1}},
			"div-add":       {x.Div(y).Add(x), map[vmOp]int{vmDiv: 1, vmAdd: 1}},
			"sum-of-prods":  {x.Mul(y).Add(y.Mul(x).Square()), map[vmOp]int{vmMul: 1, vmSquare: 1, vmFMA: 1}},
			"axpy-nan-mul":  {x.Mul(Const(math.NaN())).Add(y), map[vmOp]int{vmFMA: 1}},
			"fma-const-add": {x.Mul(y).Add(Const(4)), map[vmOp]int{vmFMA: 1}},
		} {
			if err := check(name, tc.e, tc.want); err != nil {
				return err
			}
		}

		// A product with two consumers must stay materialized: CSE merges
		// the two x*y nodes, so the fused program keeps one mul and reads
		// its register twice.
		m1, m2 := x.Mul(y), x.Mul(y)
		shared := m1.Add(m2.Mul(m2))
		prog := Analyze(shared).prog
		got := opCount(prog)
		if got[vmMul] != 1 || got[vmFMA]+got[vmFMAR] != 1 {
			return fmt.Errorf("shared product: want 1 mul + 1 fma-family, got %v\n%s", got, prog.String())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSuperinstructionSumTails holds the sum of every root shape
// (rootShapes) to the closure fold, bitwise, on one rank at lengths inside
// one VM block, at an exact block multiple, and one element past it, so the
// sum lanes run across a block end.
func TestSuperinstructionSumTails(t *testing.T) {
	err := comm.Run(1, func(c *comm.Comm) error {
		ctx := core.NewContext(c)
		ctx.SetControlMessages(false)
		for _, n := range []int{777, 2 * vmBlock, 2*vmBlock + 1} {
			for name, e := range rootShapes(ctx, n) {
				plan := Analyze(e)
				got := math.Float64bits(plan.sumLocal())
				want := math.Float64bits(plan.sumLocalClosure(e))
				if got != want {
					return fmt.Errorf("%s (n=%d): sum %x != closure %x", name, n, got, want)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// BenchmarkFusionCompile measures the compile path (lowering, cache lookup
// and leaf binding) for a depth-16 chain that is already cached — the
// steady state of a solver loop rebuilding its expression every iteration.
// The allocs number is what the constKey satellite fix targets.
func BenchmarkFusionCompile(b *testing.B) {
	err := comm.Run(1, func(c *comm.Comm) error {
		ctx := core.NewContext(c)
		ctx.SetControlMessages(false)
		x := core.Linspace[float64](ctx, 0, 1, 64)
		y := core.Linspace[float64](ctx, 1, 2, 64)
		build := func() *Expr {
			e := Var(x)
			for i := 0; i < 16; i++ {
				e = e.Mul(Var(y)).Add(Const(0.5))
			}
			return e
		}
		Analyze(build()) // warm the cache
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			Analyze(build())
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}
