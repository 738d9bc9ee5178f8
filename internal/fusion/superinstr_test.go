package fusion

// Property tests for the superinstruction peephole pass: programs emitted
// with the pass on must be bitwise identical to the unfused programs and
// to the closure reference evaluator, over random mul/add-heavy DAGs
// (the shapes the pass actually rewrites), at every pool size, rank
// count, and block size, including NaN/Inf element paths. Shape tests pin
// the selection rules themselves — what fuses, and just as importantly
// what must not.

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
	defer SetSuperinstructions(true)

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

					SetSuperinstructions(true)
					plan := Analyze(e)
					fused := gatherBits(plan.Execute())
					cl := gatherBits(plan.executeClosure(e))
					fusedSum := Analyze(es).sumLocal()

					SetSuperinstructions(false)
					planU := Analyze(e)
					unfused := gatherBits(planU.Execute())
					planUS := Analyze(es)
					unfusedSum := planUS.sumLocal()
					closureSum := planUS.sumLocalClosure(es)
					SetSuperinstructions(true)

					if err := diffBits(fused, unfused); err != nil {
						return fmt.Errorf("expr %d (%s): fused != unfused: %v", k, e, err)
					}
					if err := diffBits(fused, cl); err != nil {
						return fmt.Errorf("expr %d (%s): fused != closure: %v", k, e, err)
					}
					if fb, ub, cb := math.Float64bits(fusedSum), math.Float64bits(unfusedSum), math.Float64bits(closureSum); fb != ub || fb != cb {
						return fmt.Errorf("expr %d (%s): sums diverge: fused %x unfused %x closure %x", k, es, fb, ub, cb)
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

// TestSuperinstructionBlockInvariance pins that fused programs are
// block-size invariant: element-wise results bitwise identical, fused sum
// tails preserving the exact serial association per span.
func TestSuperinstructionBlockInvariance(t *testing.T) {
	defer SetBlockSize(DefaultBlockSize)
	defer SetSuperinstructions(true)
	err := comm.Run(1, func(c *comm.Comm) error {
		ctx := core.NewContext(c)
		ctx.SetControlMessages(false)
		const n = 5003
		x := core.FromFunc(ctx, []int{n}, func(g []int) float64 { return math.Sin(float64(g[0])) * 3 })
		y := core.FromFunc(ctx, []int{n}, func(g []int) float64 { return float64(g[0]%17) - 8 })
		build := func() *Expr {
			e := Var(x)
			for i := 0; i < 16; i++ {
				e = e.Mul(Var(y)).Add(Var(x))
			}
			return e.Mul(Const(0.75)).Add(Var(y))
		}
		SetBlockSize(DefaultBlockSize)
		ref := gatherBits(Eval(build()))
		//lint:allow p2pmatch SumEval reduces through one Allreduce inside the fusion engine, vetted by the fusion suite
		refSum := math.Float64bits(SumEval(build()))
		for _, bs := range []int{16, 64, 1000, 4096, 1 << 16} {
			SetBlockSize(bs)
			if err := diffBits(gatherBits(Eval(build())), ref); err != nil {
				return fmt.Errorf("block=%d: %v", bs, err)
			}
			if s := math.Float64bits(SumEval(build())); s != refSum {
				return fmt.Errorf("block=%d: sum %x != %x", bs, s, refSum)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSuperinstructionShapes pins the selection rules on hand-built
// expressions: what fuses into which opcode, and which shapes must stay
// unfused.
func TestSuperinstructionShapes(t *testing.T) {
	defer SetSuperinstructions(true)
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

		// Toggling the pass off must produce pair-free programs.
		SetSuperinstructions(false)
		prog = Analyze(horner).prog
		for _, ins := range prog.code {
			switch ins.op {
			case vmFMA, vmFMAR, vmFMS, vmFMSR, vmAXPY, vmAXPYR, vmFMA2:
				return fmt.Errorf("superinstructions off, but emitted %s\n%s", vmOpNames[ins.op], prog.String())
			}
		}
		SetSuperinstructions(true)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSuperinstructionSumTails drives every fused op+sum tail: the last
// instruction of a SumEval program streams into the accumulator without
// materializing the result block, and must match the closure fold bitwise.
func TestSuperinstructionSumTails(t *testing.T) {
	defer SetBlockSize(DefaultBlockSize)
	defer SetSuperinstructions(true)
	err := comm.Run(1, func(c *comm.Comm) error {
		ctx := core.NewContext(c)
		ctx.SetControlMessages(false)
		const n = 777
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
		exprs := map[string]*Expr{
			"copy-tail":   x,
			"add-tail":    x.Add(y),
			"sub-tail":    x.Sub(y),
			"mul-tail":    x.Mul(y),
			"square-tail": x.Add(y).Square(),
			"fma-tail":    x.Mul(y).Add(x),
			"fmar-tail":   x.Add(y.Mul(x)),
			"fms-tail":    x.Mul(y).Sub(x),
			"fmsr-tail":   x.Sub(y.Mul(x)),
			"axpy-tail":   x.Mul(Const(1.5)).Add(y),
			"axpyr-tail":  y.Add(x.Mul(Const(-2))),
			"fma2-tail":   horner,
			"sqrt-tail":   Sqrt(x.Add(y)), // no fused accumulator: fallback path
			"div-tail":    x.Div(y),       // fallback path with Inf/zero divisors
		}
		for _, bs := range []int{64, DefaultBlockSize} {
			SetBlockSize(bs)
			for name, e := range exprs {
				plan := Analyze(e)
				got := math.Float64bits(plan.sumLocal())
				want := math.Float64bits(plan.sumLocalClosure(e))
				if got != want {
					return fmt.Errorf("%s (block=%d): sum %x != closure %x", name, bs, got, want)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSetSuperinstructionsResetsCache: flipping the pass must drop cached
// programs — they were emitted under the old setting and the structural
// key does not encode it.
func TestSetSuperinstructionsResetsCache(t *testing.T) {
	defer SetSuperinstructions(true)
	err := comm.Run(1, func(c *comm.Comm) error {
		ctx := core.NewContext(c)
		ctx.SetControlMessages(false)
		x := Var(core.Linspace[float64](ctx, 0, 1, 16))
		y := Var(core.Linspace[float64](ctx, 1, 2, 16))
		SetSuperinstructions(true)
		ResetPlanCache()
		if got := opCount(Analyze(x.Mul(y).Add(x)).prog); got[vmFMA] != 1 {
			return fmt.Errorf("expected fused program, got %v", got)
		}
		SetSuperinstructions(false)
		if got := opCount(Analyze(x.Mul(y).Add(x)).prog); got[vmFMA] != 0 {
			return fmt.Errorf("stale fused program served after toggle: %v", got)
		}
		if hits, misses := PlanCacheStats(); hits != 0 || misses != 1 {
			return fmt.Errorf("toggle did not reset cache stats: hits=%d misses=%d", hits, misses)
		}
		SetSuperinstructions(true)
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
