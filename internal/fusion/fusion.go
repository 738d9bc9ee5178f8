// Package fusion implements ODIN's distributed array expression analysis
// and loop fusion (§III: "ODIN can optimize distributed array expressions.
// These optimizations include: loop fusion, array expression analysis to
// select the appropriate communication strategy between worker nodes").
//
// An Expr is a lazy expression graph over distributed arrays. Eval analyzes
// the graph once — aligning non-conformable leaves with a single
// redistribution each — and then executes the whole expression in one fused
// sweep over the local data, allocating exactly one output array.
// EvalNaive executes the same graph one operation at a time with a
// temporary per node, which is what experiment E5 compares against.
//
// The fused sweep itself runs on a blocked register VM (vm.go): the DAG is
// lowered once to a linear program over scratch vector registers (with
// constant folding and CSE), cached by structural identity, and evaluated
// block by block with tight slice loops — see the "fusion VM" sections of
// README.md and DESIGN.md.
package fusion

import (
	"fmt"
	"math"

	"odinhpc/internal/comm"
	"odinhpc/internal/core"
	"odinhpc/internal/dense"
	"odinhpc/internal/exec"
	"odinhpc/internal/trace"
	"odinhpc/internal/ufunc"
)

// traceVM records one fused-sweep span: the plan key (Label), the VM block
// size (Tag), and the element bounds the sweep covered on this rank. s is
// non-nil by contract.
func traceVM(s *trace.Session, rank int32, lo, hi int, label string, t0 int64) {
	s.Emit(trace.Event{Kind: trace.KindVM, Rank: rank, Worker: -1,
		Peer: -1, Tag: vmBlock, Start: t0, Dur: s.Now() - t0,
		A: int64(lo), B: int64(hi), Label: label})
}

// Expr is a node in a lazy expression graph over float64 DistArrays.
type Expr struct {
	kind  exprKind
	leaf  *core.DistArray[float64]
	slot  int     // leaf slot for kindSliceLeaf / kindScalarLeaf (see SliceSlot, ScalarSlot)
	value float64 // for constants
	un    func(float64) float64
	bin   func(float64, float64) float64
	name  string
	vop   vmOp // register-VM opcode (vmCallUn/vmCallBin for user closures)
	args  []*Expr
}

type exprKind int

const (
	kindLeaf exprKind = iota
	kindConst
	kindUnary
	kindBinary
	kindSliceLeaf
	kindScalarLeaf
)

// Var wraps a distributed array as an expression leaf.
func Var(x *core.DistArray[float64]) *Expr {
	if x == nil {
		panic("fusion: Var(nil)")
	}
	return &Expr{kind: kindLeaf, leaf: x}
}

// Const wraps a scalar constant.
func Const(v float64) *Expr { return &Expr{kind: kindConst, value: v} }

// Unary builds a custom unary node. The function is opaque to the VM
// compiler: it is invoked per element (in blocked loops) and disables
// program caching and structural CSE for the node, since two closures can
// share a code pointer while capturing different state.
func Unary(name string, f func(float64) float64, a *Expr) *Expr {
	return &Expr{kind: kindUnary, un: f, name: name, vop: vmCallUn, args: []*Expr{a}}
}

// Binary builds a custom binary node (opaque to the VM, like Unary).
func Binary(name string, f func(float64, float64) float64, a, b *Expr) *Expr {
	return &Expr{kind: kindBinary, bin: f, name: name, vop: vmCallBin, args: []*Expr{a, b}}
}

// builtinUnary constructs a node the VM compiler recognizes by opcode; f is
// kept for EvalNaive and for constant folding.
func builtinUnary(name string, op vmOp, f func(float64) float64, a *Expr) *Expr {
	return &Expr{kind: kindUnary, un: f, name: name, vop: op, args: []*Expr{a}}
}

func builtinBinary(name string, op vmOp, f func(float64, float64) float64, a, b *Expr) *Expr {
	return &Expr{kind: kindBinary, bin: f, name: name, vop: op, args: []*Expr{a, b}}
}

// Add returns e + o.
func (e *Expr) Add(o *Expr) *Expr {
	return builtinBinary("add", vmAdd, func(a, b float64) float64 { return a + b }, e, o)
}

// Sub returns e - o.
func (e *Expr) Sub(o *Expr) *Expr {
	return builtinBinary("sub", vmSub, func(a, b float64) float64 { return a - b }, e, o)
}

// Mul returns e * o.
func (e *Expr) Mul(o *Expr) *Expr {
	return builtinBinary("mul", vmMul, func(a, b float64) float64 { return a * b }, e, o)
}

// Div returns e / o.
func (e *Expr) Div(o *Expr) *Expr {
	return builtinBinary("div", vmDiv, func(a, b float64) float64 { return a / b }, e, o)
}

// FloorDiv returns floor(e / o) — Python's float //.
func (e *Expr) FloorDiv(o *Expr) *Expr {
	return builtinBinary("floordiv", vmFloorDiv, func(a, b float64) float64 { return math.Floor(a / b) }, e, o)
}

// Mod returns e % o with Python semantics: the result has the divisor's sign.
func (e *Expr) Mod(o *Expr) *Expr { return builtinBinary("mod", vmMod, dense.FloorMod, e, o) }

// Pow returns e ** o.
func (e *Expr) Pow(o *Expr) *Expr { return builtinBinary("pow", vmPow, math.Pow, e, o) }

// Square returns e*e as a single unary node (no duplicated subtree walk).
func (e *Expr) Square() *Expr {
	return builtinUnary("square", vmSquare, func(v float64) float64 { return v * v }, e)
}

// Sqrt returns sqrt(e).
func Sqrt(e *Expr) *Expr { return builtinUnary("sqrt", vmSqrt, math.Sqrt, e) }

// Sin returns sin(e).
func Sin(e *Expr) *Expr { return builtinUnary("sin", vmSin, math.Sin, e) }

// Cos returns cos(e).
func Cos(e *Expr) *Expr { return builtinUnary("cos", vmCos, math.Cos, e) }

// Exp returns exp(e).
func Exp(e *Expr) *Expr { return builtinUnary("exp", vmExp, math.Exp, e) }

// Log returns the natural logarithm of e.
func Log(e *Expr) *Expr { return builtinUnary("log", vmLog, math.Log, e) }

// Abs returns |e|.
func Abs(e *Expr) *Expr { return builtinUnary("abs", vmAbs, math.Abs, e) }

// Neg returns -e.
func Neg(e *Expr) *Expr { return builtinUnary("neg", vmNeg, func(v float64) float64 { return -v }, e) }

// Hypot returns sqrt(a^2 + b^2) — the paper's hypot example as one fused
// expression.
func Hypot(a, b *Expr) *Expr { return builtinBinary("hypot", vmHypot, math.Hypot, a, b) }

// Leaves returns the distinct leaf arrays of the expression, in first-visit
// order.
// Test seam: the leaf order the plan tests bind against.
func (e *Expr) Leaves() []*core.DistArray[float64] {
	var out []*core.DistArray[float64]
	seen := map[*core.DistArray[float64]]bool{}
	var walk func(*Expr)
	walk = func(x *Expr) {
		if x.kind == kindLeaf {
			if !seen[x.leaf] {
				seen[x.leaf] = true
				out = append(out, x.leaf)
			}
			return
		}
		for _, a := range x.args {
			walk(a)
		}
	}
	walk(e)
	return out
}

// CountOps returns the number of operation nodes (each of which the naive
// evaluator materializes as a full temporary array).
func (e *Expr) CountOps() int {
	n := 0
	var walk func(*Expr)
	walk = func(x *Expr) {
		if x.kind == kindUnary || x.kind == kindBinary {
			n++
		}
		for _, a := range x.args {
			walk(a)
		}
	}
	walk(e)
	return n
}

// Plan is an analyzed expression: the compiled register program (shared with
// every structurally equal expression through the plan cache) bound to the
// flattened local data of this rank's aligned leaves, in the distribution of
// the first leaf. It is the reusable unit of evaluation — Eval and SumEval
// build one and run it once; a caller that evaluates the same expression
// over the same arrays again keeps the Plan and calls Execute or Sum.
//
// A plan of a slot expression (SliceSlot/ScalarSlot leaves, no Var) binds
// nothing: ExecuteSlots takes its leaves and scalars per call, so a kernel
// analyzed once runs over any frame's arrays without being lowered again.
//
// A Plan is immutable after Analyze and holds no scratch (each sweep borrows
// a vmState from the program's pool), so it may be shared and run
// concurrently. It keeps the program it was built with, whatever the plan
// cache does later. It aliases the storage of a contiguous leaf and
// snapshots a non-contiguous or redistributed one, so reuse it only while
// its leaves are unchanged. Its methods are local mode
// (§III.C): they issue no control message — whoever hands every rank the
// same Plan call has already done the master's job.
type Plan struct {
	model         *core.DistArray[float64] // nil for a slot plan
	leafData      [][]float64
	rank          int32 // trace lane: this rank, -1 (the process lane) for a slot plan
	prog          *vmProgram
	Redistributed int // distinct leaf arrays that needed realignment
	Ops           int // operation nodes, as Expr.CountOps counts them
}

// Program returns the compiled register program's size: the number of
// vector instructions and the scratch-register pool width.
func (p *Plan) Program() (instrs, regs int) { return len(p.prog.code), p.prog.nregs }

// ProgramString returns a disassembly of the compiled register program.
func (p *Plan) ProgramString() string { return p.prog.String() }

// Analyze validates the expression, aligns every leaf with the first leaf's
// distribution (redistributing where needed — the communication-strategy
// part of expression analysis), and compiles the register program (served
// from the plan cache when a structurally equal expression was compiled
// before). An array appearing k times in the expression is flattened and
// aligned once: leaves are deduplicated by identity, and Redistributed
// counts distinct arrays. Collective when redistribution occurs. An
// expression without Var leaves gives a slot plan, run by ExecuteSlots.
func Analyze(e *Expr) *Plan {
	lw, root := lower(e)
	if len(lw.leaves) == 0 {
		return &Plan{prog: lw.program(root), Ops: lw.ops, rank: -1}
	}
	return lw.bind(root)
}

// arrays returns the distribution a bound plan runs in; a slot plan has
// none.
func (p *Plan) arrays() *core.DistArray[float64] {
	if p.model == nil {
		panic("fusion: a slot plan runs through ExecuteSlots")
	}
	return p.model
}

// model returns the first Var leaf of the lowered expression, whose
// distribution and context the evaluation runs in.
func (lw *lowering) model() *core.DistArray[float64] {
	if len(lw.leaves) == 0 {
		panic("fusion: expression has no array leaves")
	}
	return lw.leaves[0]
}

// bind is Analyze past the walk: lw.leaves is already the distinct arrays
// in program slot order, so slot i binds to leafData[i].
func (lw *lowering) bind(root int) *Plan {
	model := lw.model()
	p := &Plan{model: model, Ops: lw.ops, rank: int32(model.Context().Rank()), leafData: make([][]float64, len(lw.leaves))}
	for i, l := range lw.leaves {
		// Conformable implies equal shapes, so the usual leaf is checked
		// without copying a shape out.
		if !l.ConformableWith(model) {
			if !sameShape(l.Shape(), model.Shape()) {
				panic(fmt.Sprintf("fusion: leaf shapes differ: %v vs %v", l.Shape(), model.Shape()))
			}
			if l.Axis() != model.Axis() {
				panic("fusion: leaves distributed over different axes")
			}
			l = core.Redistribute(l, model.Map())
			p.Redistributed++
		}
		if a := l.Local(); a.IsContiguous() {
			p.leafData[i] = a.Raw()
		} else {
			p.leafData[i] = a.Flatten()
		}
	}
	p.prog = lw.program(root)
	return p
}

// sweep is the operand of one fused sweep, handed by value to the exec
// engine's range functions so that neither ExecuteSlots (Execute's sweep)
// nor Sum builds a closure.
type sweep struct {
	p       *Plan
	leaves  [][]float64 // leaf slot i reads leaves[i]
	scalars []float64   // scalar slot i reads scalars[i]
	out     []float64   // ExecuteSlots' result; nil for Sum
}

// run sweeps [lo, hi) with scratch borrowed from the program's pool — into
// out for ExecuteSlots, into the returned lane sum of the chunk for Sum
// (sumSpan). A traced sweep records its KindVM span.
func (s sweep) run(lo, hi int) (sum float64) {
	if hi <= lo {
		return 0
	}
	prog := s.p.prog
	ts := trace.Active()
	var t0 int64
	if ts != nil {
		t0 = ts.Now()
	}
	st := prog.getState(s.scalars)
	if s.out != nil {
		prog.runSpan(st, s.leaves, s.out, lo, hi)
	} else {
		sum = prog.sumSpan(st, s.leaves, lo, hi)
	}
	prog.putState(st)
	if ts != nil {
		traceVM(ts, s.p.rank, lo, hi, prog.label, t0)
	}
	return sum
}

// Execute runs the compiled register program over cache-sized blocks,
// producing the result array in one sweep. The block sweep is chunked over
// the exec engine, so the fused expression gets intra-rank parallelism on
// top of the rank parallelism of the leaves' distribution; every worker
// evaluates with private scratch registers, and the final instruction of
// each block writes directly into the output.
func (p *Plan) Execute() *core.DistArray[float64] {
	local := p.arrays().Local()
	out := make([]float64, local.Size())
	p.ExecuteSlots(out, p.leafData, nil)
	return p.model.WithLocal(dense.FromSlice(out, local.Shape()...))
}

// sumLocal sums the expression over this rank's elements: one run per exec
// chunk, each chunk in the lane order, partials combined in the engine's
// fixed pairwise tree — the order of dense.DotSlices and dense.Sum.
func (p *Plan) sumLocal() float64 {
	return exec.ReduceRange(exec.Default(), p.arrays().Local().Size(),
		sweep{p: p, leaves: p.leafData}, sweep.run, func(a, b float64) float64 { return a + b })
}

// Sum runs the program as a fused reduction and returns the expression's
// global sum: no output array is materialized at all (reduction fusion, the
// natural extension of the paper's loop fusion). It sums in the one order of
// every sum and dot, so SumEval(x*y) is ufunc.Dot(x, y) and tpetra's Dot bit
// for bit, at every pool size. Collective: one scalar allreduce.
func (p *Plan) Sum() float64 {
	return comm.AllreduceScalar(p.arrays().Context().Comm(), p.sumLocal(), comm.OpSum)
}

// analyzeGlobal is the global-mode (§III.B) front of Eval and SumEval: one
// control message announcing the operation, then Analyze with the nested
// ones (a redistribution's) switched off, so one user-visible operation
// issues exactly one.
func analyzeGlobal(e *Expr, op core.OpCode) *Plan {
	lw, root := lower(e)
	ctx := lw.model().Context()
	ctx.Control(op, int64(lw.ops))
	defer ctx.SetControlMessages(ctx.SilenceControl())
	return lw.bind(root)
}

// Eval analyzes and executes the expression with loop fusion: one control
// message, at most one redistribution per non-conformable leaf, one output
// allocation, zero intermediate temporaries. Collective.
func Eval(e *Expr) *core.DistArray[float64] { return analyzeGlobal(e, core.OpUfunc).Execute() }

// SumEval evaluates the expression and reduces it to its global sum in one
// fused sweep: one control message, then Plan.Sum. Collective.
func SumEval(e *Expr) float64 { return analyzeGlobal(e, core.OpReduce).Sum() }

// EvalNaive executes the expression one node at a time, materializing a
// full distributed temporary per operation — NumPy-style eager evaluation,
// the E5 baseline. Its per-node loops run on the same exec engine as the
// fused sweep (through ufunc -> dense), so E5 compares fusion against
// temporaries at equal intra-rank parallelism.
func EvalNaive(e *Expr) *core.DistArray[float64] {
	switch e.kind {
	case kindLeaf:
		return e.leaf.Clone()
	case kindConst:
		panic("fusion: naive evaluation of a bare constant needs an array context")
	case kindUnary:
		arg := EvalNaive(e.args[0])
		return ufunc.Unary(arg, e.un)
	default:
		// Constants fold into Scalar ops to keep shapes consistent.
		if e.args[1].kind == kindConst {
			arg := EvalNaive(e.args[0])
			return ufunc.Scalar(arg, e.args[1].value, e.bin)
		}
		if e.args[0].kind == kindConst {
			arg := EvalNaive(e.args[1])
			v := e.args[0].value
			f := e.bin
			return ufunc.Unary(arg, func(b float64) float64 { return f(v, b) })
		}
		a := EvalNaive(e.args[0])
		b := EvalNaive(e.args[1])
		return ufunc.Binary(a, b, e.bin)
	}
}

func sameShape(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
