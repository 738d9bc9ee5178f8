// The fusion register VM: a NumExpr-style blocked virtual machine that
// replaces the per-element closure tree as the execution engine behind
// Eval/SumEval.
//
// Analyze lowers the Expr DAG into a linear sequence of vector
// instructions over a small pool of scratch registers, with constant
// folding and common-subexpression elimination at compile time. Each
// instruction is then evaluated as one tight slice loop over a cache-sized
// block (internal/dense vec ops), so the per-element cost is a real float
// op, not an indirect closure call per DAG node. Element-wise results are
// bitwise identical to the closure evaluator (kept as the test-side
// reference, closure_test.go): every opcode body performs exactly the
// float64 operations the corresponding closure performed, in the same
// per-element order, and block boundaries never change what is computed —
// only how many elements one dispatch covers.
//
// Programs for expressions built purely from the named constructors
// (Add/Mul/Sqrt/...) are cached under a structural serialization of the
// DAG, so solver loops that rebuild the same expression every iteration
// compile once. Expressions containing user closures (Unary/Binary) are
// never cached: two closures can share a code pointer while capturing
// different state, so identity of behavior cannot be established at
// compile time.
package fusion

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"odinhpc/internal/core"
	"odinhpc/internal/dense"
)

// vmOp is a register-VM opcode. The named opcodes get dedicated slice
// loops; vmCallUn/vmCallBin invoke an arbitrary user function per element
// (still blocked, so the loop overhead around the call is amortized).
type vmOp uint8

const (
	vmCopy vmOp = iota // dst = a (root-is-a-leaf programs)
	vmAdd
	vmSub
	vmMul
	vmDiv
	vmSquare
	vmSqrt
	vmNeg
	vmAbs
	vmSin
	vmCos
	vmExp
	vmHypot
	vmCallUn
	vmCallBin
	// Superinstructions: never produced by lowering (no Expr constructor
	// maps to them), only by the post-lowering peephole pass in emit. Their
	// kernel bodies force intermediate rounding (internal/dense/fused.go),
	// so each is bitwise identical to the pair it replaces.
	vmFMA   // dst = float64(a*b) + c
	vmFMAR  // dst = c + float64(a*b)
	vmFMS   // dst = float64(a*b) - c
	vmFMSR  // dst = c - float64(a*b)
	vmAXPY  // dst = float64(a*s) + c   (s = scalar constant)
	vmAXPYR // dst = c + float64(a*s)
	vmFMA2  // dst = float64((float64(a*b)+c)*d) + e — two Horner steps
	// Appended so the opcodes above keep the numbers existing plan keys (and
	// the trace labels hashed from them) were serialized with.
	vmFloorDiv // dst = floor(a / b)
	vmMod      // dst = a % b, sign of the divisor
	vmPow
	vmLog
)

var vmOpNames = [...]string{
	vmCopy: "copy", vmAdd: "add", vmSub: "sub", vmMul: "mul", vmDiv: "div",
	vmSquare: "square", vmSqrt: "sqrt", vmNeg: "neg", vmAbs: "abs",
	vmSin: "sin", vmCos: "cos", vmExp: "exp", vmHypot: "hypot",
	vmCallUn: "call", vmCallBin: "call2",
	vmFMA: "fma", vmFMAR: "fmar", vmFMS: "fms", vmFMSR: "fmsr",
	vmAXPY: "axpy", vmAXPYR: "axpyr", vmFMA2: "fma2",
	vmFloorDiv: "floordiv", vmMod: "mod", vmPow: "pow", vmLog: "log",
}

// foldable reports whether an opcode may be evaluated at compile time when
// all operands are constants. User calls are excluded: a stateful closure
// must keep being invoked per element exactly as the closure evaluator
// would have.
func (op vmOp) foldable() bool { return op != vmCallUn && op != vmCallBin }

// Operand kinds. A register operand names a scratch block, a leaf operand
// names a flattened input array indexed by the current block offset, a
// const operand names a pre-broadcast constant block, and a scalar operand
// names a block broadcast from the call's scalar slot of that index.
const (
	roReg uint8 = iota
	roLeaf
	roConst
	roScalar
)

type vmOperand struct {
	kind uint8
	idx  int
}

// vmInstr is one vector instruction: dst register = op(a[, b[, c]]).
// Superinstructions use c for their third operand; axpy ops carry the
// scalar factor in s instead of a constant-block operand.
type vmInstr struct {
	op   vmOp
	dst  int
	a, b vmOperand
	c    vmOperand
	d, e vmOperand // fma2 only
	s    float64
	un   func(float64) float64
	bin  func(float64, float64) float64
}

// vmProgram is a compiled expression: immutable after emit, safe
// for concurrent execution from any number of ranks/workers (scratch state
// comes from a sync.Pool, one vmState per in-flight block sweep).
type vmProgram struct {
	code      []vmInstr
	nregs     int
	nleaves   int
	nscalars  int       // 1 + highest ScalarSlot index (0 when none)
	consts    []float64 // distinct constant values, indexed by roConst idx
	outReg    int       // register holding the result after the last instr
	cacheable bool
	label     string // short hash of the structural cache key, for trace events

	pool sync.Pool // of *vmState
}

// vmState is one worker's scratch: register blocks plus materialized
// constant and scalar-slot blocks, vmBlock elements each. Constant blocks
// are filled once, when the state is built; scalar blocks belong to one call
// and are refilled on every getState.
type vmState struct {
	regs    [][]float64
	consts  [][]float64
	scalars [][]float64
}

// vmBlock is the number of float64 elements one VM instruction covers per
// dispatch: 1024 elements = 8 KiB per register, so a handful of live
// registers plus two input spans stay inside L1/L2 while dispatch is
// amortized over a thousand elements (EXPERIMENTS.md E12 records the block
// sweep behind the figure). It is a multiple of 16, so a fused sum's lanes
// run on from one block into the next (sumSpan).
const vmBlock = 1024

// getState returns scratch for one span of one call: a pooled state when
// one is free, with the call's scalar values (one per ScalarSlot of the
// program) broadcast into its scalar blocks.
func (p *vmProgram) getState(scalars []float64) *vmState {
	st, _ := p.pool.Get().(*vmState)
	if st == nil {
		st = &vmState{}
		slab := make([]float64, (p.nregs+len(p.consts)+p.nscalars)*vmBlock)
		carve := func(n int) [][]float64 {
			out := make([][]float64, n)
			for i := range out {
				out[i], slab = slab[:vmBlock:vmBlock], slab[vmBlock:]
			}
			return out
		}
		st.regs, st.consts, st.scalars = carve(p.nregs), carve(len(p.consts)), carve(p.nscalars)
		for c, v := range p.consts {
			dense.VecFill(st.consts[c], v)
		}
	}
	for i := range st.scalars {
		dense.VecFill(st.scalars[i], scalars[i])
	}
	return st
}

func (p *vmProgram) putState(st *vmState) { p.pool.Put(st) }

// resolveOp materializes one operand as a length hi-lo span: leaf operands
// window the flattened input, const operands use the pre-broadcast blocks,
// register operands the scratch blocks.
func (p *vmProgram) resolveOp(st *vmState, leaves [][]float64, o vmOperand, lo, hi int) []float64 {
	switch o.kind {
	case roLeaf:
		return leaves[o.idx][lo:hi]
	case roConst:
		return st.consts[o.idx][:hi-lo]
	case roScalar:
		return st.scalars[o.idx][:hi-lo]
	default:
		return st.regs[o.idx][:hi-lo]
	}
}

// runBlock executes the whole program over elements [lo, hi) of the
// flattened leaves. The last instruction writes directly into out[lo:hi]
// when out is non-nil; otherwise the result block is left in regs[outReg].
func (p *vmProgram) runBlock(st *vmState, leaves [][]float64, out []float64, lo, hi int) {
	n := hi - lo
	resolve := func(o vmOperand) []float64 {
		return p.resolveOp(st, leaves, o, lo, hi)
	}
	last := len(p.code) - 1
	for k := range p.code {
		ins := &p.code[k]
		var dst []float64
		if k == last && out != nil {
			dst = out[lo:hi]
		} else {
			dst = st.regs[ins.dst][:n]
		}
		a := resolve(ins.a)
		switch ins.op {
		case vmCopy:
			dense.VecCopy(dst, a)
		case vmSquare:
			dense.VecSquare(dst, a)
		case vmSqrt:
			dense.VecSqrt(dst, a)
		case vmNeg:
			dense.VecNeg(dst, a)
		case vmAbs:
			dense.VecAbs(dst, a)
		case vmSin:
			dense.VecSin(dst, a)
		case vmCos:
			dense.VecCos(dst, a)
		case vmExp:
			dense.VecExp(dst, a)
		case vmLog:
			dense.VecLog(dst, a)
		case vmCallUn:
			dense.VecMap(dst, a, ins.un)
		case vmAdd:
			dense.VecAdd(dst, a, resolve(ins.b))
		case vmSub:
			dense.VecSub(dst, a, resolve(ins.b))
		case vmMul:
			dense.VecMul(dst, a, resolve(ins.b))
		case vmDiv:
			dense.VecDiv(dst, a, resolve(ins.b))
		case vmHypot:
			dense.VecHypot(dst, a, resolve(ins.b))
		case vmFloorDiv:
			dense.VecFloorDiv(dst, a, resolve(ins.b))
		case vmMod:
			dense.VecFloorMod(dst, a, resolve(ins.b))
		case vmPow:
			dense.VecPow(dst, a, resolve(ins.b))
		case vmCallBin:
			dense.VecMap2(dst, a, resolve(ins.b), ins.bin)
		case vmFMA:
			dense.VecFMA(dst, a, resolve(ins.b), resolve(ins.c))
		case vmFMAR:
			dense.VecFMAR(dst, a, resolve(ins.b), resolve(ins.c))
		case vmFMS:
			dense.VecFMS(dst, a, resolve(ins.b), resolve(ins.c))
		case vmFMSR:
			dense.VecFMSR(dst, a, resolve(ins.b), resolve(ins.c))
		case vmAXPY:
			dense.VecAXPY(dst, a, ins.s, resolve(ins.c))
		case vmAXPYR:
			dense.VecAXPYR(dst, a, ins.s, resolve(ins.c))
		case vmFMA2:
			dense.VecFMA2(dst, a, resolve(ins.b), resolve(ins.c), resolve(ins.d), resolve(ins.e))
		}
	}
}

// runSpan sweeps [lo, hi) in block-size steps, writing results into out.
// It is the element-wise half of sweep.run; spans never share state.
func (p *vmProgram) runSpan(st *vmState, leaves [][]float64, out []float64, lo, hi int) {
	for b := lo; b < hi; b += vmBlock {
		p.runBlock(st, leaves, out, b, min(b+vmBlock, hi))
	}
}

// sumSpan sweeps [lo, hi), one exec chunk, and sums the result blocks in
// the lane order of every sum (dense.Lanes): element i of the chunk into
// lane i mod 16 — vmBlock is a multiple of 16, so the lanes run on across
// blocks — folded once. That is the chunk order of dense.DotSlices, so
// SumEval(x*y) is its bits.
func (p *vmProgram) sumSpan(st *vmState, leaves [][]float64, lo, hi int) float64 {
	var l dense.Lanes
	for b := lo; b < hi; b += vmBlock {
		bh := min(b+vmBlock, hi)
		p.runBlock(st, leaves, nil, b, bh)
		l.Add(st.regs[p.outReg][:bh-b])
	}
	return l.Fold()
}

// String disassembles the program (one instruction per line), for the
// hypot example and debugging.
func (p *vmProgram) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "program: %d instrs, %d regs, %d leaves, %d consts\n",
		len(p.code), p.nregs, p.nleaves, len(p.consts))
	opd := func(o vmOperand) string {
		switch o.kind {
		case roLeaf:
			return fmt.Sprintf("leaf%d", o.idx)
		case roConst:
			return fmt.Sprintf("const[%g]", p.consts[o.idx])
		case roScalar:
			return fmt.Sprintf("scalar%d", o.idx)
		default:
			return fmt.Sprintf("r%d", o.idx)
		}
	}
	for _, ins := range p.code {
		switch ins.op {
		case vmAdd, vmSub, vmMul, vmDiv, vmHypot, vmFloorDiv, vmMod, vmPow, vmCallBin:
			fmt.Fprintf(&b, "  r%d = %s %s, %s\n", ins.dst, vmOpNames[ins.op], opd(ins.a), opd(ins.b))
		case vmFMA, vmFMAR, vmFMS, vmFMSR:
			fmt.Fprintf(&b, "  r%d = %s %s, %s, %s\n", ins.dst, vmOpNames[ins.op], opd(ins.a), opd(ins.b), opd(ins.c))
		case vmFMA2:
			fmt.Fprintf(&b, "  r%d = %s %s, %s, %s, %s, %s\n", ins.dst, vmOpNames[ins.op],
				opd(ins.a), opd(ins.b), opd(ins.c), opd(ins.d), opd(ins.e))
		case vmAXPY, vmAXPYR:
			fmt.Fprintf(&b, "  r%d = %s %s, %g, %s\n", ins.dst, vmOpNames[ins.op], opd(ins.a), ins.s, opd(ins.c))
		default:
			fmt.Fprintf(&b, "  r%d = %s %s\n", ins.dst, vmOpNames[ins.op], opd(ins.a))
		}
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Lowering: Expr DAG -> value-numbered IR -> register program.

type valKind uint8

const (
	valLeaf valKind = iota
	valConst
	valScalar
	valOp
)

// vmValue is one value-numbered node of the IR.
type vmValue struct {
	kind valKind
	leaf int     // slot for valLeaf and valScalar
	c    float64 // constant for valConst; scalar factor for axpy values
	op   vmOp
	un   func(float64) float64
	bin  func(float64, float64) float64
	args [5]int // value ids (unused slots = -1; args[2:] used by superinstructions)
	uses int
	dead bool // absorbed into a superinstruction; emits no instruction
}

// lowering accumulates the IR plus the structural cache key during one DFS
// over the expression DAG — the only walk an evaluation makes: it also
// numbers the distinct Var leaves (leaves[i] is program leaf slot i, the
// first-visit order Expr.Leaves() reports) and counts operation nodes the
// way Expr.CountOps() does, so Analyze needs no pre-walk of its own.
type lowering struct {
	vals      []vmValue
	byPtr     map[*Expr]lowered
	byKey     map[string]int
	leaves    []*core.DistArray[float64]
	ops       int // operation nodes on every path from the root (a shared node counts per use)
	nSlices   int // 1 + highest SliceSlot index seen (0 when none)
	nScalars  int // 1 + highest ScalarSlot index seen (0 when none)
	key       strings.Builder
	cacheable bool
}

// lowered is what visiting one Expr node produced: its value id and the
// operation nodes of its subtree, replayed into lowering.ops on every
// further use of the node.
type lowered struct{ id, ops int }

// intern returns the id of an existing value with the same structural key
// (common-subexpression elimination) or appends v as a new value. Every
// first-seen key is also appended to the program's cache key, so the final
// key is a faithful serialization of the deduplicated DAG.
func (lw *lowering) intern(key string, v vmValue) int {
	if id, ok := lw.byKey[key]; ok {
		return id
	}
	id := len(lw.vals)
	lw.vals = append(lw.vals, v)
	lw.byKey[key] = id
	lw.key.WriteString(key)
	lw.key.WriteByte(';')
	return id
}

// key1 renders prefix+int keys ("L3", "R7") through a stack buffer.
func key1(p byte, a int) string {
	var buf [24]byte
	b := append(buf[:0], p)
	b = strconv.AppendInt(b, int64(a), 10)
	return string(b)
}

// keyOp renders op keys ("U5(2)", "B!12(4,7)") through a stack buffer; b2
// < 0 means unary. The bang marks user-closure nodes, whose keys embed a
// unique serial instead of structural identity.
func keyOp(p byte, bang bool, op vmOp, serial, a1, a2 int) string {
	var buf [48]byte
	b := append(buf[:0], p)
	if bang {
		b = append(b, '!')
		b = strconv.AppendInt(b, int64(serial), 10)
	} else {
		b = strconv.AppendInt(b, int64(op), 10)
	}
	b = append(b, '(')
	b = strconv.AppendInt(b, int64(a1), 10)
	if a2 >= 0 {
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(a2), 10)
	}
	b = append(b, ')')
	return string(b)
}

// constKey renders "C" + 16 lowercase hex digits of the value's bit
// pattern through a fixed stack buffer; the old fmt.Sprintf version
// allocated its formatting state on every constant of every lowering
// (BenchmarkFusionCompile pins the compile-path allocation count).
func constKey(v float64) string {
	const hexDigits = "0123456789abcdef"
	var buf [17]byte
	buf[0] = 'C'
	bits := math.Float64bits(v)
	for i := 16; i >= 1; i-- {
		buf[i] = hexDigits[bits&0xf]
		bits >>= 4
	}
	return string(buf[:])
}

// visit lowers one node, folding builtin ops whose operands are all
// constants (the fold calls the node's own function once — the same
// float64 computation the closure evaluator repeated per element).
func (lw *lowering) visit(e *Expr) int {
	if got, ok := lw.byPtr[e]; ok {
		lw.ops += got.ops
		return got.id
	}
	opsBefore := lw.ops
	var id int
	switch e.kind {
	case kindLeaf:
		// A linear scan: expressions have a handful of distinct arrays, and
		// the slice doubles as the slot-ordered leaf list Analyze binds.
		slot := slices.Index(lw.leaves, e.leaf)
		if slot < 0 {
			slot = len(lw.leaves)
			lw.leaves = append(lw.leaves, e.leaf)
		}
		id = lw.intern(key1('L', slot), vmValue{kind: valLeaf, leaf: slot})
	case kindSliceLeaf:
		// Slice leaves carry explicit slot numbers (the expression's builder
		// owns the numbering) but serialize exactly like Var leaf slots, so
		// structurally equal slice and DistArray expressions share one cached
		// program.
		if e.slot+1 > lw.nSlices {
			lw.nSlices = e.slot + 1
		}
		id = lw.intern(key1('L', e.slot), vmValue{kind: valLeaf, leaf: e.slot})
	case kindScalarLeaf:
		// A scalar slot serializes by number, never by value: the value is
		// bound per call, so one cached program serves every value. It is not
		// a constant to the folder or the axpy peephole for the same reason.
		lw.nScalars = max(lw.nScalars, e.slot+1)
		id = lw.intern(key1('S', e.slot), vmValue{kind: valScalar, leaf: e.slot})
	case kindConst:
		id = lw.intern(constKey(e.value), vmValue{kind: valConst, c: e.value})
	case kindUnary:
		lw.ops++
		a := lw.visit(e.args[0])
		if e.vop.foldable() && lw.vals[a].kind == valConst {
			id = lw.intern(constKey(e.un(lw.vals[a].c)), vmValue{kind: valConst, c: e.un(lw.vals[a].c)})
			break
		}
		bang := e.vop == vmCallUn
		if bang {
			// A user closure has no compile-time identity: never merge two
			// call nodes and never let the program into the cache.
			lw.cacheable = false
		}
		key := keyOp('U', bang, e.vop, len(lw.vals), a, -1)
		id = lw.intern(key, vmValue{kind: valOp, op: e.vop, un: e.un, args: [5]int{a, -1, -1, -1, -1}})
	default: // kindBinary
		lw.ops++
		a := lw.visit(e.args[0])
		b := lw.visit(e.args[1])
		if e.vop.foldable() && lw.vals[a].kind == valConst && lw.vals[b].kind == valConst {
			v := e.bin(lw.vals[a].c, lw.vals[b].c)
			id = lw.intern(constKey(v), vmValue{kind: valConst, c: v})
			break
		}
		bang := e.vop == vmCallBin
		if bang {
			lw.cacheable = false
		}
		key := keyOp('B', bang, e.vop, len(lw.vals), a, b)
		id = lw.intern(key, vmValue{kind: valOp, op: e.vop, bin: e.bin, args: [5]int{a, b, -1, -1, -1}})
	}
	lw.byPtr[e] = lowered{id: id, ops: lw.ops - opsBefore}
	return id
}

// lower builds the IR and cache key for e. The leaf-slot numbering is
// first-visit order over distinct arrays — identical to Expr.Leaves(), so
// slot i of the program binds to Plan.leafData[i].
func lower(e *Expr) (*lowering, int) {
	lw := &lowering{
		byPtr:     map[*Expr]lowered{},
		byKey:     map[string]int{},
		cacheable: true,
	}
	root := lw.visit(e)
	if len(lw.leaves) > 0 && lw.nSlices+lw.nScalars > 0 {
		panic("fusion: expression mixes Var leaves with SliceSlot or ScalarSlot leaves")
	}
	lw.key.WriteString(key1('R', root))
	return lw, root
}

// superinstruct is the post-lowering peephole pass: it collapses an
// add/sub and the single-use multiply feeding it into one fused
// triple-operand instruction (mul+add -> fma, with mirrored variants
// preserving operand order for NaN-payload faithfulness), then refines
// fused multiplies with a constant factor into axpy, whose scalar rides in
// the instruction word instead of a broadcast block. It runs on IR values
// — before registers exist — so absorbed multiplies are simply marked dead
// and never cost a register or a dispatch. Selection rules:
//
//   - only multiplies with exactly one consumer fuse (a shared product
//     must stay materialized for its other readers, and CSE means shared
//     products are common);
//   - user-call values never fuse (they have no opcode to fuse into);
//   - a NaN constant factor stays in block form, because a*s and s*a are
//     guaranteed to agree bitwise only when at most one side can be NaN.
func (lw *lowering) superinstruct(root int) {
	fusableMul := func(id int) bool {
		v := &lw.vals[id]
		return v.kind == valOp && v.op == vmMul && v.uses == 1 && id != root
	}
	for id := range lw.vals {
		v := &lw.vals[id]
		if v.kind != valOp {
			continue
		}
		switch v.op {
		case vmAdd:
			if m := v.args[0]; fusableMul(m) {
				mv := &lw.vals[m]
				v.op = vmFMA
				v.args = [5]int{mv.args[0], mv.args[1], v.args[1], -1, -1}
				mv.dead = true
			} else if m := v.args[1]; fusableMul(m) {
				mv := &lw.vals[m]
				v.op = vmFMAR
				v.args = [5]int{mv.args[0], mv.args[1], v.args[0], -1, -1}
				mv.dead = true
			}
		case vmSub:
			if m := v.args[0]; fusableMul(m) {
				mv := &lw.vals[m]
				v.op = vmFMS
				v.args = [5]int{mv.args[0], mv.args[1], v.args[1], -1, -1}
				mv.dead = true
			} else if m := v.args[1]; fusableMul(m) {
				mv := &lw.vals[m]
				v.op = vmFMSR
				v.args = [5]int{mv.args[0], mv.args[1], v.args[0], -1, -1}
				mv.dead = true
			}
		}
		// Second stage, Horner chains: an fma whose multiplicand is itself
		// a single-use fma collapses into one five-operand fma2. Only the
		// a-position fuses — it is the only shape where the chained
		// product's operand order is preserved exactly.
		if v.op == vmFMA {
			if in := v.args[0]; in >= 0 {
				iv := &lw.vals[in]
				if iv.kind == valOp && iv.op == vmFMA && iv.uses == 1 && in != root {
					v.op = vmFMA2
					v.args = [5]int{iv.args[0], iv.args[1], iv.args[2], v.args[1], v.args[2]}
					iv.dead = true
				}
			}
		}
		if v.op == vmFMA || v.op == vmFMAR {
			a0, a1 := v.args[0], v.args[1]
			s, varArg := 0.0, -1
			if lw.vals[a0].kind == valConst && !math.IsNaN(lw.vals[a0].c) {
				s, varArg = lw.vals[a0].c, a1
			} else if lw.vals[a1].kind == valConst && !math.IsNaN(lw.vals[a1].c) {
				s, varArg = lw.vals[a1].c, a0
			}
			if varArg >= 0 {
				if v.op == vmFMA {
					v.op = vmAXPY
				} else {
					v.op = vmAXPYR
				}
				v.c = s
				v.args = [5]int{varArg, -1, v.args[2], -1, -1}
			}
		}
	}
}

// emit turns the IR into a register program. Registers are allocated
// lowest-free-first and released at each value's last use, so the pool
// stays as small as the expression's live width; an operand register freed
// in the same step may be reused as the destination (in-place ops are safe
// for every opcode body).
func (lw *lowering) emit(root int) *vmProgram {
	nleaves := len(lw.leaves)
	if lw.nSlices > nleaves {
		nleaves = lw.nSlices
	}
	p := &vmProgram{nleaves: nleaves, nscalars: lw.nScalars, cacheable: lw.cacheable}

	// Count uses so registers can be freed at last use (and so the peephole
	// can prove a product has exactly one consumer).
	for _, v := range lw.vals {
		if v.kind != valOp {
			continue
		}
		for _, a := range v.args {
			if a >= 0 {
				lw.vals[a].uses++
			}
		}
	}
	lw.vals[root].uses++

	lw.superinstruct(root)

	constIdx := map[int]int{} // value id -> consts slot
	regOf := make([]int, len(lw.vals))
	var free []int
	alloc := func() int {
		if len(free) > 0 {
			// Lowest-numbered free register, for a deterministic, compact
			// numbering.
			best := 0
			for i := 1; i < len(free); i++ {
				if free[i] < free[best] {
					best = i
				}
			}
			r := free[best]
			free = append(free[:best], free[best+1:]...)
			return r
		}
		r := p.nregs
		p.nregs++
		return r
	}
	operand := func(id int) vmOperand {
		v := &lw.vals[id]
		switch v.kind {
		case valLeaf:
			return vmOperand{kind: roLeaf, idx: v.leaf}
		case valConst:
			ci, ok := constIdx[id]
			if !ok {
				ci = len(p.consts)
				p.consts = append(p.consts, v.c)
				constIdx[id] = ci
			}
			return vmOperand{kind: roConst, idx: ci}
		case valScalar:
			return vmOperand{kind: roScalar, idx: v.leaf}
		default:
			return vmOperand{kind: roReg, idx: regOf[id]}
		}
	}
	release := func(id int) {
		v := &lw.vals[id]
		if v.kind != valOp {
			return
		}
		v.uses--
		if v.uses == 0 {
			free = append(free, regOf[id])
		}
	}

	for id := range lw.vals {
		v := &lw.vals[id]
		if v.kind != valOp || v.dead {
			continue
		}
		ins := vmInstr{op: v.op, a: operand(v.args[0]), un: v.un, bin: v.bin}
		if v.op == vmAXPY || v.op == vmAXPYR {
			ins.s = v.c
		}
		if v.args[1] >= 0 {
			ins.b = operand(v.args[1])
		}
		if v.args[2] >= 0 {
			ins.c = operand(v.args[2])
		}
		if v.args[3] >= 0 {
			ins.d = operand(v.args[3])
		}
		if v.args[4] >= 0 {
			ins.e = operand(v.args[4])
		}
		for _, a := range v.args {
			if a >= 0 {
				release(a)
			}
		}
		ins.dst = alloc()
		regOf[id] = ins.dst
		p.code = append(p.code, ins)
	}

	// A root that is itself a leaf or a constant (a slot plan's, since Eval
	// rejects leafless expressions) compiles to a single copy.
	if lw.vals[root].kind != valOp {
		p.code = append(p.code, vmInstr{op: vmCopy, dst: alloc(), a: operand(root)})
		p.outReg = p.code[0].dst
	} else {
		p.outReg = p.code[len(p.code)-1].dst
	}
	return p
}

// ---------------------------------------------------------------------------
// Plan cache.

// progCacheCap bounds the cache; on overflow the whole map is dropped
// (NumExpr-style), which keeps eviction O(1) and the steady state of any
// real solver loop — a handful of distinct expressions — fully cached.
const progCacheCap = 512

// progEntry is one cache slot under single-flight compilation. The goroutine
// that creates the entry (the sole counted miss for its key) compiles outside
// the cache lock and closes ready when p is set; racing goroutines find the
// entry, count a hit, and block on ready instead of double-compiling.
type progEntry struct {
	ready chan struct{}
	p     *vmProgram
}

var progCache = struct {
	mu     sync.Mutex
	m      map[string]*progEntry
	hits   atomic.Int64
	misses atomic.Int64
}{m: map[string]*progEntry{}}

// PlanCacheStats returns the cumulative hit/miss counters of the compiled-
// program cache. Only cacheable programs (no user closures) are counted.
func PlanCacheStats() (hits, misses int64) {
	return progCache.hits.Load(), progCache.misses.Load()
}

// ResetPlanCache empties the program cache and zeroes its counters. In-flight
// compilations keep their detached entries and still release their waiters;
// they are simply no longer reachable from the fresh map. A kept Plan keeps
// the program it was built with.
func ResetPlanCache() {
	progCache.mu.Lock()
	progCache.m = map[string]*progEntry{}
	progCache.mu.Unlock()
	progCache.hits.Store(0)
	progCache.misses.Store(0)
}

// keyHash is a 32-bit FNV-1a over the structural cache key: the "plan key"
// stamped on trace events, stable across runs for structurally equal
// expressions (uncacheable programs hash their unique serialization, so
// distinct closure programs still get distinct labels within a process).
func keyHash(key string) string {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return fmt.Sprintf("%08x", h)
}

// program compiles the lowered expression to a register program,
// consulting the cache under the key the walk serialized and emitting on a
// miss. Two structurally equal expressions over different arrays share one
// program: leaf slots bind to concrete arrays only when a plan runs.
//
// Compilation is single-flight: server goroutines racing on a cold key elect
// one compiler (the only counted miss); the rest count hits and wait for its
// program instead of duplicating the work and skewing PlanCacheStats.
func (lw *lowering) program(root int) *vmProgram {
	key := lw.key.String()
	if !lw.cacheable {
		p := lw.emit(root)
		p.label = keyHash(key)
		return p
	}
	progCache.mu.Lock()
	if ent, ok := progCache.m[key]; ok {
		progCache.mu.Unlock()
		progCache.hits.Add(1)
		<-ent.ready
		if ent.p == nil {
			// The elected compiler panicked and withdrew its entry; fall back
			// to a local compile rather than propagating its failure.
			p := lw.emit(root)
			p.label = keyHash(key)
			return p
		}
		return ent.p
	}
	if len(progCache.m) >= progCacheCap {
		progCache.m = map[string]*progEntry{}
	}
	ent := &progEntry{ready: make(chan struct{})}
	progCache.m[key] = ent
	progCache.mu.Unlock()
	progCache.misses.Add(1)
	defer func() {
		if ent.p == nil {
			// Compilation panicked: withdraw the poisoned entry so the next
			// caller retries, then release waiters to their local fallback.
			progCache.mu.Lock()
			if progCache.m[key] == ent {
				delete(progCache.m, key)
			}
			progCache.mu.Unlock()
		}
		close(ent.ready)
	}()
	p := lw.emit(root)
	p.label = keyHash(key)
	ent.p = p
	return p
}
