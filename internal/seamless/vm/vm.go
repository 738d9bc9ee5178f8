// Package vm implements the interpreted execution engine of the Seamless
// analog: typed ASTs are lowered to a compact stack bytecode executed with
// boxed values and per-instruction dynamic dispatch — deliberately paying
// the overheads a CPython-style interpreter pays, so the compiled engine
// (internal/seamless/compile) has an honest baseline (experiment E6).
package vm

import (
	"fmt"
	"math"

	"odinhpc/internal/seamless"
)

// Op is a bytecode opcode.
type Op byte

// Opcodes.
const (
	OpConstI Op = iota
	OpConstF
	OpConstB
	OpLoad
	OpStore
	OpPop
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpFloorDiv
	OpMod
	OpPow
	OpNeg
	OpNot
	OpLT
	OpLE
	OpGT
	OpGE
	OpEQ
	OpNE
	OpJmp
	OpJmpFalse     // pops the condition
	OpJmpTrue      // peeks: jumps keeping the value (short-circuit or)
	OpJmpFalseKeep // peeks: jumps keeping the value (short-circuit and)
	OpIndex
	OpStoreIndex
	OpCall
	OpRet
	OpRetNone
)

// Instr is one instruction; A/B are operands (slots, targets, callee ids).
type Instr struct {
	Op Op
	A  int
	B  int
	F  float64
	I  int64
}

// calleeKind discriminates call targets.
type calleeKind int

const (
	calleeBuiltin calleeKind = iota
	calleeModule
	calleeExtern
)

type callee struct {
	kind calleeKind
	name string
	tf   *seamless.TypedFn
	ext  seamless.Extern
}

// Proc is one compiled-to-bytecode function specialization.
type Proc struct {
	Name    string
	NParams int
	NSlots  int
	Code    []Instr
	callees []callee
	slotOf  map[string]int
}

// Disassemble renders the bytecode for inspection (cmd/seamless disasm).
func (p *Proc) Disassemble() string {
	names := map[Op]string{
		OpConstI: "consti", OpConstF: "constf", OpConstB: "constb",
		OpLoad: "load", OpStore: "store", OpPop: "pop",
		OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div",
		OpFloorDiv: "floordiv", OpMod: "mod", OpPow: "pow", OpNeg: "neg",
		OpNot: "not", OpLT: "lt", OpLE: "le", OpGT: "gt", OpGE: "ge",
		OpEQ: "eq", OpNE: "ne", OpJmp: "jmp", OpJmpFalse: "jmpfalse",
		OpJmpTrue: "jmptrue", OpJmpFalseKeep: "jmpfalsekeep",
		OpIndex: "index", OpStoreIndex: "storeindex",
		OpCall: "call", OpRet: "ret", OpRetNone: "retnone",
	}
	out := fmt.Sprintf("proc %s (params=%d slots=%d)\n", p.Name, p.NParams, p.NSlots)
	for i, ins := range p.Code {
		out += fmt.Sprintf("%4d  %-10s A=%d B=%d", i, names[ins.Op], ins.A, ins.B)
		switch ins.Op {
		case OpConstF:
			out += fmt.Sprintf(" F=%g", ins.F)
		case OpConstI:
			out += fmt.Sprintf(" I=%d", ins.I)
		case OpCall:
			out += fmt.Sprintf(" callee=%s", p.callees[ins.A].name)
		}
		out += "\n"
	}
	return out
}

// Engine compiles typed functions to bytecode and runs them. It memoizes
// procs per specialization.
type Engine struct {
	prog  *seamless.Program
	procs map[*seamless.TypedFn]*Proc
}

// NewEngine wraps a program. An Engine is owned by one goroutine (its
// specialization caches are unsynchronized); give each rank its own.
func NewEngine(prog *seamless.Program) *Engine {
	return &Engine{prog: prog, procs: map[*seamless.TypedFn]*Proc{}}
}

// ProcFor lowers (and caches) the bytecode of one specialization.
func (e *Engine) ProcFor(tf *seamless.TypedFn) (*Proc, error) {
	if p, ok := e.procs[tf]; ok {
		return p, nil
	}
	p, err := e.lower(tf)
	if err != nil {
		return nil, err
	}
	e.procs[tf] = p
	return p, nil
}

// Call specializes, lowers, and runs a function on boxed arguments.
func (e *Engine) Call(name string, args ...seamless.Value) (seamless.Value, error) {
	types := make([]seamless.Type, len(args))
	for i, a := range args {
		types[i] = a.K
	}
	tf, err := e.prog.Specialize(name, types)
	if err != nil {
		return seamless.NoneV(), err
	}
	p, err := e.ProcFor(tf)
	if err != nil {
		return seamless.NoneV(), err
	}
	return e.Run(p, args)
}

// Run executes a proc. Runtime faults (index out of range, division by
// zero) surface as errors.
func (e *Engine) Run(p *Proc, args []seamless.Value) (out seamless.Value, err error) {
	if len(args) != p.NParams {
		return seamless.NoneV(), fmt.Errorf("vm: %s takes %d arguments, got %d", p.Name, p.NParams, len(args))
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("vm: %s: runtime fault: %v", p.Name, r)
		}
	}()
	return e.exec(p, args), nil
}

func (e *Engine) exec(p *Proc, args []seamless.Value) seamless.Value {
	slots := make([]seamless.Value, p.NSlots)
	copy(slots, args)
	stack := make([]seamless.Value, 0, 16)
	push := func(v seamless.Value) { stack = append(stack, v) }
	pop := func() seamless.Value {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		return v
	}
	pc := 0
	for pc < len(p.Code) {
		ins := p.Code[pc]
		switch ins.Op {
		case OpConstI:
			push(seamless.IntV(ins.I))
		case OpConstF:
			push(seamless.FloatV(ins.F))
		case OpConstB:
			push(seamless.BoolV(ins.A != 0))
		case OpLoad:
			push(slots[ins.A])
		case OpStore:
			slots[ins.A] = pop()
		case OpPop:
			pop()
		case OpAdd, OpSub, OpMul, OpDiv, OpFloorDiv, OpMod, OpPow:
			r := pop()
			l := pop()
			push(arith(ins.Op, l, r))
		case OpNeg:
			v := pop()
			switch v.K {
			case seamless.TInt:
				push(seamless.IntV(-v.I))
			case seamless.TArrFloat:
				push(arrMap(v, func(x float64) float64 { return -x }))
			default:
				push(seamless.FloatV(-v.AsFloat()))
			}
		case OpNot:
			push(seamless.BoolV(!pop().B))
		case OpLT, OpLE, OpGT, OpGE, OpEQ, OpNE:
			r := pop()
			l := pop()
			push(seamless.BoolV(compare(ins.Op, l, r)))
		case OpJmp:
			pc = ins.A
			continue
		case OpJmpFalse:
			if !pop().B {
				pc = ins.A
				continue
			}
		case OpJmpTrue:
			// Peek-style for short-circuit or: jump keeps the value.
			if stack[len(stack)-1].B {
				pc = ins.A
				continue
			}
			pop()
		case OpJmpFalseKeep:
			if !stack[len(stack)-1].B {
				pc = ins.A
				continue
			}
			pop()
		case OpIndex:
			idx := pop().AsInt()
			arr := pop()
			if arr.K == seamless.TArrFloat {
				push(seamless.FloatV(arr.AF[idx]))
			} else {
				push(seamless.IntV(arr.AI[idx]))
			}
		case OpStoreIndex:
			val := pop()
			idx := pop().AsInt()
			arr := slots[ins.A]
			if arr.K == seamless.TArrFloat {
				arr.AF[idx] = val.AsFloat()
			} else {
				arr.AI[idx] = val.AsInt()
			}
		case OpCall:
			c := p.callees[ins.A]
			n := ins.B
			callArgs := make([]seamless.Value, n)
			for i := n - 1; i >= 0; i-- {
				callArgs[i] = pop()
			}
			push(e.invoke(c, callArgs))
		case OpRet:
			return pop()
		case OpRetNone:
			return seamless.NoneV()
		}
		pc++
	}
	return seamless.NoneV()
}

func (e *Engine) invoke(c callee, args []seamless.Value) seamless.Value {
	switch c.kind {
	case calleeBuiltin:
		return callBuiltin(c.name, args)
	case calleeExtern:
		fargs := make([]float64, len(args))
		for i, a := range args {
			fargs[i] = a.AsFloat()
		}
		return seamless.FloatV(c.ext.Fn(fargs...))
	default:
		p, err := e.ProcFor(c.tf)
		if err != nil {
			panic(err.Error())
		}
		return e.exec(p, args)
	}
}

func arith(op Op, l, r seamless.Value) seamless.Value {
	if l.K == seamless.TArrFloat || r.K == seamless.TArrFloat {
		return arithArr(op, l, r)
	}
	bothInt := l.K == seamless.TInt && r.K == seamless.TInt
	switch op {
	case OpAdd:
		if bothInt {
			return seamless.IntV(l.I + r.I)
		}
		return seamless.FloatV(l.AsFloat() + r.AsFloat())
	case OpSub:
		if bothInt {
			return seamless.IntV(l.I - r.I)
		}
		return seamless.FloatV(l.AsFloat() - r.AsFloat())
	case OpMul:
		if bothInt {
			return seamless.IntV(l.I * r.I)
		}
		return seamless.FloatV(l.AsFloat() * r.AsFloat())
	case OpDiv:
		return seamless.FloatV(l.AsFloat() / r.AsFloat())
	case OpFloorDiv:
		if bothInt {
			return seamless.IntV(floorDivInt(l.I, r.I))
		}
		return seamless.FloatV(math.Floor(l.AsFloat() / r.AsFloat()))
	case OpMod:
		if bothInt {
			return seamless.IntV(pythonModInt(l.I, r.I))
		}
		return seamless.FloatV(pythonModFloat(l.AsFloat(), r.AsFloat()))
	case OpPow:
		if bothInt {
			return seamless.IntV(powInt(l.I, r.I))
		}
		return seamless.FloatV(math.Pow(l.AsFloat(), r.AsFloat()))
	}
	panic("vm: bad arithmetic op")
}

// arithArr implements whole-array arithmetic: elementwise over float
// arrays, broadcasting scalar operands, each result a fresh array. These
// boxed loops are the reference semantics the compiled engine's fusion fast
// path must reproduce bitwise.
func arithArr(op Op, l, r seamless.Value) seamless.Value {
	var f func(a, b float64) float64
	switch op {
	case OpAdd:
		f = func(a, b float64) float64 { return a + b }
	case OpSub:
		f = func(a, b float64) float64 { return a - b }
	case OpMul:
		f = func(a, b float64) float64 { return a * b }
	case OpDiv:
		f = func(a, b float64) float64 { return a / b }
	case OpFloorDiv:
		f = func(a, b float64) float64 { return math.Floor(a / b) }
	case OpMod:
		f = pythonModFloat
	case OpPow:
		f = math.Pow
	default:
		panic("vm: bad array arithmetic op")
	}
	return arrZip(f, l, r)
}

// arrZip applies f elementwise over two operands of which at least one is
// a float array, broadcasting a scalar operand; the result is a fresh array.
func arrZip(f func(a, b float64) float64, l, r seamless.Value) seamless.Value {
	switch {
	case l.K == seamless.TArrFloat && r.K == seamless.TArrFloat:
		if len(l.AF) != len(r.AF) {
			panic(fmt.Sprintf("array length mismatch: %d vs %d", len(l.AF), len(r.AF)))
		}
		out := make([]float64, len(l.AF))
		for i := range out {
			out[i] = f(l.AF[i], r.AF[i])
		}
		return seamless.ArrFV(out)
	case l.K == seamless.TArrFloat:
		s := r.AsFloat()
		out := make([]float64, len(l.AF))
		for i := range out {
			out[i] = f(l.AF[i], s)
		}
		return seamless.ArrFV(out)
	default:
		s := l.AsFloat()
		out := make([]float64, len(r.AF))
		for i := range out {
			out[i] = f(s, r.AF[i])
		}
		return seamless.ArrFV(out)
	}
}

// arrMap applies f elementwise to a float array, allocating the result.
func arrMap(a seamless.Value, f func(float64) float64) seamless.Value {
	out := make([]float64, len(a.AF))
	for i, x := range a.AF {
		out[i] = f(x)
	}
	return seamless.ArrFV(out)
}

func compare(op Op, l, r seamless.Value) bool {
	if l.K == seamless.TBool || r.K == seamless.TBool {
		switch op {
		case OpEQ:
			return l.B == r.B
		case OpNE:
			return l.B != r.B
		}
		panic("vm: bool comparison")
	}
	if l.K == seamless.TInt && r.K == seamless.TInt {
		switch op {
		case OpLT:
			return l.I < r.I
		case OpLE:
			return l.I <= r.I
		case OpGT:
			return l.I > r.I
		case OpGE:
			return l.I >= r.I
		case OpEQ:
			return l.I == r.I
		case OpNE:
			return l.I != r.I
		}
	}
	lf, rf := l.AsFloat(), r.AsFloat()
	switch op {
	case OpLT:
		return lf < rf
	case OpLE:
		return lf <= rf
	case OpGT:
		return lf > rf
	case OpGE:
		return lf >= rf
	case OpEQ:
		return lf == rf
	case OpNE:
		return lf != rf
	}
	panic("vm: bad comparison op")
}

// floorDivInt implements Python's floor division for int64.
func floorDivInt(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}

// pythonModInt implements Python's modulo (sign of divisor).
func pythonModInt(a, b int64) int64 {
	m := a % b
	if m != 0 && (m < 0) != (b < 0) {
		m += b
	}
	return m
}

func pythonModFloat(a, b float64) float64 {
	m := math.Mod(a, b)
	if m != 0 && (m < 0) != (b < 0) {
		m += b
	}
	return m
}

// powInt is integer exponentiation; negative exponents fault like Python's
// int pow into fractions would change type.
func powInt(base, exp int64) int64 {
	if exp < 0 {
		panic("negative integer exponent")
	}
	result := int64(1)
	for exp > 0 {
		if exp&1 == 1 {
			result *= base
		}
		base *= base
		exp >>= 1
	}
	return result
}

func callBuiltin(name string, args []seamless.Value) seamless.Value {
	switch name {
	case "len":
		a := args[0]
		if a.K == seamless.TArrFloat {
			return seamless.IntV(int64(len(a.AF)))
		}
		return seamless.IntV(int64(len(a.AI)))
	case "sqrt", "sin", "cos", "exp", "log":
		f := map[string]func(float64) float64{
			"sqrt": math.Sqrt, "sin": math.Sin, "cos": math.Cos,
			"exp": math.Exp, "log": math.Log,
		}[name]
		if args[0].K == seamless.TArrFloat {
			return arrMap(args[0], f)
		}
		return seamless.FloatV(f(args[0].AsFloat()))
	case "square": // square, neg, hypot: float arrays only (seamless.IsBuiltin)
		return arrMap(args[0], func(x float64) float64 { return x * x })
	case "neg":
		return arrMap(args[0], func(x float64) float64 { return -x })
	case "hypot":
		return arrZip(math.Hypot, args[0], args[1])
	case "abs":
		if args[0].K == seamless.TArrFloat {
			return arrMap(args[0], math.Abs)
		}
		if args[0].K == seamless.TInt {
			if args[0].I < 0 {
				return seamless.IntV(-args[0].I)
			}
			return args[0]
		}
		return seamless.FloatV(math.Abs(args[0].AsFloat()))
	case "min":
		l, r := args[0], args[1]
		if l.K == seamless.TInt && r.K == seamless.TInt {
			if l.I < r.I {
				return l
			}
			return r
		}
		return seamless.FloatV(math.Min(l.AsFloat(), r.AsFloat()))
	case "max":
		l, r := args[0], args[1]
		if l.K == seamless.TInt && r.K == seamless.TInt {
			if l.I > r.I {
				return l
			}
			return r
		}
		return seamless.FloatV(math.Max(l.AsFloat(), r.AsFloat()))
	case "int":
		return seamless.IntV(args[0].AsInt())
	case "float":
		return seamless.FloatV(args[0].AsFloat())
	case "zeros":
		return seamless.ArrFV(make([]float64, args[0].AsInt()))
	case "izeros":
		return seamless.ArrIV(make([]int64, args[0].AsInt()))
	}
	panic(fmt.Sprintf("vm: unknown builtin %q", name))
}
