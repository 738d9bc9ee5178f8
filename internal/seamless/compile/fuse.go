package compile

import (
	"fmt"
	"strings"

	"odinhpc/internal/fusion"
	"odinhpc/internal/seamless"
)

// Every float-array expression runs on the fusion register VM: Lower maps
// the seamless AST onto fusion.Expr — the one lowering, shared by compiled
// kernels and by odinserve's /v1/expr — and the caller only says what a
// leaf is. A kernel's expression is translated and analyzed once, at
// compile time, into a fusion.Plan over SliceSlot and ScalarSlot leaves;
// each call binds the current frame's arrays and scalar values to the slots
// and runs the fused sweep (one output allocation, blocked vector kernels,
// superinstructions). The plan's structural key holds slot numbers, never
// values, so compiling a kernel costs at most one plan-cache miss and a
// warm call none at all — visible via fusion.PlanCacheStats.

// builder constructs the fusion node of an operator or builtin from its
// lowered operands; r is nil for the one-operand ones.
type builder = func(l, r *fusion.Expr) *fusion.Expr

func unary(f func(*fusion.Expr) *fusion.Expr) builder {
	return func(a, _ *fusion.Expr) *fusion.Expr { return f(a) }
}

var neg = unary(fusion.Neg)

// arrayOps maps the arithmetic operators onto fusion's constructors.
var arrayOps = map[string]builder{
	"+": (*fusion.Expr).Add, "-": (*fusion.Expr).Sub,
	"*": (*fusion.Expr).Mul, "/": (*fusion.Expr).Div,
	"//": (*fusion.Expr).FloorDiv, "%": (*fusion.Expr).Mod, "**": (*fusion.Expr).Pow,
}

// arrayBuiltins is the call table of elementwise float-array builtins.
var arrayBuiltins = map[string]struct {
	nargs int
	build builder
}{
	"sqrt": {1, unary(fusion.Sqrt)}, "sin": {1, unary(fusion.Sin)}, "cos": {1, unary(fusion.Cos)},
	"exp": {1, unary(fusion.Exp)}, "log": {1, unary(fusion.Log)}, "abs": {1, unary(fusion.Abs)},
	"neg": {1, neg}, "square": {1, unary((*fusion.Expr).Square)},
	"hypot": {2, fusion.Hypot},
}

func errAt(e seamless.Expr, format string, args ...any) error {
	p := seamless.ExprPos(e)
	return &seamless.Error{Line: p.Line, Col: p.Col, Msg: fmt.Sprintf(format, args...)}
}

// arrayNode is the one definition of an array operation: unary minus, the
// arithmetic operators, and calls of the builtin table. It returns the
// node's operands (b is nil when there is one) and its builder, or the
// positioned error for a node with no array meaning: comparisons,
// and/or/not, subscripts, bool literals, unknown or wrong-arity calls.
func arrayNode(e seamless.Expr) (a, b seamless.Expr, build builder, err error) {
	switch x := e.(type) {
	case *seamless.UnaryExpr:
		if x.Op == "-" {
			return x.X, nil, neg, nil
		}
	case *seamless.BinExpr:
		return x.L, x.R, arrayOps[x.Op], nil
	case *seamless.CallExpr:
		bt, ok := arrayBuiltins[x.Name]
		switch {
		case !ok:
			return nil, nil, nil, errAt(x, "unknown function %q", x.Name)
		case len(x.Args) != bt.nargs:
			return nil, nil, nil, errAt(x, "%s takes %d argument(s), got %d", x.Name, bt.nargs, len(x.Args))
		case bt.nargs == 1:
			return x.Args[0], nil, bt.build, nil
		}
		return x.Args[0], x.Args[1], bt.build, nil
	}
	return nil, nil, nil, errAt(e, "%s is not an array expression", strings.TrimPrefix(fmt.Sprintf("%T", e), "*seamless."))
}

// literalScalar extracts a compile-time numeric constant: int and float
// literals, possibly under unary minus.
func literalScalar(e seamless.Expr) (float64, bool) {
	switch x := e.(type) {
	case *seamless.IntLit:
		return float64(x.V), true
	case *seamless.FloatLit:
		return x.V, true
	case *seamless.UnaryExpr:
		if v, ok := literalScalar(x.X); ok && x.Op == "-" {
			return -v, true
		}
	}
	return 0, false
}

// Lower translates an array expression into a fusion expression. Numeric
// literals become float constants. On every other node leaf has first
// refusal: it returns the fusion leaf the caller binds the node to (a
// variable, a scalar operand, a call it evaluates itself), or nil to have
// Lower translate the node as an array operation over lowered operands.
// x*x stays a multiply.
func Lower(e seamless.Expr, leaf func(seamless.Expr) (*fusion.Expr, error)) (*fusion.Expr, error) {
	if v, ok := literalScalar(e); ok {
		return fusion.Const(v), nil
	}
	if l, err := leaf(e); l != nil || err != nil {
		return l, err
	}
	a, b, build, err := arrayNode(e)
	if err != nil {
		return nil, err
	}
	l, err := Lower(a, leaf)
	if err != nil {
		return nil, err
	}
	var r *fusion.Expr
	if b != nil {
		if r, err = Lower(b, leaf); err != nil {
			return nil, err
		}
	}
	return build(l, r), nil
}

// FreeNames appends to names the variables of an expression in which every
// name is an array, in first-use order without repeats, and reports the
// first node Lower would reject — so a caller holding untyped source can
// validate it and learn its leaves without building anything.
func FreeNames(e seamless.Expr, names []string) ([]string, error) {
	if _, ok := literalScalar(e); ok {
		return names, nil
	}
	if nx, ok := e.(*seamless.NameExpr); ok {
		for _, n := range names {
			if n == nx.Name {
				return names, nil
			}
		}
		return append(names, nx.Name), nil
	}
	a, b, _, err := arrayNode(e)
	if err == nil {
		names, err = FreeNames(a, names)
	}
	if err == nil && b != nil {
		names, err = FreeNames(b, names)
	}
	return names, err
}

// arrayOp reports whether a float-array-typed node is an operator or an
// elementwise builtin — something Lower translates — rather than a leaf.
func (cc *fnCompiler) arrayOp(e seamless.Expr) bool {
	switch x := e.(type) {
	case *seamless.UnaryExpr, *seamless.BinExpr:
		return true
	case *seamless.CallExpr:
		// square/neg/hypot name the builtin only over an array argument
		// (seamless.IsBuiltin); for the rest an array result implies one.
		if _, ok := arrayBuiltins[x.Name]; ok {
			for _, a := range x.Args {
				if cc.typeOf(a) == seamless.TArrFloat {
					return true
				}
			}
		}
	}
	return false
}

// fuseArrExpr compiles an array operator or elementwise builtin to a
// closure over one fusion plan, analyzed here. Its leaves are the frame's
// arrays (SliceSlot i reads leafFns[i]; a variable used twice uses one
// slot), array-valued calls the VM has no opcode for, compiled through
// arrFExpr, and the scalar operands that are not literals, each evaluated
// once per call into ScalarSlot i by scalarFns[i] — as a constant its
// current value would be in the plan-cache key, and every value a fresh
// program.
func (cc *fnCompiler) fuseArrExpr(e seamless.Expr) (func(*frame) []float64, error) {
	var leafFns []func(*frame) []float64
	var scalarFns []func(*frame) float64
	byName := map[string]*fusion.Expr{}
	root, err := Lower(e, func(e seamless.Expr) (*fusion.Expr, error) {
		if cc.typeOf(e) != seamless.TArrFloat {
			fn, err := cc.floatExpr(e)
			if err != nil {
				return nil, err
			}
			scalarFns = append(scalarFns, fn)
			return fusion.ScalarSlot(len(scalarFns) - 1), nil
		}
		if cc.arrayOp(e) {
			return nil, nil
		}
		nx, isName := e.(*seamless.NameExpr)
		if isName {
			if l, seen := byName[nx.Name]; seen {
				return l, nil
			}
		}
		fn, err := cc.arrFExpr(e)
		if err != nil {
			return nil, err
		}
		leafFns = append(leafFns, fn)
		l := fusion.SliceSlot(len(leafFns) - 1)
		if isName {
			byName[nx.Name] = l
		}
		return l, nil
	})
	if err != nil {
		return nil, err
	}
	plan := fusion.Analyze(root)
	return func(fr *frame) []float64 {
		leaves := make([][]float64, len(leafFns))
		for i, lf := range leafFns {
			leaves[i] = lf(fr)
			if len(leaves[i]) != len(leaves[0]) {
				panic(fmt.Sprintf("array length mismatch: %d vs %d", len(leaves[0]), len(leaves[i])))
			}
		}
		scalars := make([]float64, len(scalarFns))
		for i, sf := range scalarFns {
			scalars[i] = sf(fr)
		}
		out := make([]float64, len(leaves[0]))
		plan.ExecuteSlots(out, leaves, scalars)
		return out
	}, nil
}
