package compile

import (
	"fmt"
	"math"

	"odinhpc/internal/dense"
	"odinhpc/internal/seamless"
)

// floatExpr compiles an expression to an unboxed float64 closure, coercing
// int-typed subexpressions.
func (cc *fnCompiler) floatExpr(e seamless.Expr) (func(*frame) float64, error) {
	t := cc.typeOf(e)
	if t == seamless.TInt {
		iv, err := cc.intExpr(e)
		if err != nil {
			return nil, err
		}
		return func(fr *frame) float64 { return float64(iv(fr)) }, nil
	}
	if t != seamless.TFloat {
		return nil, fmt.Errorf("compile: expected float expression, got %v", t)
	}
	switch x := e.(type) {
	case *seamless.FloatLit:
		v := x.V
		return func(*frame) float64 { return v }, nil
	case *seamless.NameExpr:
		slot := cc.slot(x.Name).slot
		return func(fr *frame) float64 { return fr.f[slot] }, nil
	case *seamless.UnaryExpr:
		a, err := cc.floatExpr(x.X)
		if err != nil {
			return nil, err
		}
		return func(fr *frame) float64 { return -a(fr) }, nil
	case *seamless.BinExpr:
		l, err := cc.floatExpr(x.L)
		if err != nil {
			return nil, err
		}
		r, err := cc.floatExpr(x.R)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case "+":
			return func(fr *frame) float64 { return l(fr) + r(fr) }, nil
		case "-":
			return func(fr *frame) float64 { return l(fr) - r(fr) }, nil
		case "*":
			return func(fr *frame) float64 { return l(fr) * r(fr) }, nil
		case "/":
			return func(fr *frame) float64 { return l(fr) / r(fr) }, nil
		case "//":
			return func(fr *frame) float64 { return math.Floor(l(fr) / r(fr)) }, nil
		case "%":
			return func(fr *frame) float64 { return dense.FloorMod(l(fr), r(fr)) }, nil
		case "**":
			return func(fr *frame) float64 { return math.Pow(l(fr), r(fr)) }, nil
		}
		return nil, fmt.Errorf("compile: float op %q", x.Op)
	case *seamless.IndexExpr:
		arr, err := cc.arrFExpr(x.Arr)
		if err != nil {
			return nil, err
		}
		idx, err := cc.intExpr(x.Index)
		if err != nil {
			return nil, err
		}
		return func(fr *frame) float64 { return arr(fr)[idx(fr)] }, nil
	case *seamless.CallExpr:
		return cc.floatCall(x)
	}
	return nil, fmt.Errorf("compile: cannot compile %T as float", e)
}

func (cc *fnCompiler) intExpr(e seamless.Expr) (func(*frame) int64, error) {
	if t := cc.typeOf(e); t != seamless.TInt {
		return nil, fmt.Errorf("compile: expected int expression, got %v", t)
	}
	switch x := e.(type) {
	case *seamless.IntLit:
		v := x.V
		return func(*frame) int64 { return v }, nil
	case *seamless.NameExpr:
		slot := cc.slot(x.Name).slot
		return func(fr *frame) int64 { return fr.i[slot] }, nil
	case *seamless.UnaryExpr:
		a, err := cc.intExpr(x.X)
		if err != nil {
			return nil, err
		}
		return func(fr *frame) int64 { return -a(fr) }, nil
	case *seamless.BinExpr:
		l, err := cc.intExpr(x.L)
		if err != nil {
			return nil, err
		}
		r, err := cc.intExpr(x.R)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case "+":
			return func(fr *frame) int64 { return l(fr) + r(fr) }, nil
		case "-":
			return func(fr *frame) int64 { return l(fr) - r(fr) }, nil
		case "*":
			return func(fr *frame) int64 { return l(fr) * r(fr) }, nil
		case "//":
			return func(fr *frame) int64 { return floorDivInt(l(fr), r(fr)) }, nil
		case "%":
			return func(fr *frame) int64 { return pythonModInt(l(fr), r(fr)) }, nil
		case "**":
			return func(fr *frame) int64 { return powInt(l(fr), r(fr)) }, nil
		}
		return nil, fmt.Errorf("compile: int op %q", x.Op)
	case *seamless.IndexExpr:
		arr, err := cc.arrIExpr(x.Arr)
		if err != nil {
			return nil, err
		}
		idx, err := cc.intExpr(x.Index)
		if err != nil {
			return nil, err
		}
		return func(fr *frame) int64 { return arr(fr)[idx(fr)] }, nil
	case *seamless.CallExpr:
		return cc.intCall(x)
	}
	return nil, fmt.Errorf("compile: cannot compile %T as int", e)
}

func (cc *fnCompiler) boolExpr(e seamless.Expr) (func(*frame) bool, error) {
	if t := cc.typeOf(e); t != seamless.TBool {
		return nil, fmt.Errorf("compile: expected bool expression, got %v", t)
	}
	switch x := e.(type) {
	case *seamless.BoolLit:
		v := x.V
		return func(*frame) bool { return v }, nil
	case *seamless.NameExpr:
		slot := cc.slot(x.Name).slot
		return func(fr *frame) bool { return fr.b[slot] }, nil
	case *seamless.UnaryExpr: // not
		a, err := cc.boolExpr(x.X)
		if err != nil {
			return nil, err
		}
		return func(fr *frame) bool { return !a(fr) }, nil
	case *seamless.BoolOpExpr:
		l, err := cc.boolExpr(x.L)
		if err != nil {
			return nil, err
		}
		r, err := cc.boolExpr(x.R)
		if err != nil {
			return nil, err
		}
		if x.Op == "and" {
			return func(fr *frame) bool { return l(fr) && r(fr) }, nil
		}
		return func(fr *frame) bool { return l(fr) || r(fr) }, nil
	case *seamless.CmpExpr:
		lt, rt := cc.typeOf(x.L), cc.typeOf(x.R)
		if lt == seamless.TBool && rt == seamless.TBool {
			l, err := cc.boolExpr(x.L)
			if err != nil {
				return nil, err
			}
			r, err := cc.boolExpr(x.R)
			if err != nil {
				return nil, err
			}
			if x.Op == "==" {
				return func(fr *frame) bool { return l(fr) == r(fr) }, nil
			}
			return func(fr *frame) bool { return l(fr) != r(fr) }, nil
		}
		if lt == seamless.TInt && rt == seamless.TInt {
			l, err := cc.intExpr(x.L)
			if err != nil {
				return nil, err
			}
			r, err := cc.intExpr(x.R)
			if err != nil {
				return nil, err
			}
			switch x.Op {
			case "<":
				return func(fr *frame) bool { return l(fr) < r(fr) }, nil
			case "<=":
				return func(fr *frame) bool { return l(fr) <= r(fr) }, nil
			case ">":
				return func(fr *frame) bool { return l(fr) > r(fr) }, nil
			case ">=":
				return func(fr *frame) bool { return l(fr) >= r(fr) }, nil
			case "==":
				return func(fr *frame) bool { return l(fr) == r(fr) }, nil
			case "!=":
				return func(fr *frame) bool { return l(fr) != r(fr) }, nil
			}
		}
		l, err := cc.floatExpr(x.L)
		if err != nil {
			return nil, err
		}
		r, err := cc.floatExpr(x.R)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case "<":
			return func(fr *frame) bool { return l(fr) < r(fr) }, nil
		case "<=":
			return func(fr *frame) bool { return l(fr) <= r(fr) }, nil
		case ">":
			return func(fr *frame) bool { return l(fr) > r(fr) }, nil
		case ">=":
			return func(fr *frame) bool { return l(fr) >= r(fr) }, nil
		case "==":
			return func(fr *frame) bool { return l(fr) == r(fr) }, nil
		case "!=":
			return func(fr *frame) bool { return l(fr) != r(fr) }, nil
		}
		return nil, fmt.Errorf("compile: comparison %q", x.Op)
	case *seamless.CallExpr:
		return cc.boolCall(x)
	}
	return nil, fmt.Errorf("compile: cannot compile %T as bool", e)
}

// arrFExpr compiles a float-array expression: variables, zeros and module
// calls are the leaves it evaluates itself; every operator and elementwise
// builtin goes to the fusion VM (fuse.go).
func (cc *fnCompiler) arrFExpr(e seamless.Expr) (func(*frame) []float64, error) {
	if t := cc.typeOf(e); t != seamless.TArrFloat {
		return nil, fmt.Errorf("compile: expected float array, got %v", t)
	}
	if cc.arrayOp(e) {
		return cc.fuseArrExpr(e)
	}
	switch x := e.(type) {
	case *seamless.NameExpr:
		slot := cc.slot(x.Name).slot
		return func(fr *frame) []float64 { return fr.af[slot] }, nil
	case *seamless.CallExpr:
		return cc.arrFCall(x)
	}
	return nil, fmt.Errorf("compile: cannot compile %T as float array", e)
}

func (cc *fnCompiler) arrIExpr(e seamless.Expr) (func(*frame) []int64, error) {
	if t := cc.typeOf(e); t != seamless.TArrInt {
		return nil, fmt.Errorf("compile: expected int array, got %v", t)
	}
	switch x := e.(type) {
	case *seamless.NameExpr:
		slot := cc.slot(x.Name).slot
		return func(fr *frame) []int64 { return fr.ai[slot] }, nil
	case *seamless.CallExpr:
		return cc.arrICall(x)
	}
	return nil, fmt.Errorf("compile: cannot compile %T as int array", e)
}

func floorDivInt(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}

func pythonModInt(a, b int64) int64 {
	m := a % b
	if m != 0 && (m < 0) != (b < 0) {
		m += b
	}
	return m
}

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
