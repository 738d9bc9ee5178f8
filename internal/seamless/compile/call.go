package compile

import (
	"fmt"
	"math"

	"odinhpc/internal/seamless"
)

// moduleInvoker compiles a call to another module function into a closure
// that builds the callee frame, evaluates the arguments straight into it
// (no boxing), runs the body, and returns the callee frame for result
// extraction.
func (cc *fnCompiler) moduleInvoker(x *seamless.CallExpr) (func(*frame) *frame, *Compiled, error) {
	fnDef, ok := cc.engine.prog.Module.ByName[x.Name]
	if !ok {
		return nil, nil, fmt.Errorf("compile: unknown function %q at line %d", x.Name, x.Line)
	}
	args := make([]seamless.Type, len(x.Args))
	for i, a := range x.Args {
		args[i] = cc.typeOf(a)
	}
	for i, p := range fnDef.Params {
		if i < len(args) && p.Ann == seamless.TFloat && args[i] == seamless.TInt {
			args[i] = seamless.TFloat
		}
	}
	tf, err := cc.engine.prog.Specialize(x.Name, args)
	if err != nil {
		return nil, nil, err
	}
	callee, err := cc.engine.CompileFor(tf)
	if err != nil {
		return nil, nil, err
	}
	setters := make([]func(src, dst *frame), len(x.Args))
	for i, a := range x.Args {
		ref := callee.params[i]
		switch ref.t {
		case seamless.TFloat:
			fv, err := cc.floatExpr(a)
			if err != nil {
				return nil, nil, err
			}
			slot := ref.slot
			setters[i] = func(src, dst *frame) { dst.f[slot] = fv(src) }
		case seamless.TInt:
			iv, err := cc.intExpr(a)
			if err != nil {
				return nil, nil, err
			}
			slot := ref.slot
			setters[i] = func(src, dst *frame) { dst.i[slot] = iv(src) }
		case seamless.TBool:
			bv, err := cc.boolExpr(a)
			if err != nil {
				return nil, nil, err
			}
			slot := ref.slot
			setters[i] = func(src, dst *frame) { dst.b[slot] = bv(src) }
		case seamless.TArrFloat:
			av, err := cc.arrFExpr(a)
			if err != nil {
				return nil, nil, err
			}
			slot := ref.slot
			setters[i] = func(src, dst *frame) { dst.af[slot] = av(src) }
		case seamless.TArrInt:
			av, err := cc.arrIExpr(a)
			if err != nil {
				return nil, nil, err
			}
			slot := ref.slot
			setters[i] = func(src, dst *frame) { dst.ai[slot] = av(src) }
		}
	}
	invoke := func(fr *frame) *frame {
		nf := callee.newFrame()
		for _, set := range setters {
			set(fr, nf)
		}
		callee.run(nf)
		return nf
	}
	return invoke, callee, nil
}

// externCall compiles an FFI call into a direct closure over the native
// function.
func (cc *fnCompiler) externCall(x *seamless.CallExpr, ext seamless.Extern) (func(*frame) float64, error) {
	argFns := make([]func(*frame) float64, len(x.Args))
	for i, a := range x.Args {
		fv, err := cc.floatExpr(a)
		if err != nil {
			return nil, err
		}
		argFns[i] = fv
	}
	fn := ext.Fn
	switch len(argFns) {
	case 1:
		a0 := argFns[0]
		return func(fr *frame) float64 { return fn(a0(fr)) }, nil
	case 2:
		a0, a1 := argFns[0], argFns[1]
		return func(fr *frame) float64 { return fn(a0(fr), a1(fr)) }, nil
	default:
		return func(fr *frame) float64 {
			buf := make([]float64, len(argFns))
			for i, af := range argFns {
				buf[i] = af(fr)
			}
			return fn(buf...)
		}, nil
	}
}

func (cc *fnCompiler) floatCall(x *seamless.CallExpr) (func(*frame) float64, error) {
	switch x.Name {
	case "sqrt", "sin", "cos", "exp", "log":
		a, err := cc.floatExpr(x.Args[0])
		if err != nil {
			return nil, err
		}
		var f func(float64) float64
		switch x.Name {
		case "sqrt":
			f = math.Sqrt
		case "sin":
			f = math.Sin
		case "cos":
			f = math.Cos
		case "exp":
			f = math.Exp
		case "log":
			f = math.Log
		}
		return func(fr *frame) float64 { return f(a(fr)) }, nil
	case "abs":
		a, err := cc.floatExpr(x.Args[0])
		if err != nil {
			return nil, err
		}
		return func(fr *frame) float64 { return math.Abs(a(fr)) }, nil
	case "min":
		l, err := cc.floatExpr(x.Args[0])
		if err != nil {
			return nil, err
		}
		r, err := cc.floatExpr(x.Args[1])
		if err != nil {
			return nil, err
		}
		return func(fr *frame) float64 { return math.Min(l(fr), r(fr)) }, nil
	case "max":
		l, err := cc.floatExpr(x.Args[0])
		if err != nil {
			return nil, err
		}
		r, err := cc.floatExpr(x.Args[1])
		if err != nil {
			return nil, err
		}
		return func(fr *frame) float64 { return math.Max(l(fr), r(fr)) }, nil
	case "float":
		return cc.floatExpr(x.Args[0])
	}
	if ext, ok := cc.engine.prog.Externs[x.Name]; ok {
		if _, shadowed := cc.engine.prog.Module.ByName[x.Name]; !shadowed {
			return cc.externCall(x, ext)
		}
	}
	invoke, callee, err := cc.moduleInvoker(x)
	if err != nil {
		return nil, err
	}
	switch callee.Ret {
	case seamless.TFloat:
		return func(fr *frame) float64 { return invoke(fr).retF }, nil
	case seamless.TInt:
		return func(fr *frame) float64 { return float64(invoke(fr).retI) }, nil
	}
	return nil, fmt.Errorf("compile: call %q returns %v, wanted float", x.Name, callee.Ret)
}

func (cc *fnCompiler) intCall(x *seamless.CallExpr) (func(*frame) int64, error) {
	switch x.Name {
	case "len":
		t := cc.typeOf(x.Args[0])
		if t == seamless.TArrFloat {
			a, err := cc.arrFExpr(x.Args[0])
			if err != nil {
				return nil, err
			}
			return func(fr *frame) int64 { return int64(len(a(fr))) }, nil
		}
		a, err := cc.arrIExpr(x.Args[0])
		if err != nil {
			return nil, err
		}
		return func(fr *frame) int64 { return int64(len(a(fr))) }, nil
	case "abs":
		a, err := cc.intExpr(x.Args[0])
		if err != nil {
			return nil, err
		}
		return func(fr *frame) int64 {
			v := a(fr)
			if v < 0 {
				return -v
			}
			return v
		}, nil
	case "min":
		l, err := cc.intExpr(x.Args[0])
		if err != nil {
			return nil, err
		}
		r, err := cc.intExpr(x.Args[1])
		if err != nil {
			return nil, err
		}
		return func(fr *frame) int64 {
			a, b := l(fr), r(fr)
			if a < b {
				return a
			}
			return b
		}, nil
	case "max":
		l, err := cc.intExpr(x.Args[0])
		if err != nil {
			return nil, err
		}
		r, err := cc.intExpr(x.Args[1])
		if err != nil {
			return nil, err
		}
		return func(fr *frame) int64 {
			a, b := l(fr), r(fr)
			if a > b {
				return a
			}
			return b
		}, nil
	case "int":
		t := cc.typeOf(x.Args[0])
		if t == seamless.TInt {
			return cc.intExpr(x.Args[0])
		}
		a, err := cc.floatExpr(x.Args[0])
		if err != nil {
			return nil, err
		}
		return func(fr *frame) int64 { return int64(a(fr)) }, nil
	}
	invoke, callee, err := cc.moduleInvoker(x)
	if err != nil {
		return nil, err
	}
	if callee.Ret != seamless.TInt {
		return nil, fmt.Errorf("compile: call %q returns %v, wanted int", x.Name, callee.Ret)
	}
	return func(fr *frame) int64 { return invoke(fr).retI }, nil
}

func (cc *fnCompiler) boolCall(x *seamless.CallExpr) (func(*frame) bool, error) {
	invoke, callee, err := cc.moduleInvoker(x)
	if err != nil {
		return nil, err
	}
	if callee.Ret != seamless.TBool {
		return nil, fmt.Errorf("compile: call %q returns %v, wanted bool", x.Name, callee.Ret)
	}
	return func(fr *frame) bool { return invoke(fr).retB }, nil
}

// arrFCall compiles the array-valued calls that are leaves of a fused
// expression: zeros and module functions.
func (cc *fnCompiler) arrFCall(x *seamless.CallExpr) (func(*frame) []float64, error) {
	if x.Name == "zeros" {
		n, err := cc.intExpr(x.Args[0])
		if err != nil {
			return nil, err
		}
		return func(fr *frame) []float64 { return make([]float64, n(fr)) }, nil
	}
	invoke, callee, err := cc.moduleInvoker(x)
	if err != nil {
		return nil, err
	}
	if callee.Ret != seamless.TArrFloat {
		return nil, fmt.Errorf("compile: call %q returns %v, wanted float array", x.Name, callee.Ret)
	}
	return func(fr *frame) []float64 { return invoke(fr).retAF }, nil
}

func (cc *fnCompiler) arrICall(x *seamless.CallExpr) (func(*frame) []int64, error) {
	if x.Name == "izeros" {
		n, err := cc.intExpr(x.Args[0])
		if err != nil {
			return nil, err
		}
		return func(fr *frame) []int64 { return make([]int64, n(fr)) }, nil
	}
	invoke, callee, err := cc.moduleInvoker(x)
	if err != nil {
		return nil, err
	}
	if callee.Ret != seamless.TArrInt {
		return nil, fmt.Errorf("compile: call %q returns %v, wanted int array", x.Name, callee.Ret)
	}
	return func(fr *frame) []int64 { return invoke(fr).retAI }, nil
}

func (cc *fnCompiler) voidCall(x *seamless.CallExpr) (func(*frame), error) {
	invoke, _, err := cc.moduleInvoker(x)
	if err != nil {
		return nil, err
	}
	return func(fr *frame) { invoke(fr) }, nil
}
