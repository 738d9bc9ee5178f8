// Package ufunc implements ODIN's distributed universal functions (§III.D):
// unary ufuncs that parallelize with zero communication, binary ufuncs that
// are communication-free when the operands are conformable and otherwise
// redistribute one operand under a cost-minimizing strategy, and the global
// reductions and scans built on the collective layer.
package ufunc

import (
	"fmt"
	"math"

	"odinhpc/internal/core"
	"odinhpc/internal/dense"
	"odinhpc/internal/exec"
)

// Unary applies f element-wise. No communication: "all of NumPy's unary
// ufuncs are able to be trivially parallelized".
func Unary[T, U dense.Elem](x *core.DistArray[T], f func(T) U) *core.DistArray[U] {
	x.Context().Control(core.OpUfunc, 1)
	return core.WithLocalLike[U](x, dense.Unary(x.Local(), f))
}

// Strategy selects how a non-conformable binary ufunc aligns its operands.
type Strategy int

// Redistribution strategies for non-conformable operands.
const (
	// StrategyAuto picks the cheaper of the two import directions by
	// counting the slabs that would cross rank boundaries.
	StrategyAuto Strategy = iota
	// StrategyImportRight moves y into x's distribution.
	StrategyImportRight
	// StrategyImportLeft moves x into y's distribution.
	StrategyImportLeft
)

func (s Strategy) String() string {
	switch s {
	case StrategyAuto:
		return "auto"
	case StrategyImportRight:
		return "import-right"
	case StrategyImportLeft:
		return "import-left"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// BinaryOptions tunes non-conformable binary ufuncs — the Go analog of the
// paper's "Python context managers and function decorators" override knob.
type BinaryOptions struct {
	Strategy Strategy
}

// PlanBinary reports which strategy Binary would use for the given operands
// and the number of elements it would move (zero for conformable operands).
//
// The chooser minimizes bytes moved first. For same-shape operands the two
// import directions move exactly the symmetric difference of the ownership
// tables, so byte costs tie; the tie is broken toward the better-balanced
// result layout (so importing toward a degenerate all-on-one-rank operand
// never wins), and a remaining tie keeps the left operand's layout.
// Collective (it reduces per-rank counts).
func PlanBinary[T dense.Elem](x, y *core.DistArray[T], opts ...BinaryOptions) (Strategy, int) {
	opt := BinaryOptions{}
	if len(opts) > 0 {
		opt = opts[0]
	}
	if x.ConformableWith(y) {
		return opt.Strategy, 0
	}
	switch opt.Strategy {
	case StrategyImportRight:
		return StrategyImportRight, core.RedistributeCost(y, x.Map())
	case StrategyImportLeft:
		return StrategyImportLeft, core.RedistributeCost(x, y.Map())
	default:
		right := core.RedistributeCost(y, x.Map())
		left := core.RedistributeCost(x, y.Map())
		if left < right {
			return StrategyImportLeft, left
		}
		if right < left {
			return StrategyImportRight, right
		}
		// Byte tie: favor the layout that balances the element-wise work.
		if y.Map().Imbalance() < x.Map().Imbalance() {
			return StrategyImportLeft, left
		}
		return StrategyImportRight, right
	}
}

// Binary applies f element-wise to two distributed arrays of the same
// global shape. Conformable operands run without communication; otherwise
// one operand is redistributed according to the strategy ("ODIN will choose
// a strategy that will minimize communication, while allowing the
// knowledgeable user to modify its behavior", §III.D).
func Binary[T dense.Elem](x, y *core.DistArray[T], f func(T, T) T, opts ...BinaryOptions) *core.DistArray[T] {
	if !sameShape(x.Shape(), y.Shape()) {
		panic(fmt.Sprintf("ufunc: Binary global shape mismatch %v vs %v", x.Shape(), y.Shape()))
	}
	x.Context().Control(core.OpUfunc, 2)
	if x.ConformableWith(y) {
		return x.WithLocal(dense.Binary(x.Local(), y.Local(), f))
	}
	if x.Axis() != y.Axis() {
		// Align axes by redistributing y over x's axis and map; requires a
		// full reshuffle. Implemented via gather-free redistribution over
		// the flattened axis is out of scope: handle the common same-axis
		// case and reject the rest explicitly.
		panic(fmt.Sprintf("ufunc: operands distributed over different axes (%d vs %d)", x.Axis(), y.Axis()))
	}
	strat, _ := PlanBinary(x, y, opts...)
	switch strat {
	case StrategyImportLeft:
		xr := core.Redistribute(x, y.Map())
		return xr.WithLocal(dense.Binary(xr.Local(), y.Local(), f))
	default:
		yr := core.Redistribute(y, x.Map())
		return x.WithLocal(dense.Binary(x.Local(), yr.Local(), f))
	}
}

// Scalar applies f(v, s) element-wise with a fixed scalar right operand.
func Scalar[T dense.Elem](x *core.DistArray[T], s T, f func(T, T) T) *core.DistArray[T] {
	x.Context().Control(core.OpUfunc, 1)
	return x.WithLocal(dense.Scalar(x.Local(), s, f))
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

// Convenience arithmetic wrappers.

// Add returns x + y element-wise.
func Add[T dense.Elem](x, y *core.DistArray[T], opts ...BinaryOptions) *core.DistArray[T] {
	return Binary(x, y, func(a, b T) T { return a + b }, opts...)
}

// Sub returns x - y element-wise.
func Sub[T dense.Elem](x, y *core.DistArray[T], opts ...BinaryOptions) *core.DistArray[T] {
	return Binary(x, y, func(a, b T) T { return a - b }, opts...)
}

// Mul returns x * y element-wise.
func Mul[T dense.Elem](x, y *core.DistArray[T], opts ...BinaryOptions) *core.DistArray[T] {
	return Binary(x, y, func(a, b T) T { return a * b }, opts...)
}

// Div returns x / y element-wise.
func Div[T dense.Elem](x, y *core.DistArray[T], opts ...BinaryOptions) *core.DistArray[T] {
	return Binary(x, y, func(a, b T) T { return a / b }, opts...)
}

// Named float unary ufuncs matching the paper's examples (odin.sqrt,
// odin.sin, ...).

// vecUnary is Unary for a named ufunc with a slice body: a contiguous local
// block runs vec (dense.VecSin, ...: the fusion VM's four-lane kernels, each
// element bitwise f's) over the engine's spans, any other block f element
// by element.
func vecUnary(x *core.DistArray[float64], vec func(dst, a []float64), f func(float64) float64) *core.DistArray[float64] {
	src := x.Local()
	if !src.IsContiguous() {
		return Unary(x, f)
	}
	x.Context().Control(core.OpUfunc, 1)
	out := dense.Zeros[float64](src.Shape()...)
	d, s := out.Raw(), src.Raw()
	exec.Default().ParallelFor(len(d), func(lo, hi int) { vec(d[lo:hi], s[lo:hi]) })
	return core.WithLocalLike[float64](x, out)
}

// Sqrt returns the element-wise square root.
func Sqrt(x *core.DistArray[float64]) *core.DistArray[float64] {
	return vecUnary(x, dense.VecSqrt, math.Sqrt)
}

// Sin returns the element-wise sine.
func Sin(x *core.DistArray[float64]) *core.DistArray[float64] {
	return vecUnary(x, dense.VecSin, math.Sin)
}

// Cos returns the element-wise cosine.
func Cos(x *core.DistArray[float64]) *core.DistArray[float64] {
	return vecUnary(x, dense.VecCos, math.Cos)
}

// Exp returns the element-wise exponential.
func Exp(x *core.DistArray[float64]) *core.DistArray[float64] {
	return vecUnary(x, dense.VecExp, math.Exp)
}

// Abs returns element-wise absolute values.
func Abs(x *core.DistArray[float64]) *core.DistArray[float64] {
	return Unary(x, math.Abs)
}

// Hypot returns element-wise sqrt(x^2 + y^2), the paper's §III.C example
// computed in global mode.
func Hypot(x, y *core.DistArray[float64], opts ...BinaryOptions) *core.DistArray[float64] {
	return Binary(x, y, math.Hypot, opts...)
}
