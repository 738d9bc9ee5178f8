package fusion

// The closure reference evaluator: the pre-VM fused loop body, kept as the
// bitwise reference the register VM is property-tested against. It is
// test-only — production evaluation is the register VM, with EvalNaive as
// the op-at-a-time baseline.

import (
	"slices"

	"odinhpc/internal/core"
	"odinhpc/internal/dense"
	"odinhpc/internal/exec"
)

// compileClosure lowers the expression tree into a closure tree evaluated
// per element — the pre-VM fused loop body, kept as the internal reference
// evaluator that the register VM is property-tested against (results must
// agree bitwise for element-wise programs). leaves is root.Leaves() of the
// expression p was analyzed from: leaf i of that order is p.leafData[i].
func compileClosure(e *Expr, p *Plan, leaves []*core.DistArray[float64]) func(int) float64 {
	switch e.kind {
	case kindLeaf:
		data := p.leafData[slices.Index(leaves, e.leaf)]
		return func(i int) float64 { return data[i] }
	case kindConst:
		v := e.value
		return func(int) float64 { return v }
	case kindUnary:
		f := e.un
		arg := compileClosure(e.args[0], p, leaves)
		return func(i int) float64 { return f(arg(i)) }
	default:
		f := e.bin
		a := compileClosure(e.args[0], p, leaves)
		b := compileClosure(e.args[1], p, leaves)
		return func(i int) float64 { return f(a(i), b(i)) }
	}
}

// executeClosure is Execute on the closure reference evaluator; e is the
// expression p was analyzed from (a Plan keeps only what the VM runs).
func (p *Plan) executeClosure(e *Expr) *core.DistArray[float64] {
	n := p.model.Local().Size()
	out := make([]float64, n)
	kernel := compileClosure(e, p, e.Leaves())
	exec.Default().ParallelFor(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = kernel(i)
		}
	})
	return p.model.WithLocal(dense.FromSlice(out, p.model.Local().Shape()...))
}

// sumLocalClosure is sumLocal on the closure reference evaluator, with the
// lane order of every sum spelled out again: element i of an exec chunk into
// lane i mod 16, the lanes folded (l_k + l_{4+k}) + (l_{8+k} + l_{12+k}),
// then (s_0 + s_2) + (s_1 + s_3).
func (p *Plan) sumLocalClosure(e *Expr) float64 {
	n := p.model.Local().Size()
	kernel := compileClosure(e, p, e.Leaves())
	return exec.ParallelReduce(exec.Default(), n, func(lo, hi int) float64 {
		var l [16]float64
		for i := lo; i < hi; i++ {
			l[(i-lo)%16] += kernel(i)
		}
		var s [4]float64
		for k := range s {
			s[k] = (l[k] + l[4+k]) + (l[8+k] + l[12+k])
		}
		return (s[0] + s[2]) + (s[1] + s[3])
	}, func(a, b float64) float64 { return a + b })
}
