// Slice-leaf evaluation: the register VM over plain local slices.
//
// The seamless compiled engine lowers whole-array kernel expressions to
// fusion programs, but its arrays are ordinary []float64 frame slots, not
// DistArrays. SliceSlot/EvalSlices give such embedders direct access to the
// VM: leaves are numbered slots bound to caller-supplied slices — and
// runtime scalars to caller-supplied values — at evaluation time, and
// programs go through the same structural plan cache as Eval, so a kernel
// re-entered every solver iteration compiles once, whatever its scalars.
package fusion

import (
	"fmt"

	"odinhpc/internal/exec"
)

// SliceSlot returns a leaf bound to slot i of an EvalSlices call. A slot
// may appear any number of times in one expression; distinct slots must be
// numbered densely from 0, because slot i binds to leaves[i]. Slice leaves
// serialize into the cache key exactly like Var leaves, so a slice
// expression shares its cached program with the structurally identical
// DistArray expression. Mixing SliceSlot and Var leaves in one expression
// panics at lowering time.
func SliceSlot(i int) *Expr {
	if i < 0 {
		panic("fusion: SliceSlot index must be >= 0")
	}
	return &Expr{kind: kindSliceLeaf, slot: i}
}

// ScalarSlot returns a leaf that broadcasts scalars[i] of an EvalSlices
// call over the whole sweep: a runtime scalar operand. Unlike Const, whose
// value is part of the program (folded, and serialized into the cache key),
// a scalar slot serializes by its number alone, so one cached program serves
// every value the slot is ever bound to. Slots are numbered densely from 0,
// like slice slots, and do not mix with Var leaves.
func ScalarSlot(i int) *Expr {
	if i < 0 {
		panic("fusion: ScalarSlot index must be >= 0")
	}
	return &Expr{kind: kindScalarLeaf, slot: i}
}

// EvalSlices evaluates an expression over slice leaves, writing the fused
// result into out: slice slot i reads leaves[i], scalar slot i reads
// scalars[i], and every bound leaf must have len(out) elements. The sweep
// is chunked over the exec engine with per-worker scratch registers, like
// Plan.Execute. Results are bitwise identical to evaluating the expression
// element by element with float64 closures, superinstructions included
// (their kernels force intermediate rounding).
func EvalSlices(e *Expr, leaves [][]float64, scalars []float64, out []float64) {
	p := compileProgram(e)
	if p.nleaves > len(leaves) {
		panic(fmt.Sprintf("fusion: expression uses %d leaf slots, got %d slices", p.nleaves, len(leaves)))
	}
	if p.nscalars > len(scalars) {
		panic(fmt.Sprintf("fusion: expression uses %d scalar slots, got %d values", p.nscalars, len(scalars)))
	}
	for i := 0; i < p.nleaves; i++ {
		if len(leaves[i]) != len(out) {
			panic(fmt.Sprintf("fusion: leaf %d has %d elements, output has %d", i, len(leaves[i]), len(out)))
		}
	}
	block := BlockSize()
	exec.Default().ParallelFor(len(out), func(lo, hi int) {
		st := p.getState(block, scalars)
		p.runSpan(st, leaves, out, lo, hi)
		p.putState(st)
	})
}
