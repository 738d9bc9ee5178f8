// Slot plans: the register VM over plain local slices.
//
// The seamless compiled engine lowers whole-array kernel expressions to
// fusion programs, but its arrays are ordinary []float64 frame slots, not
// DistArrays. SliceSlot and ScalarSlot give such embedders direct access to
// the VM: Analyze compiles an expression over numbered slots once, into a
// plan that binds no leaves, and each ExecuteSlots call binds the slots to
// caller-supplied slices and runtime scalar values. The program comes from
// the same structural plan cache as Eval, keyed by slot numbers, never by
// scalar values, so one plan serves a kernel whatever its scalars.
package fusion

import (
	"fmt"

	"odinhpc/internal/exec"
)

// SliceSlot returns a leaf bound to leaves[i] of an ExecuteSlots call. A
// slot may appear any number of times in one expression; distinct slots must
// be numbered densely from 0. Slice leaves serialize into the cache key
// exactly like Var leaves, so a slice expression shares its cached program
// with the structurally identical DistArray expression. Mixing SliceSlot and
// Var leaves in one expression panics at lowering time.
func SliceSlot(i int) *Expr {
	if i < 0 {
		panic("fusion: SliceSlot index must be >= 0")
	}
	return &Expr{kind: kindSliceLeaf, slot: i}
}

// ScalarSlot returns a leaf that broadcasts scalars[i] of an ExecuteSlots
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

// ExecuteSlots runs a slot plan, writing the fused result into out: slice
// slot i reads leaves[i], scalar slot i reads scalars[i], and every bound
// leaf must have len(out) elements. It is also Execute's sweep, over a bound
// plan's own leaves, chunked over the exec engine with per-worker scratch
// registers. Results are bitwise identical to evaluating the expression
// element by element with float64 closures, superinstructions included
// (their kernels force intermediate rounding).
func (p *Plan) ExecuteSlots(out []float64, leaves [][]float64, scalars []float64) {
	if p.prog.nleaves > len(leaves) {
		panic(fmt.Sprintf("fusion: expression uses %d leaf slots, got %d slices", p.prog.nleaves, len(leaves)))
	}
	if p.prog.nscalars > len(scalars) {
		panic(fmt.Sprintf("fusion: expression uses %d scalar slots, got %d values", p.prog.nscalars, len(scalars)))
	}
	for i := 0; i < p.prog.nleaves; i++ {
		if len(leaves[i]) != len(out) {
			panic(fmt.Sprintf("fusion: leaf %d has %d elements, output has %d", i, len(leaves[i]), len(out)))
		}
	}
	exec.ForRange(exec.Default(), len(out), sweep{p: p, leaves: leaves, scalars: scalars, out: out},
		func(s sweep, lo, hi int) { s.run(lo, hi) })
}
