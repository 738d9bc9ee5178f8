// Package bridge connects ODIN distributed arrays to the Tpetra-analog
// solver stack — the paper's §III.E/§V workflow: "easily initialize a
// problem with NumPy-like ODIN distributed arrays and then pass those
// arrays to a PyTrilinos solution algorithm". The conversion is zero-copy
// whenever the ODIN local segment is contiguous: the tpetra.Vector and the
// DistArray share storage, so solver output is immediately visible in the
// array.
package bridge

import (
	"fmt"

	"odinhpc/internal/core"
	"odinhpc/internal/dense"
	"odinhpc/internal/solvers"
	"odinhpc/internal/teuchos"
	"odinhpc/internal/tpetra"
)

// ToVector wraps a 1-d float64 distributed array as a tpetra.Vector over
// the same map. Contiguous local storage is shared (zero-copy); strided
// views are flattened into a fresh buffer, in which case writes to the
// vector do not propagate back.
func ToVector(x *core.DistArray[float64]) *tpetra.Vector {
	if x.NDim() != 1 {
		panic(fmt.Sprintf("bridge: ToVector requires a 1-d array, got shape %v", x.Shape()))
	}
	local := x.Local()
	var data []float64
	if local.IsContiguous() {
		data = local.Raw()
	} else {
		data = local.Flatten()
	}
	return tpetra.WrapVector(x.Context().Comm(), x.Map(), data)
}

// SharesStorage reports whether the vector produced by ToVector would alias
// the array's memory (true for contiguous locals).
func SharesStorage(x *core.DistArray[float64]) bool {
	return x.NDim() == 1 && x.Local().IsContiguous()
}

// FromVector wraps a tpetra.Vector as a 1-d ODIN array over the same map,
// sharing storage.
func FromVector(ctx *core.Context, v *tpetra.Vector) *core.DistArray[float64] {
	defer ctx.SetControlMessages(ctx.SilenceControl())
	out := core.Zeros[float64](ctx, []int{v.GlobalLen()}, core.Options{Map: v.Map()})
	// Replace the freshly allocated local with the vector's storage so the
	// two alias, then copy nothing.
	return out.WithLocal(dense.FromSlice(v.Data, len(v.Data)))
}

// Solve runs the configured Krylov solver on A x = b where b and x are ODIN
// arrays distributed by A's row map — the end-to-end paper §V workflow in
// one call. x is updated in place (its storage is shared with the solver).
// Collective.
func Solve(a *tpetra.CrsMatrix, b, x *core.DistArray[float64], prec solvers.Preconditioner, params *teuchos.ParameterList) (solvers.Result, error) {
	if !b.Map().SameAs(a.Map()) || !x.Map().SameAs(a.Map()) {
		return solvers.Result{}, fmt.Errorf("bridge: arrays must be distributed by the matrix row map")
	}
	if !SharesStorage(x) {
		return solvers.Result{}, fmt.Errorf("bridge: solution array must have contiguous local storage")
	}
	bv := ToVector(b)
	xv := ToVector(x)
	return solvers.Solve(a, bv, xv, prec, params)
}
