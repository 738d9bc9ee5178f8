package ufunc

import (
	"fmt"
	"math"

	"odinhpc/internal/comm"
	"odinhpc/internal/core"
	"odinhpc/internal/dense"
	"odinhpc/internal/distmap"
)

// Sum returns the global sum of all elements. Collective.
func Sum[T dense.Real](x *core.DistArray[T]) T {
	x.Context().Control(core.OpReduce, 1)
	return comm.AllreduceScalar(x.Context().Comm(), dense.Sum(x.Local()), comm.OpSum)
}

// Prod returns the global product of all elements. Collective.
func Prod[T dense.Real](x *core.DistArray[T]) T {
	x.Context().Control(core.OpReduce, 1)
	return comm.AllreduceScalar(x.Context().Comm(), dense.Prod(x.Local()), comm.OpProd)
}

// Min returns the global minimum. Collective.
func Min[T dense.Real](x *core.DistArray[T]) T {
	x.Context().Control(core.OpReduce, 1)
	if x.GlobalSize() == 0 {
		panic("ufunc: Min of empty array")
	}
	local, ok := localExtreme(x, true)
	return extremeAllreduce(x, local, ok, comm.OpMin)
}

// Max returns the global maximum. Collective.
func Max[T dense.Real](x *core.DistArray[T]) T {
	x.Context().Control(core.OpReduce, 1)
	if x.GlobalSize() == 0 {
		panic("ufunc: Max of empty array")
	}
	local, ok := localExtreme(x, false)
	return extremeAllreduce(x, local, ok, comm.OpMax)
}

// localExtreme returns this rank's min or max and whether it holds any
// elements at all.
func localExtreme[T dense.Real](x *core.DistArray[T], min bool) (T, bool) {
	var best T
	if x.Local().Size() == 0 {
		return best, false
	}
	if min {
		return dense.Min(x.Local()), true
	}
	return dense.Max(x.Local()), true
}

// extremeAllreduce combines per-rank extremes, skipping empty ranks by
// substituting the global answer from occupied ranks.
func extremeAllreduce[T dense.Real](x *core.DistArray[T], local T, ok bool, op comm.Op) T {
	// Gather (value, occupied) pairs; P is small.
	vals := comm.Allgather(x.Context().Comm(), []T{local})
	occ := comm.Allgather(x.Context().Comm(), []bool{ok})
	first := true
	var best T
	for r := range vals {
		if !occ[r][0] {
			continue
		}
		v := vals[r][0]
		if first {
			best = v
			first = false
			continue
		}
		if op == comm.OpMin && v < best || op == comm.OpMax && v > best {
			best = v
		}
	}
	return best
}

// Mean returns the global arithmetic mean of a float array. Collective.
func Mean[T dense.Float](x *core.DistArray[T]) T {
	if x.GlobalSize() == 0 {
		panic("ufunc: Mean of empty array")
	}
	return Sum(x) / T(x.GlobalSize())
}

// ArgMax returns the global row-major flat index of the maximum element
// (lowest index wins ties). Collective.
func ArgMax[T dense.Real](x *core.DistArray[T]) int {
	x.Context().Control(core.OpReduce, 2)
	if x.GlobalSize() == 0 {
		panic("ufunc: ArgMax of empty array")
	}
	me := x.Context().Rank()
	shape := x.Shape()
	// Local best with its global flat index.
	bestIdx := -1
	var bestVal T
	gidx := make([]int, len(shape))
	x.Local().EachIndexed(func(lidx []int, v T) {
		copy(gidx, lidx)
		gidx[x.Axis()] = x.Map().LocalToGlobal(me, lidx[x.Axis()])
		flat := 0
		for d, i := range gidx {
			flat = flat*shape[d] + i
		}
		if bestIdx == -1 || v > bestVal || v == bestVal && flat < bestIdx {
			bestVal, bestIdx = v, flat
		}
	})
	vals := comm.Allgather(x.Context().Comm(), []T{bestVal})
	idxs := comm.Allgather(x.Context().Comm(), []int{bestIdx})
	globalIdx := -1
	var globalVal T
	for r := range vals {
		if idxs[r][0] == -1 {
			continue
		}
		v, i := vals[r][0], idxs[r][0]
		if globalIdx == -1 || v > globalVal || v == globalVal && i < globalIdx {
			globalVal, globalIdx = v, i
		}
	}
	return globalIdx
}

// SumAxis sums a distributed array along one axis, returning an array
// whose global shape drops that axis (NumPy's sum(axis=k)). Reductions
// along non-distributed axes are purely local; reducing along the
// distributed axis costs one Allreduce of the result slab. Requires an
// array of at least two dimensions (use Sum for the full reduction).
// Collective.
func SumAxis[T dense.Real](x *core.DistArray[T], axis int) *core.DistArray[T] {
	if x.NDim() < 2 {
		panic("ufunc: SumAxis requires >= 2 dimensions; use Sum for full reductions")
	}
	if axis < 0 || axis >= x.NDim() {
		panic(fmt.Sprintf("ufunc: SumAxis axis %d out of range for shape %v", axis, x.Shape()))
	}
	ctx := x.Context()
	ctx.Control(core.OpReduce, int64(axis))
	defer ctx.SetControlMessages(ctx.SilenceControl())

	outShape := make([]int, 0, x.NDim()-1)
	for d, s := range x.Shape() {
		if d != axis {
			outShape = append(outShape, s)
		}
	}
	if axis != x.Axis() {
		// Local fold; distribution follows the (possibly shifted) axis.
		newAxis := x.Axis()
		if axis < newAxis {
			newAxis--
		}
		local := dense.SumAxis(x.Local(), axis)
		out := core.Zeros[T](ctx, outShape, core.Options{Axis: newAxis, Map: x.Map()})
		out.Local().CopyFrom(local)
		return out
	}
	// Reduce along the distributed axis: fold the local slab stack, then
	// Allreduce the slab and keep this rank's share of a fresh block
	// distribution over the leading remaining axis.
	partial := dense.SumAxis(x.Local(), axis)
	full := comm.Allreduce(ctx.Comm(), partial.Flatten(), comm.OpSum)
	fullArr := dense.FromSlice(full, outShape...)
	out := core.Zeros[T](ctx, outShape)
	me := ctx.Rank()
	gidx := make([]int, len(outShape))
	out.Local().EachIndexed(func(lidx []int, _ T) {
		copy(gidx, lidx)
		gidx[0] = out.Map().LocalToGlobal(me, lidx[0])
		out.Local().Set(fullArr.At(gidx...), lidx...)
	})
	return out
}

// CumSum returns the inclusive prefix sum of a 1-d distributed array with
// the same distribution: a local scan plus one exclusive scan of the rank
// totals. Collective.
func CumSum[T dense.Real](x *core.DistArray[T]) *core.DistArray[T] {
	if x.NDim() != 1 {
		panic(fmt.Sprintf("ufunc: CumSum requires a 1-d array, got shape %v", x.Shape()))
	}
	if x.Map().Kind() != distmap.Block && x.Context().Size() > 1 {
		// Prefix order must follow global order; only contiguous block
		// layouts allow the cheap scan.
		panic("ufunc: CumSum requires a block distribution")
	}
	x.Context().Control(core.OpReduce, 3)
	local := dense.CumSum(x.Local())
	var total T
	if local.Size() > 0 {
		total = local.At(local.Size() - 1)
	}
	offset := comm.ExclusiveScanScalar(x.Context().Comm(), total, comm.OpSum)
	out := dense.Scalar(local, offset, func(v, o T) T { return v + o })
	return x.WithLocal(out)
}

// Dot returns the global inner product of two 1-d arrays, redistributing y
// if the operands are not conformable. Collective.
func Dot[T dense.Real](x, y *core.DistArray[T]) T {
	if x.NDim() != 1 || y.NDim() != 1 || x.GlobalSize() != y.GlobalSize() {
		panic("ufunc: Dot requires equal-length 1-d arrays")
	}
	x.Context().Control(core.OpReduce, 2)
	if !x.ConformableWith(y) {
		y = core.Redistribute(y, x.Map())
	}
	return comm.AllreduceScalar(x.Context().Comm(), dense.Dot(x.Local(), y.Local()), comm.OpSum)
}

// Norm2 returns the global Euclidean norm of a float array. Collective.
func Norm2[T dense.Float](x *core.DistArray[T]) float64 {
	x.Context().Control(core.OpReduce, 1)
	var acc float64
	x.Local().Each(func(v T) { acc += float64(v) * float64(v) })
	return math.Sqrt(comm.AllreduceScalar(x.Context().Comm(), acc, comm.OpSum))
}

// AllClose reports whether two float arrays agree element-wise within
// tolerances, redistributing if necessary. Collective.
func AllClose[T dense.Float](x, y *core.DistArray[T], rtol, atol float64) bool {
	if !sameShape(x.Shape(), y.Shape()) {
		return false
	}
	if !x.ConformableWith(y) {
		y = core.Redistribute(y, x.Map())
	}
	local := 1
	if !dense.AllClose(x.Local(), y.Local(), rtol, atol) {
		local = 0
	}
	return comm.AllreduceScalar(x.Context().Comm(), local, comm.OpMin) == 1
}

// Count returns the global number of elements satisfying pred. Collective.
func Count[T dense.Elem](x *core.DistArray[T], pred func(T) bool) int {
	x.Context().Control(core.OpReduce, 1)
	return comm.AllreduceScalar(x.Context().Comm(), dense.Count(x.Local(), pred), comm.OpSum)
}
