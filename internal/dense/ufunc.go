package dense

import (
	"fmt"
	"math"

	"odinhpc/internal/exec"
)

// The element-wise loops and whole-array reductions in this file execute
// through the process-wide exec engine (internal/exec): ODIN's claim that
// ufuncs "parallelize trivially" (§III.D) is realized once, there, instead
// of per kernel. Element-wise results are the serial loop's, bitwise, and
// reductions (Sum, Dot, Norm2, ...) fold the engine's chunks and combine
// them in its one tree, so every result is the same bits at every pool
// size, the one-worker engine included.

// Unary applies f element-wise to src and returns a new contiguous array of
// the same shape.
func Unary[T, U Elem](src *Array[T], f func(T) U) *Array[U] {
	out := Zeros[U](src.shape...)
	UnaryInto(out, src, f)
	return out
}

// UnaryInto applies f element-wise from src into dst (shapes must match).
// dst may be src itself (in-place), but must not partially overlap it
// through shifted views: elements are processed in spans that may run
// concurrently.
func UnaryInto[T, U Elem](dst *Array[U], src *Array[T], f func(T) U) {
	if !shapeEq(dst.shape, src.shape) {
		panic(fmt.Sprintf("dense: UnaryInto shape mismatch %v vs %v", dst.shape, src.shape))
	}
	n := src.Size()
	if dst.IsContiguous() && src.IsContiguous() {
		d, s := dst.Raw(), src.Raw()
		exec.Default().ParallelFor(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				d[i] = f(s[i])
			}
		})
		return
	}
	exec.Default().ParallelFor(n, func(lo, hi int) {
		sw := newOffsets(src.shape, src.strides, src.offset, lo)
		dw := newOffsets(dst.shape, dst.strides, dst.offset, lo)
		for i := lo; i < hi; i++ {
			dst.data[dw.off] = f(src.data[sw.off])
			sw.advance()
			dw.advance()
		}
	})
}

// Binary applies f element-wise to (a, b) and returns a new array. Shapes
// must match exactly; distributed broadcasting is handled a level up.
func Binary[T Elem](a, b *Array[T], f func(T, T) T) *Array[T] {
	if !shapeEq(a.shape, b.shape) {
		panic(fmt.Sprintf("dense: Binary shape mismatch %v vs %v", a.shape, b.shape))
	}
	out := Zeros[T](a.shape...)
	BinaryInto(out, a, b, f)
	return out
}

// BinaryInto applies f element-wise into dst. dst may be a or b (in-place),
// but must not partially overlap them through shifted views.
func BinaryInto[T Elem](dst, a, b *Array[T], f func(T, T) T) {
	if !shapeEq(a.shape, b.shape) || !shapeEq(dst.shape, a.shape) {
		panic(fmt.Sprintf("dense: BinaryInto shape mismatch %v, %v, %v", dst.shape, a.shape, b.shape))
	}
	n := a.Size()
	if dst.IsContiguous() && a.IsContiguous() && b.IsContiguous() {
		d, x, y := dst.Raw(), a.Raw(), b.Raw()
		exec.Default().ParallelFor(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				d[i] = f(x[i], y[i])
			}
		})
		return
	}
	exec.Default().ParallelFor(n, func(lo, hi int) {
		aw := newOffsets(a.shape, a.strides, a.offset, lo)
		bw := newOffsets(b.shape, b.strides, b.offset, lo)
		dw := newOffsets(dst.shape, dst.strides, dst.offset, lo)
		for i := lo; i < hi; i++ {
			dst.data[dw.off] = f(a.data[aw.off], b.data[bw.off])
			aw.advance()
			bw.advance()
			dw.advance()
		}
	})
}

// Scalar applies f(v, s) element-wise with a fixed scalar operand.
func Scalar[T Elem](a *Array[T], s T, f func(T, T) T) *Array[T] {
	return Unary(a, func(v T) T { return f(v, s) })
}

// Sum returns the sum of all elements.
func Sum[T Elem](a *Array[T]) T {
	return exec.ParallelReduce(exec.Default(), a.Size(), func(lo, hi int) T {
		var acc T
		a.foldRange(lo, hi, func(off int) { acc += a.data[off] })
		return acc
	}, func(x, y T) T { return x + y })
}

// Prod returns the product of all elements (1 for an empty array).
func Prod[T Elem](a *Array[T]) T {
	acc := fromInt[T](1)
	a.Each(func(v T) { acc *= v })
	return acc
}

// Min returns the minimum element; it panics on an empty array.
func Min[T Real](a *Array[T]) T {
	if a.Size() == 0 {
		panic("dense: Min of empty array")
	}
	return exec.ParallelReduce(exec.Default(), a.Size(), func(lo, hi int) T {
		first := true
		var best T
		a.foldRange(lo, hi, func(off int) {
			if v := a.data[off]; first || v < best {
				best = v
				first = false
			}
		})
		return best
	}, func(x, y T) T {
		if y < x {
			return y
		}
		return x
	})
}

// Max returns the maximum element; it panics on an empty array.
func Max[T Real](a *Array[T]) T {
	if a.Size() == 0 {
		panic("dense: Max of empty array")
	}
	return exec.ParallelReduce(exec.Default(), a.Size(), func(lo, hi int) T {
		first := true
		var best T
		a.foldRange(lo, hi, func(off int) {
			if v := a.data[off]; first || v > best {
				best = v
				first = false
			}
		})
		return best
	}, func(x, y T) T {
		if y > x {
			return y
		}
		return x
	})
}

// ArgMin returns the row-major flat position of the minimum element.
func ArgMin[T Real](a *Array[T]) int {
	if a.Size() == 0 {
		panic("dense: ArgMin of empty array")
	}
	first := true
	var best T
	bi, i := 0, 0
	a.foldRange(0, a.Size(), func(off int) {
		if v := a.data[off]; first || v < best {
			best, bi = v, i
			first = false
		}
		i++
	})
	return bi
}

// ArgMax returns the row-major flat position of the maximum element.
func ArgMax[T Real](a *Array[T]) int {
	if a.Size() == 0 {
		panic("dense: ArgMax of empty array")
	}
	first := true
	var best T
	bi, i := 0, 0
	a.foldRange(0, a.Size(), func(off int) {
		if v := a.data[off]; first || v > best {
			best, bi = v, i
			first = false
		}
		i++
	})
	return bi
}

// Mean returns the arithmetic mean of a floating-point array.
func Mean[T Float](a *Array[T]) T {
	if a.Size() == 0 {
		panic("dense: Mean of empty array")
	}
	return Sum(a) / T(a.Size())
}

// CumSum returns the running inclusive prefix sum in row-major order as a
// 1-d array.
func CumSum[T Elem](a *Array[T]) *Array[T] {
	out := make([]T, a.Size())
	var acc T
	i := 0
	a.Each(func(v T) {
		acc += v
		out[i] = acc
		i++
	})
	return FromSlice(out, len(out))
}

// ReduceAxis folds the elements along one axis with f, producing an array
// whose shape drops that axis (NumPy's reduce with axis=). The init value
// seeds each output element.
func ReduceAxis[T Elem](a *Array[T], axis int, init T, f func(acc, v T) T) *Array[T] {
	if axis < 0 || axis >= a.NDim() {
		panic(fmt.Sprintf("dense: ReduceAxis axis %d out of range for shape %v", axis, a.shape))
	}
	outShape := make([]int, 0, a.NDim()-1)
	for d, s := range a.shape {
		if d != axis {
			outShape = append(outShape, s)
		}
	}
	out := Full(init, outShape...)
	oidx := make([]int, len(outShape))
	a.EachIndexed(func(idx []int, v T) {
		k := 0
		for d, i := range idx {
			if d != axis {
				oidx[k] = i
				k++
			}
		}
		out.Set(f(out.At(oidx...), v), oidx...)
	})
	return out
}

// SumAxis sums along one axis.
func SumAxis[T Elem](a *Array[T], axis int) *Array[T] {
	var zero T
	return ReduceAxis(a, axis, zero, func(acc, v T) T { return acc + v })
}

// Dot returns the inner product of two 1-d arrays of equal length. Both
// operands may be arbitrary strided views.
func Dot[T Elem](a, b *Array[T]) T {
	if a.NDim() != 1 || b.NDim() != 1 || a.Dim(0) != b.Dim(0) {
		panic(fmt.Sprintf("dense: Dot needs equal-length vectors, got %v and %v", a.shape, b.shape))
	}
	ad, bd := a.data, b.data
	ao, bo := a.offset, b.offset
	as, bs := a.strides[0], b.strides[0]
	return exec.ParallelReduce(exec.Default(), a.Dim(0), func(lo, hi int) T {
		var acc T
		for i := lo; i < hi; i++ {
			acc += ad[ao+i*as] * bd[bo+i*bs]
		}
		return acc
	}, func(x, y T) T { return x + y })
}

// Norm2 returns the Euclidean norm of a float vector or matrix (Frobenius).
func Norm2[T Float](a *Array[T]) float64 {
	ss := exec.ParallelReduce(exec.Default(), a.Size(), func(lo, hi int) float64 {
		var acc float64
		a.foldRange(lo, hi, func(off int) {
			v := float64(a.data[off])
			acc += v * v
		})
		return acc
	}, func(x, y float64) float64 { return x + y })
	return math.Sqrt(ss)
}

// Norm1 returns the sum of absolute values.
func Norm1[T Float](a *Array[T]) float64 {
	return exec.ParallelReduce(exec.Default(), a.Size(), func(lo, hi int) float64 {
		var acc float64
		a.foldRange(lo, hi, func(off int) { acc += math.Abs(float64(a.data[off])) })
		return acc
	}, func(x, y float64) float64 { return x + y })
}

// NormInf returns the maximum absolute value (0 for empty arrays).
func NormInf[T Float](a *Array[T]) float64 {
	return exec.ParallelReduce(exec.Default(), a.Size(), func(lo, hi int) float64 {
		var acc float64
		a.foldRange(lo, hi, func(off int) {
			if av := math.Abs(float64(a.data[off])); av > acc {
				acc = av
			}
		})
		return acc
	}, func(x, y float64) float64 { return math.Max(x, y) })
}

// Where returns the row-major flat positions at which pred holds.
func Where[T Elem](a *Array[T], pred func(T) bool) []int {
	var out []int
	i := 0
	a.Each(func(v T) {
		if pred(v) {
			out = append(out, i)
		}
		i++
	})
	return out
}

// Count returns the number of elements for which pred holds.
func Count[T Elem](a *Array[T], pred func(T) bool) int {
	return exec.ParallelReduce(exec.Default(), a.Size(), func(lo, hi int) int {
		n := 0
		a.foldRange(lo, hi, func(off int) {
			if pred(a.data[off]) {
				n++
			}
		})
		return n
	}, func(x, y int) int { return x + y })
}

// AllClose reports whether two float arrays agree element-wise within
// absolute tolerance atol plus relative tolerance rtol (NumPy semantics).
func AllClose[T Float](a, b *Array[T], rtol, atol float64) bool {
	if !shapeEq(a.shape, b.shape) {
		return false
	}
	av, bv := a.Flatten(), b.Flatten()
	for i := range av {
		x, y := float64(av[i]), float64(bv[i])
		if math.IsNaN(x) || math.IsNaN(y) {
			return false
		}
		if math.Abs(x-y) > atol+rtol*math.Abs(y) {
			return false
		}
	}
	return true
}
