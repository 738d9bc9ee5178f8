// Package dense implements serial n-dimensional strided arrays with
// NumPy-like semantics: cheap views for slicing and transposition, generic
// element types (the Tpetra "Scalar template" analog), element-wise ufunc
// loops, reductions, and the dense BLAS-style kernels the distributed layers
// build on. It is the per-rank building block for ODIN's DistArray.
package dense

import (
	"fmt"
)

// Elem constrains the element types an Array can store — the analog of the
// Scalar template parameter of Tpetra::Vector discussed in §II.C of the
// paper (real, complex, or integer data). The types are exact and a subset
// of comm.Elem, so every Array's elements travel on every transport.
type Elem interface {
	float32 | float64 | int32 | int64 | complex64 | complex128
}

// Real constrains Elem to ordered (non-complex) element types.
type Real interface {
	float32 | float64 | int32 | int64
}

// Float constrains Elem to floating-point element types.
type Float interface {
	float32 | float64
}

// Array is an n-dimensional strided view over a flat buffer. Multiple arrays
// may share one buffer (views); use Clone for an independent copy. The zero
// value is not useful; construct arrays with Zeros, Full, FromSlice, or as
// views of existing arrays.
type Array[T Elem] struct {
	data    []T
	shape   []int
	strides []int // in elements, may be negative for reversed views
	offset  int
}

// Zeros returns a new contiguous array of the given shape filled with zeros.
func Zeros[T Elem](shape ...int) *Array[T] {
	n := checkShape(shape)
	return fromBuffer(make([]T, n), shape)
}

// Full returns a new contiguous array of the given shape filled with v.
func Full[T Elem](v T, shape ...int) *Array[T] {
	a := Zeros[T](shape...)
	a.Fill(v)
	return a
}

// FromSlice wraps data (without copying) as an array of the given shape. The
// product of the shape must equal len(data).
func FromSlice[T Elem](data []T, shape ...int) *Array[T] {
	n := checkShape(shape)
	if n != len(data) {
		panic(fmt.Sprintf("dense: shape %v needs %d elements, slice has %d", shape, n, len(data)))
	}
	return fromBuffer(data, shape)
}

func fromBuffer[T Elem](data []T, shape []int) *Array[T] {
	sh := make([]int, len(shape))
	copy(sh, shape)
	return &Array[T]{data: data, shape: sh, strides: contiguousStrides(sh)}
}

func contiguousStrides(shape []int) []int {
	st := make([]int, len(shape))
	acc := 1
	for d := len(shape) - 1; d >= 0; d-- {
		st[d] = acc
		acc *= shape[d]
	}
	return st
}

func checkShape(shape []int) int {
	n := 1
	for _, s := range shape {
		if s < 0 {
			panic(fmt.Sprintf("dense: negative dimension in shape %v", shape))
		}
		n *= s
	}
	return n
}

// NDim returns the number of dimensions.
func (a *Array[T]) NDim() int { return len(a.shape) }

// Shape returns a copy of the array's shape.
func (a *Array[T]) Shape() []int {
	out := make([]int, len(a.shape))
	copy(out, a.shape)
	return out
}

// Dim returns the extent along dimension d.
func (a *Array[T]) Dim(d int) int { return a.shape[d] }

// Size returns the total number of elements.
func (a *Array[T]) Size() int {
	n := 1
	for _, s := range a.shape {
		n *= s
	}
	return n
}

// At returns the element at the given multi-index.
func (a *Array[T]) At(idx ...int) T {
	return a.data[a.flatIndex(idx)]
}

// Set stores v at the given multi-index.
func (a *Array[T]) Set(v T, idx ...int) {
	a.data[a.flatIndex(idx)] = v
}

func (a *Array[T]) flatIndex(idx []int) int {
	if len(idx) != len(a.shape) {
		panic(fmt.Sprintf("dense: index %v has %d dims, array has %d", idx, len(idx), len(a.shape)))
	}
	off := a.offset
	for d, i := range idx {
		if i < 0 || i >= a.shape[d] {
			panic(fmt.Sprintf("dense: index %d out of range [0,%d) in dim %d", i, a.shape[d], d))
		}
		off += i * a.strides[d]
	}
	return off
}

// IsContiguous reports whether the view is a dense row-major block (so Raw
// exposes exactly the elements in order).
func (a *Array[T]) IsContiguous() bool {
	acc := 1
	for d := len(a.shape) - 1; d >= 0; d-- {
		if a.shape[d] == 0 {
			return true
		}
		if a.shape[d] != 1 && a.strides[d] != acc {
			return false
		}
		acc *= a.shape[d]
	}
	return true
}

// Raw returns the underlying buffer segment for a contiguous array, aliasing
// the array's storage. It panics for non-contiguous views; use Flatten there.
func (a *Array[T]) Raw() []T {
	if !a.IsContiguous() {
		panic("dense: Raw on non-contiguous view; use Flatten")
	}
	return a.data[a.offset : a.offset+a.Size()]
}

// Flatten returns a freshly allocated row-major copy of the elements.
func (a *Array[T]) Flatten() []T {
	out := make([]T, 0, a.Size())
	a.Each(func(v T) { out = append(out, v) })
	return out
}

// Clone returns an independent contiguous copy of the array.
func (a *Array[T]) Clone() *Array[T] {
	return FromSlice(a.Flatten(), a.shape...)
}

// Fill sets every element of the view to v.
func (a *Array[T]) Fill(v T) {
	if a.IsContiguous() {
		raw := a.Raw()
		for i := range raw {
			raw[i] = v
		}
		return
	}
	a.mapInPlace(func(T) T { return v })
}

// CopyFrom copies src's elements into a (shapes must match exactly).
func (a *Array[T]) CopyFrom(src *Array[T]) {
	if !shapeEq(a.shape, src.shape) {
		panic(fmt.Sprintf("dense: CopyFrom shape mismatch %v vs %v", a.shape, src.shape))
	}
	if a.IsContiguous() && src.IsContiguous() {
		copy(a.Raw(), src.Raw())
		return
	}
	dst := a
	it := newIterator(src.shape)
	for it.next() {
		dst.data[dst.offsetOf(it.idx)] = src.data[src.offsetOf(it.idx)]
	}
}

func (a *Array[T]) offsetOf(idx []int) int {
	off := a.offset
	for d, i := range idx {
		off += i * a.strides[d]
	}
	return off
}

// Each calls f on every element in row-major order.
func (a *Array[T]) Each(f func(v T)) {
	if a.IsContiguous() {
		for _, v := range a.Raw() {
			f(v)
		}
		return
	}
	it := newIterator(a.shape)
	for it.next() {
		f(a.data[a.offsetOf(it.idx)])
	}
}

// EachIndexed calls f on every (multi-index, element) pair in row-major order.
// The idx slice is reused between calls; copy it if retained.
func (a *Array[T]) EachIndexed(f func(idx []int, v T)) {
	it := newIterator(a.shape)
	for it.next() {
		f(it.idx, a.data[a.offsetOf(it.idx)])
	}
}

func (a *Array[T]) mapInPlace(f func(T) T) {
	it := newIterator(a.shape)
	for it.next() {
		p := a.offsetOf(it.idx)
		a.data[p] = f(a.data[p])
	}
}

// iterator walks a shape in row-major order.
type iterator struct {
	shape []int
	idx   []int
	done  bool
	first bool
}

func newIterator(shape []int) *iterator {
	n := 1
	for _, s := range shape {
		n *= s
	}
	return &iterator{shape: shape, idx: make([]int, len(shape)), done: n == 0, first: true}
}

func (it *iterator) next() bool {
	if it.done {
		return false
	}
	if it.first {
		it.first = false
		return true
	}
	for d := len(it.shape) - 1; d >= 0; d-- {
		it.idx[d]++
		if it.idx[d] < it.shape[d] {
			return true
		}
		it.idx[d] = 0
	}
	it.done = true
	return false
}

// offsets walks the storage offsets of a strided view in row-major order
// starting from an arbitrary flat position — the random-access complement of
// iterator that lets the exec engine hand disjoint position spans of a
// non-contiguous view to different workers.
type offsets struct {
	shape, strides []int
	idx            []int
	off            int
}

// newOffsets positions a walker at row-major flat position pos of a view
// with the given shape, strides, and base storage offset.
func newOffsets(shape, strides []int, base, pos int) *offsets {
	o := &offsets{shape: shape, strides: strides, idx: make([]int, len(shape)), off: base}
	for d := len(shape) - 1; d >= 0; d-- {
		if shape[d] > 0 {
			o.idx[d] = pos % shape[d]
			pos /= shape[d]
			o.off += o.idx[d] * strides[d]
		}
	}
	return o
}

// advance moves the walker to the next row-major position in O(1) amortized.
func (o *offsets) advance() {
	for d := len(o.shape) - 1; d >= 0; d-- {
		o.idx[d]++
		o.off += o.strides[d]
		if o.idx[d] < o.shape[d] {
			return
		}
		o.idx[d] = 0
		o.off -= o.shape[d] * o.strides[d]
	}
}

// foldRange calls body with the storage offset of each element at row-major
// positions [lo, hi). It handles arbitrary strides (sliced, transposed, and
// negative-step views), so the exec-backed ufuncs and reductions can chunk
// any view, not just flat buffers.
func (a *Array[T]) foldRange(lo, hi int, body func(off int)) {
	if hi <= lo {
		return
	}
	if a.IsContiguous() {
		for off := a.offset + lo; off < a.offset+hi; off++ {
			body(off)
		}
		return
	}
	w := newOffsets(a.shape, a.strides, a.offset, lo)
	for i := lo; i < hi; i++ {
		body(w.off)
		w.advance()
	}
}

func shapeEq(a, b []int) bool {
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

// Range selects start:stop:step along one dimension, with NumPy semantics
// for the half-open interval. Step must be non-zero; negative steps reverse.
type Range struct {
	Start, Stop, Step int
}

// All returns the Range selecting a full dimension of extent n with step 1.
func All(n int) Range { return Range{0, n, 1} }

// Slice returns a view selecting r along dimension dim and all of every
// other dimension.
func (a *Array[T]) Slice(dim int, r Range) *Array[T] {
	rs := make([]Range, len(a.shape))
	for d := range rs {
		if d == dim {
			rs[d] = r
		} else {
			rs[d] = All(a.shape[d])
		}
	}
	return a.SliceND(rs)
}

// SliceND returns a view selecting rs[d] along each dimension d.
func (a *Array[T]) SliceND(rs []Range) *Array[T] {
	if len(rs) != len(a.shape) {
		panic(fmt.Sprintf("dense: SliceND needs %d ranges, got %d", len(a.shape), len(rs)))
	}
	out := &Array[T]{
		data:    a.data,
		shape:   make([]int, len(a.shape)),
		strides: make([]int, len(a.shape)),
		offset:  a.offset,
	}
	for d, r := range rs {
		if r.Step == 0 {
			panic("dense: slice step must be non-zero")
		}
		n := a.shape[d]
		start, stop := r.Start, r.Stop
		if start < 0 {
			start += n
		}
		if stop < 0 {
			stop += n
		}
		if r.Step > 0 {
			start = clamp(start, 0, n)
			stop = clamp(stop, 0, n)
			if stop < start {
				stop = start
			}
			out.shape[d] = (stop - start + r.Step - 1) / r.Step
		} else {
			start = clamp(start, 0, n-1)
			stop = clamp(stop, -1, n-1)
			if stop > start {
				stop = start
			}
			out.shape[d] = (start - stop - r.Step - 1) / (-r.Step)
		}
		out.offset += start * a.strides[d]
		out.strides[d] = a.strides[d] * r.Step
	}
	return out
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Linspace returns n evenly spaced float values from lo to hi inclusive
// (matching odin.linspace in the paper's §III.G example).
func Linspace[T Float](lo, hi T, n int) *Array[T] {
	if n < 0 {
		panic("dense: Linspace needs n >= 0")
	}
	out := make([]T, n)
	if n == 1 {
		out[0] = lo
	} else if n >= 2 {
		d := (hi - lo) / T(n-1)
		for i := range out {
			out[i] = lo + T(i)*d
		}
		out[n-1] = hi
	}
	return FromSlice(out, n)
}

// Arange returns the integers [0,n) as a 1-d array of the requested type.
func Arange[T Elem](n int) *Array[T] {
	out := make([]T, n)
	for i := range out {
		out[i] = fromInt[T](i)
	}
	return FromSlice(out, n)
}

// fromInt converts an int to any Elem type.
func fromInt[T Elem](i int) T {
	var v T
	switch p := any(&v).(type) {
	case *float32:
		*p = float32(i)
	case *float64:
		*p = float64(i)
	case *int32:
		*p = int32(i)
	case *int64:
		*p = int64(i)
	case *complex64:
		*p = complex(float32(i), 0)
	case *complex128:
		*p = complex(float64(i), 0)
	default:
		panic("dense: unsupported element type")
	}
	return v
}
