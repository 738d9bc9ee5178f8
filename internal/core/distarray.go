package core

import (
	"fmt"
	"math/rand"

	"odinhpc/internal/comm"
	"odinhpc/internal/dense"
	"odinhpc/internal/distmap"
)

// DistArray is ODIN's distributed N-dimensional array: the global shape is
// distributed along one axis according to a distmap.Map, and each rank holds
// the corresponding dense local segment. Element types are generic — the
// "arbitrarily typed scalar data" of second-generation Tpetra (§II.C).
type DistArray[T dense.Elem] struct {
	ctx   *Context
	shape []int        // global shape
	axis  int          // distributed axis
	m     *distmap.Map // distribution of shape[axis]
	local *dense.Array[T]
}

// Options controls how a new distributed array is laid out, covering the
// §III.A knobs: distribution kind, block size, distributed axis, and an
// explicit (possibly non-uniform or arbitrary) map.
type Options struct {
	Kind      distmap.Kind // Block (default), Cyclic, BlockCyclic
	BlockSize int          // for BlockCyclic (default 1)
	Axis      int          // distributed axis (default 0)
	Map       *distmap.Map // overrides Kind/BlockSize when set
}

func (o Options) buildMap(ctx *Context, extent int) *distmap.Map {
	if o.Map != nil {
		if o.Map.NumGlobal() != extent {
			panic(fmt.Sprintf("core: explicit map has %d globals, axis extent is %d", o.Map.NumGlobal(), extent))
		}
		if o.Map.NumRanks() != ctx.Size() {
			panic(fmt.Sprintf("core: explicit map has %d ranks, context has %d", o.Map.NumRanks(), ctx.Size()))
		}
		return o.Map
	}
	switch o.Kind {
	case distmap.Cyclic:
		return distmap.NewCyclic(extent, ctx.Size())
	case distmap.BlockCyclic:
		bs := o.BlockSize
		if bs <= 0 {
			bs = 1
		}
		return distmap.NewBlockCyclic(extent, ctx.Size(), bs)
	default:
		return distmap.NewBlock(extent, ctx.Size())
	}
}

func optOf(opts []Options) Options {
	if len(opts) > 0 {
		return opts[0]
	}
	return Options{}
}

// newDist allocates the array metadata and its zeroed local segment.
func newDist[T dense.Elem](ctx *Context, shape []int, opt Options) *DistArray[T] {
	if len(shape) == 0 {
		panic("core: arrays need at least one dimension")
	}
	if opt.Axis < 0 || opt.Axis >= len(shape) {
		panic(fmt.Sprintf("core: distributed axis %d out of range for shape %v", opt.Axis, shape))
	}
	m := opt.buildMap(ctx, shape[opt.Axis])
	localShape := make([]int, len(shape))
	copy(localShape, shape)
	localShape[opt.Axis] = m.LocalCount(ctx.Rank())
	gshape := make([]int, len(shape))
	copy(gshape, shape)
	return &DistArray[T]{
		ctx:   ctx,
		shape: gshape,
		axis:  opt.Axis,
		m:     m,
		local: dense.Zeros[T](localShape...),
	}
}

// Zeros returns a zero-filled distributed array of the given global shape.
// Collective.
func Zeros[T dense.Elem](ctx *Context, shape []int, opts ...Options) *DistArray[T] {
	ctx.Control(OpCreate, int64(len(shape)))
	return newDist[T](ctx, shape, optOf(opts))
}

// Full returns a distributed array filled with v. Collective.
func Full[T dense.Elem](ctx *Context, v T, shape []int, opts ...Options) *DistArray[T] {
	a := Zeros[T](ctx, shape, opts...)
	a.local.Fill(v)
	return a
}

// FromFunc fills a new array from a function of the global multi-index —
// the P-independent way to create content. Collective.
func FromFunc[T dense.Elem](ctx *Context, shape []int, f func(gidx []int) T, opts ...Options) *DistArray[T] {
	a := Zeros[T](ctx, shape, opts...)
	me := ctx.Rank()
	gidx := make([]int, len(shape))
	a.local.EachIndexed(func(lidx []int, _ T) {
		copy(gidx, lidx)
		gidx[a.axis] = a.m.LocalToGlobal(me, lidx[a.axis])
		a.local.Set(f(gidx), lidx...)
	})
	return a
}

// Linspace returns n evenly spaced values from lo to hi inclusive as a 1-d
// distributed array — odin.linspace of §III.G. Collective.
func Linspace[T dense.Float](ctx *Context, lo, hi T, n int, opts ...Options) *DistArray[T] {
	if n < 1 {
		panic("core: Linspace needs n >= 1")
	}
	d := T(0)
	if n > 1 {
		d = (hi - lo) / T(n-1)
	}
	return FromFunc(ctx, []int{n}, func(g []int) T {
		if g[0] == n-1 {
			return hi
		}
		return lo + T(g[0])*d
	}, opts...)
}

// Arange returns [0, n) as a 1-d distributed array. Collective.
func Arange[T dense.Elem](ctx *Context, n int, opts ...Options) *DistArray[T] {
	ref := dense.Arange[T](n)
	return FromFunc(ctx, []int{n}, func(g []int) T { return ref.At(g[0]) }, opts...)
}

// Random returns a uniform [0,1) random array; each rank seeds its own
// stream from seed and its rank, matching §III.B's odin.rand ("a specified
// random seed, different for each node"). Collective.
func Random(ctx *Context, shape []int, seed int64, opts ...Options) *DistArray[float64] {
	a := Zeros[float64](ctx, shape, opts...)
	rng := rand.New(rand.NewSource(seed + int64(ctx.Rank())*2_654_435_761))
	raw := a.local.Raw()
	for i := range raw {
		raw[i] = rng.Float64()
	}
	return a
}

// Shape returns a copy of the global shape.
func (a *DistArray[T]) Shape() []int {
	out := make([]int, len(a.shape))
	copy(out, a.shape)
	return out
}

// GlobalSize returns the total global element count.
func (a *DistArray[T]) GlobalSize() int {
	n := 1
	for _, s := range a.shape {
		n *= s
	}
	return n
}

// NDim returns the number of dimensions.
func (a *DistArray[T]) NDim() int { return len(a.shape) }

// Axis returns the distributed axis.
func (a *DistArray[T]) Axis() int { return a.axis }

// Map returns the distribution map of the distributed axis.
func (a *DistArray[T]) Map() *distmap.Map { return a.m }

// Context returns the owning ODIN context.
func (a *DistArray[T]) Context() *Context { return a.ctx }

// Local returns this rank's local segment (shared storage, not a copy) —
// the local mode of interaction.
func (a *DistArray[T]) Local() *dense.Array[T] { return a.local }

// ConformableWith reports whether two arrays share shape, axis, and
// distribution — the precondition for communication-free binary ufuncs
// (§III.D).
func (a *DistArray[T]) ConformableWith(b *DistArray[T]) bool {
	if len(a.shape) != len(b.shape) || a.axis != b.axis {
		return false
	}
	for d := range a.shape {
		if a.shape[d] != b.shape[d] {
			return false
		}
	}
	return a.m.SameAs(b.m)
}

// WithLocal returns a new DistArray sharing a's metadata with the given
// local segment, which must match the expected local shape. Used by the
// ufunc layer to wrap results.
func (a *DistArray[T]) WithLocal(local *dense.Array[T]) *DistArray[T] {
	want := a.local.Shape()
	got := local.Shape()
	if len(want) != len(got) {
		panic(fmt.Sprintf("core: WithLocal shape %v, want %v", got, want))
	}
	for d := range want {
		if want[d] != got[d] {
			panic(fmt.Sprintf("core: WithLocal shape %v, want %v", got, want))
		}
	}
	return &DistArray[T]{ctx: a.ctx, shape: a.Shape(), axis: a.axis, m: a.m, local: local}
}

// WithLocalLike wraps a local segment for a different element type U with
// a's distribution metadata.
func WithLocalLike[U, T dense.Elem](a *DistArray[T], local *dense.Array[U]) *DistArray[U] {
	return &DistArray[U]{ctx: a.ctx, shape: a.Shape(), axis: a.axis, m: a.m, local: local}
}

// Clone returns an independent deep copy. Collective only in bookkeeping.
func (a *DistArray[T]) Clone() *DistArray[T] {
	return a.WithLocal(a.local.Clone())
}

// At returns the element at the given global multi-index on every rank
// (the owner broadcasts it). Collective.
func (a *DistArray[T]) At(gidx ...int) T {
	a.ctx.Control(OpGather, 1)
	if len(gidx) != len(a.shape) {
		panic(fmt.Sprintf("core: At index %v for shape %v", gidx, a.shape))
	}
	owner, l := a.m.GlobalToLocal(gidx[a.axis])
	var v T
	if owner == a.ctx.Rank() {
		lidx := make([]int, len(gidx))
		copy(lidx, gidx)
		lidx[a.axis] = l
		v = a.local.At(lidx...)
	}
	return comm.BcastScalar(a.ctx.Comm(), owner, v)
}

// Gather materializes the full global array on every rank. Collective;
// intended for small arrays, tests, and IO.
func (a *DistArray[T]) Gather() *dense.Array[T] {
	a.ctx.Control(OpGather, int64(a.GlobalSize()))
	out := dense.Zeros[T](a.shape...)
	flat := comm.Allgather(a.ctx.Comm(), a.local.Flatten())
	// Reconstruct rank by rank: walk each rank's local shape in row-major
	// order and place slabs by global index.
	for r := 0; r < a.ctx.Size(); r++ {
		cnt := a.m.LocalCount(r)
		if cnt == 0 {
			continue
		}
		lshape := make([]int, len(a.shape))
		copy(lshape, a.shape)
		lshape[a.axis] = cnt
		seg := dense.FromSlice(flat[r], lshape...)
		gidx := make([]int, len(a.shape))
		seg.EachIndexed(func(lidx []int, v T) {
			copy(gidx, lidx)
			gidx[a.axis] = a.m.LocalToGlobal(r, lidx[a.axis])
			out.Set(v, gidx...)
		})
	}
	return out
}

// String describes the array without materializing it.
func (a *DistArray[T]) String() string {
	return fmt.Sprintf("DistArray%v{axis=%d, %v}", a.shape, a.axis, a.m)
}

// slabSize returns the number of elements in one cross-section
// perpendicular to the distributed axis.
func (a *DistArray[T]) slabSize() int {
	n := 1
	for d, s := range a.shape {
		if d != a.axis {
			n *= s
		}
	}
	return n
}

// Redistribute returns a copy of x distributed according to newMap (same
// global shape and axis). Communication volume is exactly the slabs whose
// ownership changes — the redistribution primitive behind ODIN's
// non-conformable binary ufuncs (§III.D, experiment E3). Collective.
func Redistribute[T dense.Elem](x *DistArray[T], newMap *distmap.Map) *DistArray[T] {
	ctx := x.ctx
	ctx.Control(OpRedistribute, int64(newMap.NumGlobal()))
	if newMap.NumGlobal() != x.shape[x.axis] {
		panic(fmt.Sprintf("core: Redistribute map size %d != axis extent %d", newMap.NumGlobal(), x.shape[x.axis]))
	}
	out := newDist[T](ctx, x.shape, Options{Axis: x.axis, Map: newMap})
	me := ctx.Rank()
	slab := x.slabSize()

	// The local segments must be walked slab-wise; flatten both with the
	// distributed axis outermost. For axis 0 the row-major layout already
	// has that property; otherwise transpose-copy through FromFunc-style
	// indexing. Axis 0 is the common case and is handled with bulk copies.
	getSlab := func(arr *dense.Array[T], l int, axis int) []T {
		if axis == 0 {
			if arr.IsContiguous() {
				return arr.Raw()[l*slab : (l+1)*slab]
			}
		}
		return arr.Slice(axis, dense.Range{Start: l, Stop: l + 1, Step: 1}).Flatten()
	}
	setSlab := func(arr *dense.Array[T], l int, axis int, vals []T) {
		if axis == 0 && arr.IsContiguous() {
			copy(arr.Raw()[l*slab:(l+1)*slab], vals)
			return
		}
		view := arr.Slice(axis, dense.Range{Start: l, Stop: l + 1, Step: 1})
		i := 0
		view.EachIndexed(func(idx []int, _ T) {
			view.Set(vals[i], idx...)
			i++
		})
	}

	// Pack outgoing slabs per destination rank, in increasing global order.
	outgoing := make([][]T, ctx.Size())
	for l := 0; l < x.m.LocalCount(me); l++ {
		g := x.m.LocalToGlobal(me, l)
		dst, dl := newMap.GlobalToLocal(g)
		vals := getSlab(x.local, l, x.axis)
		if dst == me {
			setSlab(out.local, dl, x.axis, vals)
			continue
		}
		outgoing[dst] = append(outgoing[dst], vals...)
	}
	incoming := comm.Alltoall(ctx.Comm(), outgoing)
	// Unpack: slabs from rank r arrive in increasing source-local (hence
	// increasing global) order; recompute their destinations the same way.
	for r, vals := range incoming {
		if r == me || len(vals) == 0 {
			continue
		}
		pos := 0
		for l := 0; l < x.m.LocalCount(r); l++ {
			g := x.m.LocalToGlobal(r, l)
			dst, dl := newMap.GlobalToLocal(g)
			if dst != me {
				continue
			}
			setSlab(out.local, dl, x.axis, vals[pos:pos+slab])
			pos += slab
		}
		if pos != len(vals) {
			panic(fmt.Sprintf("core: Redistribute unpacked %d of %d values from rank %d", pos, len(vals), r))
		}
	}
	return out
}

// RedistributeCost returns the total number of elements that would cross
// rank boundaries redistributing from x's map to newMap — the metric the
// ufunc strategy chooser minimizes. Collective.
func RedistributeCost[T dense.Elem](x *DistArray[T], newMap *distmap.Map) int {
	me := x.ctx.Rank()
	moved := 0
	for l := 0; l < x.m.LocalCount(me); l++ {
		g := x.m.LocalToGlobal(me, l)
		if newMap.Owner(g) != me {
			moved++
		}
	}
	total := comm.AllreduceScalar(x.ctx.Comm(), moved, comm.OpSum)
	return total * x.slabSize()
}
