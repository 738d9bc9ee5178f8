// Package slicing implements ODIN's distributed array slicing (§III.G):
// basic start:stop:step selections along any axis, and the optimized
// shifted-difference path (dy = y[1:] - y[:-1]) that needs only
// boundary-element communication between neighboring ranks — the claim
// experiment E4 measures against the general gather-based fallback.
package slicing

import (
	"fmt"

	"odinhpc/internal/comm"
	"odinhpc/internal/core"
	"odinhpc/internal/dense"
	"odinhpc/internal/distmap"
	"odinhpc/internal/trace"
)

// HaloTag is the reserved point-to-point tag of ShiftDiff's boundary
// exchange. Filtering a trace capture's send events by this tag isolates
// halo traffic from everything else on the fabric — how experiment E13
// verifies "only boundary communication" from a recorded timeline.
const HaloTag = (1 << 30) + 7

// sliceSpan emits one span covering a whole slicing operation on this rank,
// labelling which path ran ("slice", "shift", "halo") so a timeline shows
// general gather-based slices apart from the optimized halo exchange. s is
// non-nil by contract.
func sliceSpan(s *trace.Session, rank int, label string, a int64, t0 int64) {
	kind := trace.KindSlice
	if label == "halo" {
		kind = trace.KindHalo
	}
	s.Emit(trace.Event{Kind: kind, Rank: int32(rank), Worker: -1,
		Peer: -1, Tag: -1, Start: t0, Dur: s.Now() - t0, A: a, Label: label})
}

// sliceLen returns the normalized start/stop and the number of indices
// selected by r from extent n, with NumPy semantics for negative bounds and
// negative steps. For step < 0 the selected indices are start, start+step,
// ... while they stay strictly above stop.
func sliceLen(r dense.Range, n int) (start, stop, count int) {
	if r.Step == 0 {
		panic("slicing: slice step must be non-zero")
	}
	if n == 0 {
		return 0, 0, 0
	}
	start, stop = r.Start, r.Stop
	if start < 0 {
		start += n
	}
	if stop < 0 {
		stop += n
	}
	if r.Step > 0 {
		start = clampInt(start, 0, n)
		stop = clampInt(stop, 0, n)
		if stop < start {
			stop = start
		}
		return start, stop, (stop - start + r.Step - 1) / r.Step
	}
	start = clampInt(start, 0, n-1)
	stop = clampInt(stop, -1, n-1)
	if stop > start {
		stop = start
	}
	return start, stop, (start - stop - r.Step - 1) / (-r.Step)
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Slice returns x[r] along the distributed axis as a new block-distributed
// array. This is the general path: every selected slab is fetched from its
// owner with an all-to-all exchange. Collective.
func Slice[T dense.Elem](x *core.DistArray[T], r dense.Range) *core.DistArray[T] {
	ctx := x.Context()
	ctx.Control(core.OpSlice, int64(r.Start), int64(r.Stop), int64(r.Step))
	ts := trace.Active()
	var t0 int64
	if ts != nil {
		t0 = ts.Now()
	}
	n := x.Shape()[x.Axis()]
	start, _, count := sliceLen(r, n)

	outShape := x.Shape()
	outShape[x.Axis()] = count
	defer ctx.SetControlMessages(ctx.SilenceControl()) // inner ops are part of this one op
	out := core.Zeros[T](ctx, outShape, core.Options{Axis: x.Axis()})
	outMap := out.Map()
	me := ctx.Rank()

	// Globals this rank needs: source index of each of its result rows.
	slab := slabSize(x)
	srcOf := func(resultG int) int { return start + r.Step*resultG }

	// Group requests by source owner.
	reqGlobals := make([][]int, ctx.Size())
	for l := 0; l < outMap.LocalCount(me); l++ {
		g := outMap.LocalToGlobal(me, l)
		src := srcOf(g)
		owner := x.Map().Owner(src)
		reqGlobals[owner] = append(reqGlobals[owner], src)
	}
	incomingReq := comm.Alltoall(ctx.Comm(), reqGlobals)
	// Serve: pack requested slabs in request order.
	replies := make([][]T, ctx.Size())
	for rk, globals := range incomingReq {
		if len(globals) == 0 {
			continue
		}
		buf := make([]T, 0, len(globals)*slab)
		for _, g := range globals {
			owner, l := x.Map().GlobalToLocal(g)
			if owner != me {
				panic(fmt.Sprintf("slicing: rank %d asked rank %d for global %d owned by %d", rk, me, g, owner))
			}
			buf = append(buf, slabOf(x.Local(), x.Axis(), l, slab)...)
		}
		replies[rk] = buf
	}
	incoming := comm.Alltoall(ctx.Comm(), replies)
	// Unpack in the same per-owner order the requests were issued.
	cursor := make([]int, ctx.Size())
	for l := 0; l < outMap.LocalCount(me); l++ {
		g := outMap.LocalToGlobal(me, l)
		owner := x.Map().Owner(srcOf(g))
		buf := incoming[owner]
		pos := cursor[owner]
		setSlab(out.Local(), out.Axis(), l, buf[pos*slab:(pos+1)*slab])
		cursor[owner]++
	}
	if ts != nil {
		sliceSpan(ts, me, "slice", int64(count), t0)
	}
	return out
}

// Shift returns an array of the same shape and distribution as x whose
// entries are displaced k positions along the distributed axis:
// out[g] = x[g+k] where g+k is in range, and fill elsewhere. Same-shape
// shifts compose with ufuncs and fusion into stencil expressions
// (u[i-1] - 2u[i] + u[i+1] == Shift(u,-1) - 2u + Shift(u,+1)).
//
// Communication follows the request pattern: for a contiguous block layout
// each rank only asks its neighbors for |k| boundary slabs, so the traffic
// is O(|k| * slab * P) — the halo property — without a special code path.
// Collective.
func Shift[T dense.Elem](x *core.DistArray[T], k int, fill T) *core.DistArray[T] {
	ctx := x.Context()
	ctx.Control(core.OpSlice, int64(k))
	defer ctx.SetControlMessages(ctx.SilenceControl())
	ts := trace.Active()
	var t0 int64
	if ts != nil {
		t0 = ts.Now()
	}

	n := x.Shape()[x.Axis()]
	out := core.Zeros[T](ctx, x.Shape(), core.Options{Axis: x.Axis(), Map: x.Map()})
	if fill != *new(T) {
		out.Local().Fill(fill)
	}
	me := ctx.Rank()
	slab := slabSize(x)
	m := x.Map()

	// Request source slabs grouped by owner; locally satisfiable ones are
	// copied immediately.
	reqGlobals := make([][]int, ctx.Size())
	type pending struct{ local, ord int }
	pend := make([][]pending, ctx.Size())
	for l := 0; l < m.LocalCount(me); l++ {
		g := m.LocalToGlobal(me, l)
		src := g + k
		if src < 0 || src >= n {
			continue // keep the fill value
		}
		owner, srcLocal := m.GlobalToLocal(src)
		if owner == me {
			setSlab(out.Local(), out.Axis(), l, slabOf(x.Local(), x.Axis(), srcLocal, slab))
			continue
		}
		pend[owner] = append(pend[owner], pending{local: l, ord: len(reqGlobals[owner])})
		reqGlobals[owner] = append(reqGlobals[owner], src)
	}
	incomingReq := comm.Alltoall(ctx.Comm(), reqGlobals)
	replies := make([][]T, ctx.Size())
	for rk, globals := range incomingReq {
		if len(globals) == 0 {
			continue
		}
		buf := make([]T, 0, len(globals)*slab)
		for _, g := range globals {
			owner, l := m.GlobalToLocal(g)
			if owner != me {
				panic(fmt.Sprintf("slicing: Shift request for global %d misrouted to rank %d", g, me))
			}
			buf = append(buf, slabOf(x.Local(), x.Axis(), l, slab)...)
		}
		replies[rk] = buf
	}
	incoming := comm.Alltoall(ctx.Comm(), replies)
	for owner, ps := range pend {
		buf := incoming[owner]
		for _, p := range ps {
			setSlab(out.Local(), out.Axis(), p.local, buf[p.ord*slab:(p.ord+1)*slab])
		}
	}
	if ts != nil {
		sliceSpan(ts, me, "shift", int64(k), t0)
	}
	return out
}

// Diff computes x[1:] - x[:-1] for a 1-d contiguous-block distributed array
// using only nearest-neighbor halo exchange: each rank ships one element to
// its predecessor, independent of N — "some small amount of inter-node
// communication, since it is the subtraction of shifted array slices"
// (§III.G). The result keeps each difference on the rank that owns its left
// operand. Collective.
func Diff[T dense.Elem](x *core.DistArray[T]) *core.DistArray[T] {
	return ShiftDiff(x, 1)
}

// ShiftDiff computes x[k:] - x[:-k] with halo width k (0 < k <= local rows
// on every non-empty rank for the optimized path; larger shifts fall back
// to the general Slice path).
func ShiftDiff[T dense.Elem](x *core.DistArray[T], k int) *core.DistArray[T] {
	ctx := x.Context()
	if x.NDim() != 1 {
		panic("slicing: ShiftDiff requires a 1-d array")
	}
	if k <= 0 {
		panic(fmt.Sprintf("slicing: ShiftDiff needs k > 0, got %d", k))
	}
	n := x.GlobalSize()
	if k >= n {
		panic(fmt.Sprintf("slicing: shift %d >= length %d", k, n))
	}
	if !x.Map().IsContiguous() || x.Map().Kind() != distmap.Block {
		// The halo pattern relies on rank-ordered contiguous blocks.
		hi := Slice(x, dense.Range{Start: k, Stop: n, Step: 1})
		lo := Slice(x, dense.Range{Start: 0, Stop: n - k, Step: 1})
		return hi.WithLocal(dense.Binary(hi.Local(), lo.Local(), func(a, b T) T { return a - b }))
	}
	// Fall back when a rank owns fewer rows than the halo width. The
	// decision must be identical on every rank, so it derives from the map
	// (global knowledge), not the local count.
	me := ctx.Rank()
	minRows := n
	for r := 0; r < ctx.Size(); r++ {
		if c := x.Map().LocalCount(r); c > 0 && c < minRows {
			minRows = c
		}
	}
	if k > minRows {
		hi := Slice(x, dense.Range{Start: k, Stop: n, Step: 1})
		lo := Slice(x, dense.Range{Start: 0, Stop: n - k, Step: 1})
		return hi.WithLocal(dense.Binary(hi.Local(), lo.Local(), func(a, b T) T { return a - b }))
	}

	ctx.Control(core.OpSlice, int64(k))
	ts := trace.Active()
	var t0 int64
	if ts != nil {
		t0 = ts.Now()
	}
	const haloTag = HaloTag
	local := x.Local()
	cnt := local.Dim(0)
	lo, hiG := 0, 0
	if cnt > 0 {
		lo, hiG = x.Map().BlockRange(me)
	}

	// Ship my first k elements to the previous non-empty rank; receive the
	// next non-empty rank's first k elements.
	prev, next := -1, -1
	for r := me - 1; r >= 0; r-- {
		if x.Map().LocalCount(r) > 0 {
			prev = r
			break
		}
	}
	for r := me + 1; r < ctx.Size(); r++ {
		if x.Map().LocalCount(r) > 0 {
			next = r
			break
		}
	}
	if cnt > 0 && prev >= 0 {
		head := make([]T, k)
		for i := 0; i < k; i++ {
			head[i] = local.At(i)
		}
		comm.Send(ctx.Comm(), prev, haloTag, head)
	}
	var halo []T
	if cnt > 0 && next >= 0 {
		halo = comm.Recv[T](ctx.Comm(), next, haloTag)
	}
	if ts != nil {
		// The halo span covers only the boundary exchange — its Send events
		// (tag haloTag) are what experiment E13 reads message sizes from.
		sliceSpan(ts, me, "halo", int64(k), t0)
	}

	// Result rows: globals g in [lo, hi) with g < n-k.
	resCnt := 0
	if cnt > 0 {
		resCnt = hiG - lo
		if hiG > n-k {
			resCnt = n - k - lo
			if resCnt < 0 {
				resCnt = 0
			}
		}
	}
	outLocal := dense.Zeros[T](resCnt)
	for i := 0; i < resCnt; i++ {
		var right T
		if i+k < cnt {
			right = local.At(i + k)
		} else {
			right = halo[i+k-cnt]
		}
		outLocal.Set(right-local.At(i), i)
	}
	// Ownership of result row g follows ownership of x row g.
	owners := make([]int, n-k)
	for g := range owners {
		owners[g] = x.Map().Owner(g)
	}
	outMap := distmap.NewArbitrary(owners, ctx.Size())
	defer ctx.SetControlMessages(ctx.SilenceControl())
	out := core.Zeros[T](ctx, []int{n - k}, core.Options{Map: outMap})
	out.Local().CopyFrom(outLocal)
	return out
}

// slabSize returns the element count of one cross-section perpendicular to
// the distributed axis.
func slabSize[T dense.Elem](x *core.DistArray[T]) int {
	n := 1
	for d, s := range x.Shape() {
		if d != x.Axis() {
			n *= s
		}
	}
	return n
}

func slabOf[T dense.Elem](arr *dense.Array[T], axis, l, slab int) []T {
	if axis == 0 && arr.IsContiguous() {
		return arr.Raw()[l*slab : (l+1)*slab]
	}
	return arr.Slice(axis, dense.Range{Start: l, Stop: l + 1, Step: 1}).Flatten()
}

func setSlab[T dense.Elem](arr *dense.Array[T], axis, l int, vals []T) {
	if axis == 0 && arr.IsContiguous() {
		copy(arr.Raw()[l*len(vals):(l+1)*len(vals)], vals)
		return
	}
	view := arr.Slice(axis, dense.Range{Start: l, Stop: l + 1, Step: 1})
	i := 0
	view.EachIndexed(func(idx []int, _ T) {
		view.Set(vals[i], idx...)
		i++
	})
}
