package tpetra

import (
	"fmt"

	"odinhpc/internal/comm"
	"odinhpc/internal/distmap"
	"odinhpc/internal/trace"
)

// GatherLengthError is the panic value raised when Gather is handed a local
// segment whose length disagrees with the plan's source map on this rank. It
// is typed and rank-stamped so a chaos session reports which rank passed the
// bad vector instead of surfacing an anonymous index-out-of-range from the
// pack loop (or, worse, silently gathering stale values when the slice is
// long enough to index but belongs to a different map).
type GatherLengthError struct {
	Rank int // rank that called Gather
	Got  int // len(local) as passed
	Want int // the source map's local count on Rank
}

func (e *GatherLengthError) Error() string {
	return fmt.Sprintf("tpetra: rank %d called Gather with a local segment of %d elements; source map owns %d", e.Rank, e.Got, e.Want)
}

// GatherPlan is a reusable communication plan that fetches an arbitrary set
// of global elements of a distributed vector onto the requesting rank. It is
// built once (collectively) and applied many times — the pattern behind both
// Tpetra's Import objects and ODIN's ghost/halo exchanges. Building costs one
// Alltoall of index lists; each Gather costs one indexed Alltoall of values
// whose volume is exactly the number of remotely owned requested elements.
//
// Plan application is concurrency-safe: after construction a plan is
// immutable and holds no scratch — a Gather packs from the caller's segment
// straight into the messages and unpacks straight into the caller's output —
// so one plan may be applied simultaneously from many goroutines, the
// cross-request plan cache a server needs. The one rule left is the
// collective one: concurrent applications must each run on their own
// congruent communicator (a warm rank group); two Gathers interleaved on the
// *same* communicator would cross-match their value exchanges.
type GatherPlan struct {
	src     *distmap.Map
	sendIdx [][]int // per destination rank: src-local indices this rank must send
	recvPos [][]int // per source rank: positions in the output buffer to fill
	selfSrc []int   // src-local indices satisfied locally
	selfDst []int   // output positions for locally satisfied requests
	outLen  int
}

// NewGatherPlan builds a plan delivering the elements with global indices
// needed (in the given order, duplicates allowed) into an output buffer on
// this rank. Collective: every rank must call it, each with its own needed
// list (possibly empty).
func NewGatherPlan(c *comm.Comm, src *distmap.Map, needed []int) *GatherPlan {
	if src.NumRanks() != c.Size() {
		panic(fmt.Sprintf("tpetra: map has %d ranks, communicator has %d", src.NumRanks(), c.Size()))
	}
	ts := trace.Active()
	var t0 int64
	if ts != nil {
		t0 = ts.Now()
	}
	p := &GatherPlan{
		src:     src,
		sendIdx: make([][]int, c.Size()),
		recvPos: make([][]int, c.Size()),
		outLen:  len(needed),
	}
	me := c.Rank()
	// Group requests by owner.
	reqGlobals := make([][]int, c.Size())
	for pos, g := range needed {
		owner, local := src.GlobalToLocal(g)
		if owner == me {
			p.selfSrc = append(p.selfSrc, local)
			p.selfDst = append(p.selfDst, pos)
			continue
		}
		reqGlobals[owner] = append(reqGlobals[owner], g)
		p.recvPos[owner] = append(p.recvPos[owner], pos)
	}
	// Exchange request lists; incoming lists tell us what to send.
	incoming := comm.Alltoall(c, reqGlobals)
	for r, globals := range incoming {
		if r == me || len(globals) == 0 {
			continue
		}
		idx := make([]int, len(globals))
		for k, g := range globals {
			owner, local := src.GlobalToLocal(g)
			if owner != me {
				panic(fmt.Sprintf("tpetra: rank %d asked rank %d for global %d owned by %d", r, me, g, owner))
			}
			idx[k] = local
		}
		p.sendIdx[r] = idx
	}
	if ts != nil {
		ts.Emit(trace.Event{Kind: trace.KindPlan, Rank: int32(c.Rank()), Worker: -1,
			Peer: -1, Tag: -1, Start: t0, Dur: ts.Now() - t0, A: int64(p.RemoteCount())})
	}
	return p
}

// OutLen returns the length of the output buffer the plan fills.
// Test seam: the gather length the halo tests check.
func (p *GatherPlan) OutLen() int { return p.outLen }

// RemoteCount returns how many requested elements live on other ranks — the
// per-Gather communication volume in elements.
func (p *GatherPlan) RemoteCount() int {
	n := 0
	for _, pos := range p.recvPos {
		n += len(pos)
	}
	return n
}

// Gather executes the plan: local is this rank's segment of the source
// vector; out (length OutLen) receives the requested elements in request
// order. Collective.
func (p *GatherPlan) Gather(c *comm.Comm, local, out []float64) {
	// Validate the whole local segment up front, before any element moves:
	// a short slice must not die mid-pack with a bare index panic, and a
	// wrong-map slice that happens to be long enough must not gather
	// plausible-but-stale values.
	if want := p.src.LocalCount(c.Rank()); len(local) != want {
		panic(&GatherLengthError{Rank: c.Rank(), Got: len(local), Want: want})
	}
	if len(out) != p.outLen {
		panic(fmt.Sprintf("tpetra: Gather output length %d, want %d", len(out), p.outLen))
	}
	ts := trace.Active()
	var t0 int64
	if ts != nil {
		t0 = ts.Now()
	}
	// Satisfy local requests without communication.
	for k, s := range p.selfSrc {
		out[p.selfDst[k]] = local[s]
	}
	comm.AlltoallIndexed(c, local, p.sendIdx, out, p.recvPos)
	if ts != nil {
		remote := p.RemoteCount()
		ts.Emit(trace.Event{Kind: trace.KindGather, Rank: int32(c.Rank()), Worker: -1,
			Peer: -1, Tag: -1, Start: t0, Dur: ts.Now() - t0,
			Bytes: int64(remote) * 8, A: int64(remote)})
	}
}

// Import moves a distributed vector from one map to another with the same
// global length. It is a GatherPlan whose request list is exactly the
// target map's local globals — Tpetra's Import in miniature, and the
// machinery behind ODIN's redistribution strategies (experiment E3).
//
// Like the plan underneath, an Import is immutable after construction and
// may be Applied concurrently, one application per congruent communicator
// (Apply takes its communicator from the source vector).
type Import struct {
	src, dst *distmap.Map
	plan     *GatherPlan
}

// NewImport builds the communication plan from src-distributed data to
// dst-distributed data. Collective.
func NewImport(c *comm.Comm, src, dst *distmap.Map) *Import {
	if src.NumGlobal() != dst.NumGlobal() {
		panic(fmt.Sprintf("tpetra: Import between different global sizes %d and %d", src.NumGlobal(), dst.NumGlobal()))
	}
	needed := dst.GlobalsOn(c.Rank())
	return &Import{src: src, dst: dst, plan: NewGatherPlan(c, src, needed)}
}

// Apply redistributes: src vector (over Src map) into dst vector (over Dst
// map). Collective.
func (im *Import) Apply(src, dst *Vector) {
	if !src.Map().SameAs(im.src) {
		panic("tpetra: Import.Apply source vector has wrong map")
	}
	if !dst.Map().SameAs(im.dst) {
		panic("tpetra: Import.Apply destination vector has wrong map")
	}
	c := src.Comm()
	if ts := trace.Active(); ts != nil {
		t0 := ts.Now()
		im.plan.Gather(c, src.Data, dst.Data)
		ts.Emit(trace.Event{Kind: trace.KindImport, Rank: int32(c.Rank()), Worker: -1,
			Peer: -1, Tag: -1, Start: t0, Dur: ts.Now() - t0,
			A: int64(im.plan.RemoteCount())})
		return
	}
	im.plan.Gather(c, src.Data, dst.Data)
}

// ImportVector is a convenience wrapper building a fresh plan and vector.
func ImportVector(src *Vector, dst *distmap.Map) *Vector {
	im := NewImport(src.Comm(), src.Map(), dst)
	out := NewVector(src.Comm(), dst)
	im.Apply(src, out)
	return out
}
