package comm

import (
	"fmt"
	"math"
	"slices"
	"strconv"

	"odinhpc/internal/trace"
)

// Number constrains the element types usable with reduction collectives: the
// ordered numbers of Elem.
type Number interface {
	int | int32 | int64 | float32 | float64
}

// Op identifies a reduction operation for Reduce/Allreduce/Scan.
type Op int

// Reduction operations.
const (
	OpSum Op = iota
	OpProd
	OpMin
	OpMax
)

// applyOp combines a and b with op. A sum or product with a NaN operand is
// the first NaN operand, quieted as the hardware quiets it (firstNaN): the
// result is fixed here, not by the order in which compiled code happens to
// put a commutative add's or multiply's operands, so every combine tree
// that passes the same operands in the same order gets the same bits.
func applyOp[T Number](op Op, a, b T) T {
	var r T
	switch op {
	case OpSum:
		r = a + b
	case OpProd:
		r = a * b
	case OpMin:
		if b < a {
			return b
		}
		return a
	case OpMax:
		if b > a {
			return b
		}
		return a
	default:
		panic("comm: unknown reduction op")
	}
	if r != r {
		return firstNaN(a, b, r)
	}
	return r
}

// firstNaN returns the first of a and b that is a NaN with its quiet bit
// (the mantissa's top bit) set, its sign and the rest of its payload kept;
// r, the NaN their sum or product made, when neither is one.
func firstNaN[T Number](a, b, r T) T {
	for _, x := range [2]T{a, b} {
		switch v := any(x).(type) {
		case float64:
			if v != v {
				return any(math.Float64frombits(math.Float64bits(v) | 1<<51)).(T)
			}
		case float32:
			if v != v {
				return any(math.Float32frombits(math.Float32bits(v) | 1<<22)).(T)
			}
		}
	}
	return r
}

// nextColl returns a fresh tag namespace for one collective call. Collectives
// are SPMD operations: every rank must call them in the same order, so the
// per-rank sequence numbers stay synchronized without communication (a rank
// that diverges waits on, or sends, tags no peer matches; see collKind). It is
// also the fault layer's crash point: a plan that crashes this rank at this
// collective index unwinds here, before any round of the collective runs.
func (c *Comm) nextColl() int {
	c.jitter(jitterColl)
	c.collSeq++
	c.crashCheck()
	return c.collSeq
}

// collKind names a collective in its tags and its trace span: ranks that
// call different collectives at the same sequence number never match each
// other's messages, so a divergence parks them (FaultDeadlock) or leaves a
// message unread (FaultUnread) instead of finishing with wrong buffers.
type collKind int

const (
	collBarrier collKind = iota + 1
	collBcast
	collReduce
	collAllreduce
	collGather
	collAllgather
	collScatter
	collAlltoall
	collAlltoallIndexed
	collScan
	collExscan
)

var collNames = [...]string{"", "barrier", "bcast", "reduce", "allreduce", "gather",
	"allgather", "scatter", "alltoall", "alltoall-indexed", "scan", "exscan"}

// rooted reports whether k's tags carry the call's root.
func (k collKind) rooted() bool {
	return k == collBcast || k == collReduce || k == collGather || k == collScatter
}

// A collective's tag is -collTagBase - x, where x packs, from the low bits,
// the round (16 bits), the root (16 bits, 0 for unrooted kinds), the kind
// (4 bits) and the sequence number's low 27 bits; a sequence number that
// wraps reuses the tags of collectives 2^27 calls back, long drained. Tags
// stay at or below -collTagBase, disjoint from user tags and the wildcards,
// and below a root of 2^15 their low 32 bits alone (trace.Event.Tag) stay
// negative.
const (
	collTagBase = 1000
	collSeqMask = 1<<27 - 1
)

// collTag builds the point-to-point tag private to round of collective seq,
// a call of kind k rooted at root.
func collTag(k collKind, root, seq, round int) int {
	return -((seq&collSeqMask)<<36 | int(k)<<32 | root<<16 | round) - collTagBase
}

// tagString renders a tag for a fault message: "any" for AnyTag, a
// collective's kind, root, sequence number and round for its tags, and the
// number for any other.
func tagString(tag int) string {
	if tag == AnyTag {
		return "any"
	}
	x := -tag - collTagBase
	k := collKind(x >> 32 & 0xf)
	if x < 0 || k == 0 || int(k) >= len(collNames) {
		return strconv.Itoa(tag)
	}
	name := collNames[k]
	if k.rooted() {
		name += fmt.Sprintf(" root %d", x>>16&0xffff)
	}
	return fmt.Sprintf("%s seq %d round %d", name, x>>36, x&0xffff)
}

// nopEnd is the shared no-op returned by collSpan when tracing is off, so
// the disabled path costs one atomic load and zero allocations.
var nopEnd = func() {}

// collSpan opens a trace span for one collective phase on this rank and
// returns its completion function, meant for the idiom
//
//	seq := c.nextColl()
//	defer c.collSpan(collBcast, seq)()
//
// Nested composite collectives (Split = Allgather + construction) produce
// nested spans, which the timeline renders as a phase breakdown.
func (c *Comm) collSpan(k collKind, seq int) func() {
	s := trace.Active()
	if s == nil {
		return nopEnd
	}
	t0 := s.Now()
	return func() {
		s.Emit(trace.Event{Kind: trace.KindColl, Rank: int32(c.rank), Worker: -1,
			Peer: -1, Tag: -1, Start: t0, Dur: s.Now() - t0, A: int64(seq), Label: collNames[k]})
	}
}

// Barrier blocks until every rank has entered it, using a dissemination
// pattern with ceil(log2 P) rounds.
func (c *Comm) Barrier() {
	seq := c.nextColl()
	defer c.collSpan(collBarrier, seq)()
	round := 0
	var token [1]byte
	for k := 1; k < c.size; k <<= 1 {
		dst := (c.rank + k) % c.size
		src := (c.rank - k + c.size) % c.size
		Send(c, dst, collTag(collBarrier, 0, seq, round), token[:])
		recvInto(c, src, collTag(collBarrier, 0, seq, round), token[:])
		round++
	}
}

// Bcast replicates root's buf on every rank, in place, down a binary heap
// tree over the ranks rotated so that root is 0: rank v receives from
// (v-1)/2 and forwards to 2v+1 and 2v+2. All ranks must pass a buffer of
// the same length, or the receiving rank fails with FaultMismatch.
func Bcast[T Elem](c *Comm, root int, buf []T) {
	seq := c.nextColl()
	defer c.collSpan(collBcast, seq)()
	// Work in a rotated rank space where root is 0.
	vr := (c.rank - root + c.size) % c.size
	if vr != 0 {
		// Receive from parent.
		parent := ((vr - 1) / 2)
		src := (parent + root) % c.size
		recvInto(c, src, collTag(collBcast, root, seq, 0), buf)
	}
	// Forward to children.
	for _, child := range []int{2*vr + 1, 2*vr + 2} {
		if child < c.size {
			dst := (child + root) % c.size
			Send(c, dst, collTag(collBcast, root, seq, 0), buf)
		}
	}
}

// BcastScalar replicates root's value on every rank and returns it.
func BcastScalar[T Elem](c *Comm, root int, v T) T {
	buf := []T{v}
	Bcast(c, root, buf)
	return buf[0]
}

// Reduce combines equal-length slices element-wise across ranks with op and
// returns the result at root; other ranks receive nil. The input is not
// modified.
func Reduce[T Number](c *Comm, root int, in []T, op Op) []T {
	seq := c.nextColl()
	defer c.collSpan(collReduce, seq)()
	acc := make([]T, len(in))
	copy(acc, in)
	vr := (c.rank - root + c.size) % c.size
	// Binomial tree: in round k, virtual ranks with bit k set send to vr-2^k.
	for k := 1; k < c.size; k <<= 1 {
		if vr&k != 0 {
			dst := ((vr - k) + root) % c.size
			Send(c, dst, collTag(collReduce, root, seq, 0), acc)
			return nil
		}
		if vr+k < c.size {
			src := ((vr + k) + root) % c.size
			_, p := take[T](c, src, collTag(collReduce, root, seq, 0), len(acc))
			for i, v := range *p {
				acc[i] = applyOp(op, acc[i], v)
			}
			c.giveBack(p)
		}
	}
	if c.rank == root {
		return acc
	}
	return nil
}

// Allreduce combines equal-length slices element-wise across ranks with op
// and returns the full result on every rank. The input is not modified.
func Allreduce[T Number](c *Comm, in []T, op Op) []T {
	out := slices.Clone(in)
	AllreduceInto(c, out, op)
	return out
}

// AllreduceScalar reduces one value per rank and returns the result everywhere.
func AllreduceScalar[T Number](c *Comm, v T, op Op) T {
	buf := [1]T{v}
	AllreduceInto(c, buf[:], op)
	return buf[0]
}

// AllreduceInto combines equal-length slices element-wise across ranks with
// op, in place: on return buf holds the full result on every rank. A steady
// sequence of calls allocates nothing.
//
// The algorithm is recursive doubling: in round k a rank exchanges its
// running value with the partner whose number differs in bit k and both
// combine the pair, so P = 2^m ranks finish in m rounds of one message each
// way — half the hops of a reduce followed by a broadcast, for P*m messages
// instead of 2(P-1). When P is not a power of two, the first 2(P-2^m) ranks
// pair up first: each even one folds its values into its odd neighbour,
// sits the doubling out, and is sent the result at the end.
//
// Every exchange combines as op(lower rank's value, higher rank's value) on
// both partners, from identical inputs in identical order, so all ranks end
// with bit-identical results for every op — including min/max over NaN and
// signed zeros, where the operand order picks the survivor. Ranks combine as
// contiguous blocks in rank order; at a power of two that is the
// association of Reduce's binomial tree.
func AllreduceInto[T Number](c *Comm, buf []T, op Op) {
	seq := c.nextColl()
	defer c.collSpan(collAllreduce, seq)()
	p2, rounds := 1, 0
	for p2*2 <= c.size {
		p2, rounds = p2*2, rounds+1
	}
	// The ranks below paired fold pairwise into virtual ranks 0..paired/2-1
	// of the doubling phase; the rest follow, in order.
	paired := 2 * (c.size - p2)
	rankOf := func(v int) int {
		if v < paired/2 {
			return 2*v + 1
		}
		return v + paired/2
	}
	v := c.rank - paired/2
	if c.rank < paired {
		if c.rank%2 == 0 {
			Send(c, c.rank+1, collTag(collAllreduce, 0, seq, 0), buf)
			recvVals(c, c.rank+1, collTag(collAllreduce, 0, seq, rounds+1), buf, op, false)
			return
		}
		recvVals(c, c.rank-1, collTag(collAllreduce, 0, seq, 0), buf, op, true)
		v = c.rank / 2
	}
	for k := 0; k < rounds; k++ {
		partner := rankOf(v ^ 1<<k)
		Send(c, partner, collTag(collAllreduce, 0, seq, 1+k), buf)
		recvVals(c, partner, collTag(collAllreduce, 0, seq, 1+k), buf, op, true)
	}
	if c.rank < paired {
		Send(c, c.rank-1, collTag(collAllreduce, 0, seq, rounds+1), buf)
	}
}

// recvVals receives rank src's values for a collective. With combine set it
// folds them into buf element-wise as op(lower rank's, higher rank's);
// otherwise they replace buf.
func recvVals[T Number](c *Comm, src, tag int, buf []T, op Op, combine bool) {
	_, p := take[T](c, src, tag, len(buf))
	data := *p
	switch {
	case !combine:
		copy(buf, data)
	case src < c.rank:
		for i := range buf {
			buf[i] = applyOp(op, data[i], buf[i])
		}
	default:
		for i := range buf {
			buf[i] = applyOp(op, buf[i], data[i])
		}
	}
	c.giveBack(p)
}

// Gather collects each rank's slice at root. At root the result is indexed by
// source rank (possibly ragged); other ranks receive nil.
func Gather[T Elem](c *Comm, root int, in []T) [][]T {
	seq := c.nextColl()
	defer c.collSpan(collGather, seq)()
	if c.rank != root {
		Send(c, root, collTag(collGather, root, seq, 0), in)
		return nil
	}
	out := make([][]T, c.size)
	local := make([]T, len(in))
	copy(local, in)
	out[root] = local
	for i := 0; i < c.size-1; i++ {
		src, _, data := RecvMsg[T](c, AnySource, collTag(collGather, root, seq, 0))
		out[src] = data
	}
	return out
}

// Allgather collects each rank's slice on every rank, indexed by source rank.
// Slices may have different lengths (the "v" variant is the only variant).
func Allgather[T Elem](c *Comm, in []T) [][]T {
	seq := c.nextColl()
	defer c.collSpan(collAllgather, seq)()
	out := make([][]T, c.size)
	local := make([]T, len(in))
	copy(local, in)
	out[c.rank] = local
	// Ring: pass blocks around size-1 times.
	right := (c.rank + 1) % c.size
	left := (c.rank - 1 + c.size) % c.size
	cur := c.rank
	for step := 0; step < c.size-1; step++ {
		Send(c, right, collTag(collAllgather, 0, seq, step), out[cur])
		cur = (cur - 1 + c.size) % c.size
		out[cur] = Recv[T](c, left, collTag(collAllgather, 0, seq, step))
	}
	return out
}

// AllgatherFlat concatenates every rank's slice in rank order on every rank.
func AllgatherFlat[T Elem](c *Comm, in []T) []T {
	parts := Allgather(c, in)
	var n int
	for _, p := range parts {
		n += len(p)
	}
	out := make([]T, 0, n)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// Scatter distributes parts[i] from root to rank i and returns each rank's
// part. Only root's parts argument is consulted; it must have length Size.
func Scatter[T Elem](c *Comm, root int, parts [][]T) []T {
	seq := c.nextColl()
	defer c.collSpan(collScatter, seq)()
	if c.rank == root {
		if len(parts) != c.size {
			panic(fmt.Sprintf("comm: Scatter needs %d parts, got %d", c.size, len(parts)))
		}
		for dst := 0; dst < c.size; dst++ {
			if dst != root {
				Send(c, dst, collTag(collScatter, root, seq, 0), parts[dst])
			}
		}
		local := make([]T, len(parts[root]))
		copy(local, parts[root])
		return local
	}
	return Recv[T](c, root, collTag(collScatter, root, seq, 0))
}

// Alltoall sends parts[d] to rank d from every rank and returns the received
// blocks indexed by source rank. parts must have length Size; blocks may be
// ragged, and empty blocks are transferred as empty slices.
func Alltoall[T Elem](c *Comm, parts [][]T) [][]T {
	seq := c.nextColl()
	defer c.collSpan(collAlltoall, seq)()
	if len(parts) != c.size {
		panic(fmt.Sprintf("comm: Alltoall needs %d parts, got %d", c.size, len(parts)))
	}
	for dst := 0; dst < c.size; dst++ {
		if dst == c.rank {
			continue
		}
		Send(c, dst, collTag(collAlltoall, 0, seq, 0), parts[dst])
	}
	out := make([][]T, c.size)
	local := make([]T, len(parts[c.rank]))
	copy(local, parts[c.rank])
	out[c.rank] = local
	for i := 0; i < c.size-1; i++ {
		src, _, data := RecvMsg[T](c, AnySource, collTag(collAlltoall, 0, seq, 0))
		out[src] = data
	}
	return out
}

// AlltoallIndexed is Alltoall for float64 blocks that are described in place
// rather than materialized: rank d is sent the elements src[sendIdx[d][k]],
// and the k-th value received from rank s is stored at out[recvPos[s][k]].
// It is the value exchange of a gather or halo plan: each block is packed
// straight into a buffer of its destination's mailbox, so no block, result
// slice or frame is allocated per call.
// Both index tables must have length Size and every rank's recvPos[s] must be
// as long as rank s's sendIdx for it; as in Alltoall, empty blocks are still
// exchanged. A rank's entries for itself are ignored — it moves its own
// elements without the communicator.
func AlltoallIndexed(c *Comm, src []float64, sendIdx [][]int, out []float64, recvPos [][]int) {
	seq := c.nextColl()
	defer c.collSpan(collAlltoallIndexed, seq)()
	if len(sendIdx) != c.size || len(recvPos) != c.size {
		panic(fmt.Sprintf("comm: AlltoallIndexed needs %d index lists each way, got %d and %d", c.size, len(sendIdx), len(recvPos)))
	}
	for dst := 0; dst < c.size; dst++ {
		if dst != c.rank {
			send(c, dst, collTag(collAlltoallIndexed, 0, seq, 0), len(sendIdx[dst]), src, sendIdx[dst])
		}
	}
	for s := 0; s < c.size; s++ {
		if s == c.rank {
			continue
		}
		_, p := take[float64](c, s, collTag(collAlltoallIndexed, 0, seq, 0), len(recvPos[s]))
		for k, v := range *p {
			out[recvPos[s][k]] = v
		}
		c.giveBack(p)
	}
}

// Scan computes the inclusive prefix reduction across ranks: rank r receives
// op(in_0, ..., in_r), element-wise. Runs as a linear chain.
func Scan[T Number](c *Comm, in []T, op Op) []T {
	seq := c.nextColl()
	defer c.collSpan(collScan, seq)()
	acc := make([]T, len(in))
	copy(acc, in)
	if c.rank > 0 {
		_, p := take[T](c, c.rank-1, collTag(collScan, 0, seq, 0), len(acc))
		prev := *p
		for i := range acc {
			acc[i] = applyOp(op, prev[i], acc[i])
		}
		c.giveBack(p)
	}
	if c.rank < c.size-1 {
		Send(c, c.rank+1, collTag(collScan, 0, seq, 0), acc)
	}
	return acc
}

// ExclusiveScanScalar returns op over the values of all lower ranks; rank 0
// receives the identity for op (0 for sum, 1 for prod, and the rank's own
// value for min/max, which has no natural identity without type bounds).
func ExclusiveScanScalar[T Number](c *Comm, v T, op Op) T {
	inc := Scan(c, []T{v}, op)[0]
	if op == OpSum {
		return inc - v
	}
	// Dividing inc by v breaks on zeros (and rounds differently from the
	// true lower-rank product), min/max have no inverse, and any
	// data-dependent branch here would diverge the communication pattern
	// across ranks and deadlock. Products, minima and maxima therefore rerun
	// as a shifted chain.
	seq := c.nextColl()
	buf := [1]T{inc}
	if c.rank < c.size-1 {
		Send(c, c.rank+1, collTag(collExscan, 0, seq, 0), buf[:])
	}
	switch {
	case c.rank > 0:
		recvInto(c, c.rank-1, collTag(collExscan, 0, seq, 0), buf[:])
		return buf[0]
	case op == OpProd:
		return 1
	}
	return v
}
