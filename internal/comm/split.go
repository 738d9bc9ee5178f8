package comm

import (
	"fmt"
	"sort"
)

// deriveCtx computes the context id of a sub-communicator from its parent's
// context, the collective sequence number of the Split call, and the group's
// color. Every member rank computes the same id with no extra communication,
// which is what lets Split work over transports where ranks share no memory:
// the "communicator context" is a name, not a pointer.
func deriveCtx(parent uint64, seq, color int) uint64 {
	h := mix64(parent ^ 0x0d1_c0_1253_1175) // arbitrary split-namespace salt
	h = mix64(h ^ uint64(seq))
	h = mix64(h ^ uint64(int64(color)))
	if h == worldCtx {
		h = 1
	}
	return h
}

// Split partitions the communicator into disjoint sub-communicators, one
// per distinct color, exactly like MPI_Comm_split: every rank passes a
// color and a key; ranks sharing a color form a new communicator ordered
// by (key, old rank). A negative color opts the rank out (it receives nil).
// Collective.
//
// The only communication is the Allgather of (color, key) pairs; from its
// result every member deterministically computes the same group, sub-rank
// numbering, and context id, so construction is identical whether the
// members share a process or live behind a socket transport. Within one
// process the members share a single sub-fabric (so traffic inside a
// subgroup is accounted once and is invisible to siblings and the parent,
// as with real MPI communicators); on a multi-process transport each
// process holds its own per-process view of the sub-communicator's Stats,
// like the world communicator's.
func (c *Comm) Split(color, key int) *Comm {
	type entry struct{ color, key, rank int }
	// Gather everyone's (color, key).
	mine := []int{color, key}
	all := Allgather(c, mine)
	entries := make([]entry, c.size)
	for r, kv := range all {
		entries[r] = entry{color: kv[0], key: kv[1], rank: r}
	}
	// My group, ordered by (key, rank).
	var group []entry
	for _, e := range entries {
		if color >= 0 && e.color == color {
			group = append(group, e)
		}
	}
	sort.Slice(group, func(a, b int) bool {
		if group[a].key != group[b].key {
			return group[a].key < group[b].key
		}
		return group[a].rank < group[b].rank
	})
	newRank := -1
	for i, e := range group {
		if e.rank == c.rank {
			newRank = i
		}
	}

	// Consume one collective sequence number for the construction step, as
	// every rank does, keeping the crash-plan collective numbering aligned
	// across ranks whatever their color.
	seq := c.nextColl()
	if color < 0 {
		return nil
	}
	if newRank < 0 {
		panic(fmt.Sprintf("comm: Split bookkeeping lost rank %d", c.rank))
	}
	subCtx := deriveCtx(c.f.ctx, seq, color)
	owner := make([]int, len(group))
	for i, e := range group {
		owner[i] = c.f.owner[e.rank]
	}
	parent := c.f
	sub := parent.sess.fabricFor(subCtx, func() *fabric {
		f := &fabric{
			ctx:         subCtx,
			size:        len(group),
			owner:       owner,
			reg:         parent.reg,
			sess:        parent.sess,
			stats:       newStats(len(group)),
			plan:        parent.plan,
			fs:          parent.fs,
			jitter:      parent.jitter,
			recvTimeout: parent.recvTimeout,
			perProc:     parent.perProc,
			boxes:       parent.reg.mailboxes(subCtx, len(group)),
		}
		if !c.tr.Remote() {
			f.tr = &inprocTransport{boxes: f.boxes}
		}
		return f
	})
	tr := c.tr
	if sub.tr != nil {
		tr = sub.tr
	}
	return &Comm{rank: newRank, size: len(group), f: sub, tr: tr, box: sub.boxes[newRank]}
}
