package p2pmatch

import (
	"fmt"
	"go/token"
	"strings"
)

// This file model-checks the per-rank event traces the interpreter
// extracted, by replaying the one matching comm's semantics allow (see the
// package comment). Sends are eager, so the replay advances every rank
// through its sends ("closure") and synchronizes collectives as full
// barriers. Receives name a concrete source and tag, so a blocked receive
// has at most one candidate: the oldest executed, unconsumed send with its
// tag on its one channel (a tag-selective receive skips older non-matching
// messages, which stay queued). Firing it touches only that channel and
// disables no other receive, so the order receives fire in cannot change
// the state the replay ends in.

// witness is one deadlock finding, already classified and formatted.
type witness struct {
	pos token.Pos
	msg string
}

// lostMsg is a send no rank receives, in a protocol that otherwise
// completes at size p.
type lostMsg struct {
	ev   event
	rank int64
	p    int64
}

// sendRef locates one send event.
type sendRef struct {
	rank     int   // sender
	idx      int   // index in the sender's trace
	tag      int64 // send tag
	consumed bool
}

type matcher struct {
	evs   [][]event
	p     int
	pcs   []int
	refs  []sendRef // every send, by sender then trace order
	chans [][]int   // chans[src*p+dst]: indexes into refs, in send order
}

// replay runs the traces for size p to the state where no rank can move,
// and returns its deadlock witness, or else the sends left unconsumed.
func replay(evs [][]event, p int64) (*witness, []lostMsg) {
	m := &matcher{evs: evs, p: int(p), pcs: make([]int, p), chans: make([][]int, p*p)}
	for r := range m.p {
		for i, ev := range evs[r] {
			if ev.kind == evSend {
				ch := r*m.p + int(ev.peer)
				m.chans[ch] = append(m.chans[ch], len(m.refs))
				m.refs = append(m.refs, sendRef{rank: r, idx: i, tag: ev.tag})
			}
		}
	}
	for moved := true; moved; {
		m.closure()
		moved = false
		for d := range m.p {
			if m.pcs[d] < len(evs[d]) && evs[d][m.pcs[d]].kind == evRecv {
				if ref := m.candidate(d); ref != nil {
					ref.consumed = true
					m.pcs[d]++
					moved = true
				}
			}
		}
	}
	for r := range m.p {
		if m.pcs[r] < len(evs[r]) {
			return m.witness(r), nil
		}
	}
	var lost []lostMsg
	for _, ref := range m.refs {
		if !ref.consumed {
			lost = append(lost, lostMsg{ev: evs[ref.rank][ref.idx], rank: int64(ref.rank), p: p})
		}
	}
	return nil, lost
}

// closure advances every rank through its sends and through fully-arrived
// barriers.
func (m *matcher) closure() {
	for {
		progress := false
		for r := range m.p {
			for m.pcs[r] < len(m.evs[r]) && m.evs[r][m.pcs[r]].kind == evSend {
				m.pcs[r]++
				progress = true
			}
		}
		if m.notAtBarrier() < 0 {
			for r := range m.p {
				m.pcs[r]++
			}
			progress = true
		}
		if !progress {
			return
		}
	}
}

// candidate returns the send the receive blocked at rank d consumes: the
// oldest executed, unconsumed send with a matching tag on its channel, or
// nil.
func (m *matcher) candidate(d int) *sendRef {
	ev := m.evs[d][m.pcs[d]]
	for _, gid := range m.chans[int(ev.peer)*m.p+d] {
		ref := &m.refs[gid]
		if ref.idx >= m.pcs[ref.rank] {
			return nil // not executed yet; later sends cannot overtake
		}
		if !ref.consumed && ref.tag == ev.tag {
			return ref
		}
		// Older non-matching message stays queued; keep scanning.
	}
	return nil
}

// witness classifies the stuck state, anchored at first, the lowest rank
// that has not finished.
func (m *matcher) witness(first int) *witness {
	ev := m.evs[first][m.pcs[first]]
	if ev.kind == evBarrier {
		// Collective divergence: a peer left the protocol (or blocked in a
		// receive) while this rank waits at a collective.
		other := m.notAtBarrier()
		desc := "has already left the protocol"
		if other >= 0 && m.pcs[other] < len(m.evs[other]) {
			desc = fmt.Sprintf("is blocked at %s", m.evs[other][m.pcs[other]].op)
		}
		return &witness{pos: ev.pos, msg: fmt.Sprintf(
			"point-to-point deadlock at P=%d: rank %d waits at %s while rank %d %s (collective/point-to-point divergence)",
			m.p, first, ev.op, other, desc)}
	}
	// Receive-blocked. Count matching sends over the whole protocol, and
	// how many are still unconsumed.
	total, unconsumed := 0, 0
	for _, gid := range m.chans[int(ev.peer)*m.p+first] {
		if ref := m.refs[gid]; ref.tag == ev.tag {
			total++
			if !ref.consumed {
				unconsumed++
			}
		}
	}
	switch {
	case total == 0:
		return &witness{pos: ev.pos, msg: fmt.Sprintf(
			"point-to-point deadlock at P=%d: rank %d blocks in %s from rank %d with tag %d that no Send in the protocol ever matches (unmatched receive)",
			m.p, first, ev.op, ev.peer, ev.tag)}
	case unconsumed == 0:
		return &witness{pos: ev.pos, msg: fmt.Sprintf(
			"point-to-point deadlock at P=%d: rank %d blocks in %s from rank %d with tag %d after other receives consumed all %d matching Sends (send/receive count mismatch)",
			m.p, first, ev.op, ev.peer, ev.tag, total)}
	}
	// Matching sends exist but sit behind blocked program counters: a
	// rendezvous cycle. Report the waits-for chain.
	return &witness{pos: ev.pos, msg: fmt.Sprintf(
		"point-to-point deadlock at P=%d: rendezvous cycle (%s); every rank on the cycle waits to receive before issuing the Send its successor needs",
		m.p, m.cycle(first))}
}

// notAtBarrier returns the lowest rank that is not waiting at a barrier,
// or -1 when every rank is.
func (m *matcher) notAtBarrier() int {
	for r := range m.p {
		if m.pcs[r] >= len(m.evs[r]) || m.evs[r][m.pcs[r]].kind != evBarrier {
			return r
		}
	}
	return -1
}

// cycle renders the waits-for chain starting at rank d: a blocked receiver
// waits for its source when that rank's un-executed trace suffix holds a
// matching send; a barrier-blocked rank waits for the first rank not at the
// barrier.
func (m *matcher) cycle(d int) string {
	waitsFor := func(r int) int {
		if m.pcs[r] >= len(m.evs[r]) {
			return -1
		}
		ev := m.evs[r][m.pcs[r]]
		if ev.kind == evBarrier {
			return m.notAtBarrier()
		}
		for _, gid := range m.chans[int(ev.peer)*m.p+r] {
			if ref := m.refs[gid]; ref.idx >= m.pcs[ref.rank] && ref.tag == ev.tag {
				return int(ev.peer)
			}
		}
		return -1
	}
	var chain []string
	seen := map[int]bool{}
	for r := d; !seen[r]; {
		seen[r] = true
		next := waitsFor(r)
		if next < 0 {
			chain = append(chain, fmt.Sprintf("rank %d blocks", r))
			break
		}
		chain = append(chain, fmt.Sprintf("rank %d waits for rank %d", r, next))
		r = next
	}
	return strings.Join(chain, ", ")
}
