// Package comm mirrors the Send accounting/tracing pairing for tracepair
// rule 2: every KindSend emission must keep a stats record call adjacent,
// at some enclosing block level.
package comm

// Event mirrors trace.Event.
type Event struct {
	Kind  int
	Peer  int
	Bytes int64
}

// KindSend mirrors trace.KindSend.
const KindSend = 2

// KindRecv mirrors trace.KindRecv.
const KindRecv = 3

type session struct{}

func (s *session) Emit(e Event) {}

func active() *session { return nil }

type stats struct{}

func (st *stats) record(src, dst int, n int64) {}

// Comm carries the stats sink.
type Comm struct {
	st   stats
	rank int
}

// goodSend mirrors the real Send: record, then emit under the trace guard —
// adjacency holds at the outer block level.
func (c *Comm) goodSend(dst int, n int64) {
	c.st.record(c.rank, dst, n)
	if s := active(); s != nil {
		s.Emit(Event{Kind: KindSend, Peer: dst, Bytes: n})
	}
}

// inlineSend keeps both calls as direct siblings.
func (c *Comm) inlineSend(dst int, n int64) {
	if s := active(); s != nil {
		c.st.record(c.rank, dst, n)
		s.Emit(Event{Kind: KindSend, Peer: dst, Bytes: n})
	}
}

// recvEmit emits KindRecv; rule 2 only polices sends.
func (c *Comm) recvEmit(src int, n int64) {
	if s := active(); s != nil {
		s.Emit(Event{Kind: KindRecv, Peer: src, Bytes: n})
	}
}

// driftedSend lost its record pairing in a refactor.
func (c *Comm) driftedSend(dst int, n int64) {
	if s := active(); s != nil {
		s.Emit(Event{Kind: KindSend, Peer: dst, Bytes: n}) // want `adjacent stats.record`
	}
}

// farSend records too far away: intervening statements break adjacency.
func (c *Comm) farSend(dst int, n int64) {
	c.st.record(c.rank, dst, n)
	dst = dst + 0
	n = n + 0
	if s := active(); s != nil {
		s.Emit(Event{Kind: KindSend, Peer: dst, Bytes: n}) // want `adjacent stats.record`
	}
}

// allowedSend is a deliberate exception: a retransmit emission whose
// accounting happened at the original send site.
func (c *Comm) allowedSend(dst int, n int64) {
	if s := active(); s != nil {
		//lint:allow tracepair Retransmit event; the original send recorded it
		s.Emit(Event{Kind: KindSend, Peer: dst, Bytes: n})
	}
}

// account mirrors the real shared accounting of every send route: the one
// place record and the KindSend emission live, adjacent.
func (c *Comm) account(dst int, n int64) {
	c.st.record(c.rank, dst, n)
	if s := active(); s != nil {
		s.Emit(Event{Kind: KindSend, Peer: dst, Bytes: n})
	}
}

// typedSend mirrors sendTyped: a second route to the wire that accounts
// through the shared helper and emits nothing of its own.
func (c *Comm) typedSend(dst int, data []float64) {
	c.account(dst, int64(8*len(data)))
}

// typedSendOwnEvent is the refactor to catch: the typed route grew its own
// send event, so a typed message would show twice in the trace matrix and
// once in Stats.
func (c *Comm) typedSendOwnEvent(dst int, data []float64) {
	c.account(dst, int64(8*len(data)))
	if s := active(); s != nil {
		s.Emit(Event{Kind: KindSend, Peer: dst, Bytes: int64(8 * len(data))}) // want `adjacent stats.record`
	}
}
