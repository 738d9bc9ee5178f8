package comm

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// This file defines the transport boundary of the comm fabric. Everything
// above it — collectives, fault injection, Stats, tracing, Split — is
// transport-agnostic: a Send turns into exactly one Frame (plus fault-layer
// retransmits/duplicates) handed to a Transport, and every delivery lands in
// a destination mailbox found through the per-process registry. The default
// inproc transport reproduces the original channel-mailbox fabric with zero
// added cost; the tcp transport (tcp.go) moves the same frames across real
// sockets so ranks can live in separate OS processes.

// Frame is the unit a Transport moves: one logical point-to-point message
// together with the fault-layer metadata the destination mailbox needs to
// apply the sender's seeded decisions. Src and Dst are ranks *within* the
// communicator identified by Ctx; the wire destination (the world rank
// hosting the mailbox) is passed to Deliver separately so sub-communicator
// traffic can ride the world transport.
type Frame struct {
	Ctx     uint64 // communicator context id (0 = world communicator)
	Src     int    // source rank within Ctx
	Dst     int    // destination rank within Ctx
	Tag     int
	Seq     uint64 // per-(src,dst) delivery sequence; 0 = fault layer off
	Hold    int    // fault layer: deliveries this frame sits out (logical delay)
	Reorder uint64 // fault layer: nonzero requests an out-of-order splice

	data payload // the frame's own buffer (packed or decoded), never aliased
}

// Transport moves frames between ranks. Implementations must preserve
// per-(src,dst) frame order — MPI's non-overtaking guarantee depends on it —
// and take ownership of the payload of the frame passed to Deliver (a buffer
// of the destination mailbox, packed by the send; it never aliases sender
// memory). The frame itself travels by value, so a send puts no frame on the
// heap.
//
// Deliver must not block indefinitely: a send is eager on every transport
// (the tcp transport queues frames to a per-peer writer goroutine with an
// unbounded outbox).
type Transport interface {
	// Name identifies the transport ("inproc", "tcp") in errors and traces.
	Name() string
	// Remote reports whether frames can cross a process or wire boundary,
	// i.e. whether delivery can genuinely fail. Sessions on a remote
	// transport get a 10-second receive deadline when Config.RecvTimeout is
	// unset, and no deadlock detector.
	Remote() bool
	// Deliver routes fr to the mailbox of (fr.Ctx, fr.Dst). wireDst is the
	// world rank hosting that mailbox.
	Deliver(wireDst int, fr Frame)
	// Close releases transport resources. On remote transports it flushes
	// pending frames, signals an orderly goodbye to peers, and reaps the
	// per-peer goroutines. Close is called once, after every local rank's
	// body has returned.
	Close() error
}

// boxKey addresses one mailbox in a process: the communicator context plus
// the rank within it.
type boxKey struct {
	ctx  uint64
	rank int
}

// comm names the communicator of a mailbox in fault messages: "world", or
// a sub-communicator's context id.
func (k boxKey) comm() string {
	if k.ctx == worldCtx {
		return "world"
	}
	return fmt.Sprintf("%#x", k.ctx)
}

// registry is the per-process home of every mailbox of one session, across
// the world communicator and all Split-derived sub-communicators. Mailboxes
// are created lazily on first touch so an incoming tcp frame for a
// sub-communicator the local rank has not constructed yet still has a place
// to land.
type registry struct {
	mu    sync.Mutex
	boxes map[boxKey]*mailbox
}

func newRegistry() *registry {
	return &registry{boxes: make(map[boxKey]*mailbox)}
}

// box returns the mailbox for (ctx, rank), creating it on first use.
func (r *registry) box(ctx uint64, rank int) *mailbox {
	k := boxKey{ctx, rank}
	r.mu.Lock()
	b := r.boxes[k]
	if b == nil {
		b = newMailbox(k)
		r.boxes[k] = b
	}
	r.mu.Unlock()
	return b
}

// mailboxes returns the mailboxes of ranks 0..size-1 of communicator ctx.
func (r *registry) mailboxes(ctx uint64, size int) []*mailbox {
	boxes := make([]*mailbox, size)
	for i := range boxes {
		boxes[i] = r.box(ctx, i)
	}
	return boxes
}

// all snapshots every registered mailbox; the failure latch walks it to wake
// blocked receivers session-wide.
func (r *registry) all() []*mailbox {
	r.mu.Lock()
	out := make([]*mailbox, 0, len(r.boxes))
	for _, b := range r.boxes {
		out = append(out, b)
	}
	r.mu.Unlock()
	return out
}

// sorted is all, ordered by communicator context and rank, for fault
// messages that read the same on every run.
func (r *registry) sorted() []*mailbox {
	boxes := r.all()
	sort.Slice(boxes, func(i, j int) bool {
		a, b := boxes[i].key, boxes[j].key
		return a.ctx < b.ctx || a.ctx == b.ctx && a.rank < b.rank
	})
	return boxes
}

// anyUnread reports whether some mailbox holds a message no receive took
// (mailbox.eachUnreadLocked). It allocates nothing.
func (r *registry) anyUnread() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, b := range r.boxes {
		found := false
		b.mu.Lock()
		b.eachUnreadLocked(func(message) { found = true })
		b.mu.Unlock()
		if found {
			return true
		}
	}
	return false
}

// session is the per-process bookkeeping shared by a world communicator and
// every sub-communicator split from it: the fabric cache keyed by context id,
// and the deadlock detector's counts. Caching matters on the in-process
// transports, where all member ranks of a Split must share one fabric (and
// therefore one Stats object) — the first member to construct the sub-fabric
// wins and the rest adopt it.
//
// ranks packs the detector's two counts into one word, so every transition
// sees both at once: the live ranks (whose body has not returned) in the high
// 32 bits, the ranks parked in waitMsg's cond.Wait in the low 32. detect is
// set on in-process sessions, where every rank that can send is counted.
type session struct {
	mu      sync.Mutex
	fabrics map[uint64]*fabric
	ranks   atomic.Uint64
	detect  bool
}

// oneLive is one live rank in session.ranks; one parked rank is 1.
const oneLive = 1 << 32

func newSession(live int, detect bool) *session {
	s := &session{fabrics: make(map[uint64]*fabric), detect: detect}
	s.ranks.Store(uint64(live) * oneLive)
	return s
}

// park counts a rank as parked; leave counts one out once its body has
// returned. Each reports whether its transition left every live rank parked:
// on an in-process session no rank is then left to send, and the session is
// deadlocked. unpark is post's: a delivery to a parked rank's mailbox.
func (s *session) park() bool  { return s.quiescent(s.ranks.Add(1)) }
func (s *session) leave() bool { return s.quiescent(s.ranks.Add(^uint64(oneLive - 1))) }
func (s *session) unpark()     { s.ranks.Add(^uint64(0)) }

func (s *session) quiescent(n uint64) bool {
	parked := n % oneLive
	return s.detect && parked > 0 && parked == n/oneLive
}

// fabricFor returns the cached fabric for ctx, building it with mk on first
// use. Every member computes identical construction parameters, so whichever
// member arrives first may safely build for all.
func (s *session) fabricFor(ctx uint64, mk func() *fabric) *fabric {
	s.mu.Lock()
	defer s.mu.Unlock()
	if f, ok := s.fabrics[ctx]; ok {
		return f
	}
	f := mk()
	s.fabrics[ctx] = f
	return f
}

// ---- inproc transport ---------------------------------------------------

// inprocTransport is the original channel-mailbox fabric re-expressed behind
// the Transport interface: delivery is a direct enqueue into the destination
// rank's mailbox in the same address space. The mailbox slice is the
// fabric's, resolved once, so the per-message cost stays an array index.
type inprocTransport struct {
	boxes []*mailbox
}

func (t *inprocTransport) Name() string { return "inproc" }
func (t *inprocTransport) Remote() bool { return false }
func (t *inprocTransport) Close() error { return nil }

func (t *inprocTransport) Deliver(wireDst int, fr Frame) {
	t.boxes[fr.Dst].deliver(fr)
}

// deliver lands one frame in the mailbox. Fault-layer metadata (Seq != 0)
// carries the sender's seeded hold/reorder decisions, which post applies
// while preserving per-source order.
func (b *mailbox) deliver(fr Frame) {
	b.mu.Lock()
	b.post(message{Src: fr.Src, Tag: fr.Tag, data: fr.data, seq: fr.Seq}, fr.Hold, fr.Reorder)
}
