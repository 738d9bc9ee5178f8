// Package comm implements an MPI-style message-passing runtime. A
// communicator of P ranks runs as P goroutines by default, sharing a fabric
// of in-process mailboxes; with the tcp transport the same P ranks can live
// in separate OS processes connected by real sockets (see Transport and the
// comm/launch package). The package provides tagged point-to-point
// messaging, the standard collective operations, per-rank traffic
// accounting, and a latency/bandwidth cost model to price that traffic.
//
// The paper's claims about ODIN and PyTrilinos concern communication
// *structure* — how many messages move, how large they are, and between which
// ranks — rather than wire speed. This substrate exposes exactly those
// quantities deterministically (see Stats), which is what the
// E1/E3/E4/E10 experiments measure. Everything above the Transport boundary
// (collectives, fault injection, Stats, tracing) is transport-agnostic, so
// the measured structure is identical whether ranks share a process or not.
package comm

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"odinhpc/internal/trace"
)

// AnySource matches a message from any sender in Recv.
const AnySource = -1

// AnyTag matches a message with any tag in Recv.
const AnyTag = -1

// message is a point-to-point message in a mailbox: its source and tag, and
// its elements in a buffer the mailbox owns.
type message struct {
	Src  int
	Tag  int
	data payload

	// seq is the per-(src,dst) delivery sequence number, assigned only while
	// a fault plan is active; receivers use it to discard duplicated
	// deliveries. Zero means "no fault layer".
	seq uint64
}

// msgQueue is a mailbox's FIFO: the queued messages are buf[head:]. Matching
// the oldest message — what every in-order protocol does — advances head
// instead of sliding the whole backlog down, so a receiver draining a long
// eager backlog pays O(1) per message, not O(backlog). The dead prefix is
// reclaimed by push, never leaked: it is compacted away once it is at least
// as long as the live part, which keeps push amortized O(1) and the backing
// array within a small constant factor of the peak backlog (a dead prefix
// shorter than the live part, times append's doubling).
type msgQueue struct {
	buf  []message
	head int
}

func (q *msgQueue) live() []message { return q.buf[q.head:] }

func (q *msgQueue) push(m message) {
	if len(q.buf) == cap(q.buf) && q.head > 0 && q.head >= len(q.buf)-q.head {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, m)
}

// remove deletes live()[i]; the elements after it keep their order and move
// down one index.
func (q *msgQueue) remove(i int) {
	if i == 0 {
		q.buf[q.head] = message{}
		if q.head++; q.head == len(q.buf) {
			q.buf, q.head = q.buf[:0], 0
		}
		return
	}
	i += q.head
	last := len(q.buf) - 1
	copy(q.buf[i:], q.buf[i+1:])
	q.buf[last] = message{}
	q.buf = q.buf[:last]
}

// insert places m at live()[pos], moving the elements from pos on up one.
func (q *msgQueue) insert(pos int, m message) {
	q.push(message{})
	live := q.live()
	copy(live[pos+1:], live[pos:])
	live[pos] = m
}

// mailbox is the per-destination message queue. Receivers scan it for a
// matching (src, tag) pair and otherwise wait (waitMsg): spinning on arrivals,
// which every enqueue bumps before it releases mu (after the unlock the same
// add cost the scalar allreduce 15%: the receiver has the line by then), or
// parked on cond. free holds payload buffers between messages (takeVals).
// The delayed and seen fields belong to the fault-injection layer and stay
// nil/empty when no plan is active.
//
// parker is the session of the rank parked on cond, nil while none is: post
// un-parks it, so a rank with a message on its way is never counted as stuck
// (DESIGN.md "Deadlock detection"). waitSrc and waitTag are what it waits
// for, and left marks a world mailbox whose rank has returned; with key they
// only serve to name the ranks of a deadlock.
type mailbox struct {
	mu       sync.Mutex
	cond     *sync.Cond
	arrivals atomic.Uint64
	queue    msgQueue
	free     []payload
	delayed  []heldMsg
	seen     map[int]map[uint64]struct{}

	parker           *session
	waitSrc, waitTag int
	left             bool
	key              boxKey
}

func newMailbox(key boxKey) *mailbox {
	m := &mailbox{key: key}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// post is the one enqueue: entered with mu held, it queues m (a fault-plan
// message, seq != 0, under deliverFaultLocked's hold and reorder rules),
// un-parks the rank waiting here, and releases mu before it wakes the rank.
func (b *mailbox) post(m message, hold int, reorder uint64) {
	if m.seq == 0 {
		b.queue.push(m)
	} else {
		b.deliverFaultLocked(m, hold, reorder)
	}
	b.arrivals.Add(1)
	b.unparkLocked()
	b.mu.Unlock()
	b.cond.Broadcast()
}

// unparkLocked takes the rank parked on b, if any, off its session's count.
func (b *mailbox) unparkLocked() {
	if s := b.parker; s != nil {
		b.parker = nil
		s.unpark()
	}
}

// takeMatchLocked removes and returns the oldest queued message matching
// (src, tag). A message with a fault-plan sequence number that was already
// taken is a duplicate delivery: it is discarded unread, counted in st, and
// the scan goes on. Without a plan seq is 0 and that branch is never taken.
func (b *mailbox) takeMatchLocked(src, tag int, st *Stats) (message, bool) {
	for i := 0; i < len(b.queue.live()); i++ {
		m := b.queue.live()[i]
		if (src == AnySource || m.Src == src) && (tag == AnyTag || m.Tag == tag) {
			b.queue.remove(i)
			if m.seq != 0 {
				if b.seenLocked(m.Src, m.seq) {
					st.addFault(func(fc *FaultCounts) { fc.Deduped++ })
					i--
					continue
				}
				b.markSeenLocked(m.Src, m.seq)
			}
			return m, true
		}
	}
	return message{}, false
}

// wake rouses every receiver parked on b. Taking the lock first orders it
// after a receiver that checked its conditions and is entering Wait.
func (b *mailbox) wake() {
	b.mu.Lock()
	b.mu.Unlock() //nolint:staticcheck // empty critical section is the wakeup barrier
	b.cond.Broadcast()
}

// A mailbox keeps at most maxFreeBufs payload buffers, none larger than
// maxRecycleBytes: enough for every peer of a halo exchange or an allreduce
// round to have a message in flight without allocating, and a hard bound
// (1 MiB) on what a long-lived communicator retains after a burst or one huge
// redistribution. Larger payloads are allocated per message.
const (
	maxFreeBufs     = 16
	maxRecycleBytes = 64 << 10
)

// takeVals returns a buffer of n elements of k's type for a message to b:
// the most recently returned []T, given a fresh array when it is too short,
// or a fresh buffer. Buffers of other types stay.
func takeVals[T Elem](b *mailbox, n int, k *codec[T]) *vals[T] {
	var p *vals[T]
	if n*k.size <= maxRecycleBytes {
		b.mu.Lock()
		for i := len(b.free) - 1; i >= 0; i-- {
			if q, ok := b.free[i].(*vals[T]); ok {
				p = q
				last := len(b.free) - 1
				copy(b.free[i:], b.free[i+1:])
				b.free[last] = nil
				b.free = b.free[:last]
				break
			}
		}
		b.mu.Unlock()
	}
	if p == nil {
		p = new(vals[T])
	}
	if *p == nil || cap(*p) < n {
		*p = make(vals[T], n) // never nil: a nil slice arrives empty
	}
	*p = (*p)[:n]
	return p
}

// giveBack returns a message's buffer to this rank's mailbox once its
// elements have been copied out. The buffer waits in c.back for the rank's
// next receive, which files it in the critical section it enters anyway
// (takeMsg). A buffer goes back at most once: only the receive that took its
// message gives it back, never a duplicate that seq dedup dropped.
func (c *Comm) giveBack(p payload) {
	if !p.keep() {
		return
	}
	if c.back != nil {
		c.box.mu.Lock()
		c.box.fileLocked(c.back)
		c.box.mu.Unlock()
	}
	c.back = p
}

// fileLocked puts p on b's free list, dropping the least recently returned
// buffer when the list is full.
func (b *mailbox) fileLocked(p payload) {
	if len(b.free) == maxFreeBufs {
		copy(b.free, b.free[1:])
		b.free = b.free[:maxFreeBufs-1]
	}
	b.free = append(b.free, p)
}

// fabric is the shared state of one communicator: its context id and rank
// owner table, the mailbox registry, traffic statistics, and (optionally) the
// fault plan with its session-wide abort latch. On remote transports each
// process holds its own fabric for the same context; only the locally hosted
// mailboxes are live in its registry.
type fabric struct {
	ctx   uint64
	size  int
	owner []int // world rank hosting each communicator rank
	tr    Transport
	// boxes are the destination mailboxes, indexed by rank, whose free lists
	// a send packs into. On a multi-process session those of remote ranks
	// are this process's stand-ins, which only lend their free lists.
	boxes []*mailbox
	reg   *registry
	sess  *session
	stats *Stats
	plan  *FaultPlan
	fs    *failState
	// jitter is the seeded scheduling-pressure plan (sched.go); nil outside
	// stress runs.
	jitter *SchedJitter

	// recvTimeout bounds every blocking receive of the session; 0 is no
	// deadline (Config.recvTimeout).
	recvTimeout time.Duration
	// perProc marks a genuinely multi-process session (RunRemote): this
	// process's Stats hold only its own rank's sends and GlobalStats must
	// Allreduce to aggregate. Loopback tcp sessions are remote but not
	// perProc — all ranks share one Stats object.
	perProc bool
}

// seed returns the fault-plan seed for error stamping, or 0 without a plan
// (every session raises FaultErrors when a rank fails or a deadline passes).
func (f *fabric) seed() int64 {
	if f.plan != nil {
		return f.plan.Seed
	}
	return 0
}

// Comm is one rank's handle on the communicator. It is owned by a single
// goroutine; methods on distinct Comm values may be called concurrently.
type Comm struct {
	rank    int
	size    int
	f       *fabric
	tr      Transport // this rank's endpoint (== f.tr on in-process transports)
	box     *mailbox  // this rank's mailbox, resolved once
	collSeq int       // per-rank collective sequence number (SPMD-synchronized)
	sendSeq []uint64  // per-destination delivery sequence (fault plans only)

	// lastWait is when (on clock) this rank last returned from a receive that
	// had to wait, for waitMsg's gap test.
	lastWait time.Duration
	// backoff is waitMsg's back-off state after this rank's expired spins.
	backoff spinBackoff
	// deadline wakes this rank's parked receive at the session's receive
	// deadline; one timer serves every receive, created on the first park of
	// a session that has a deadline.
	deadline *time.Timer

	// jitterSeq counts this rank's scheduling-jitter decision points; it
	// feeds the seed-pure yield hash (sched.go) and stays zero without a
	// SchedJitter.
	jitterSeq uint64

	// back is the buffer of the last message this rank copied out, on its
	// way back to box's free list (giveBack).
	back payload
}

// Rank returns this rank's index in [0, Size).
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return c.size }

// Transport returns the name of the transport carrying this rank's traffic
// ("inproc", "tcp").
func (c *Comm) Transport() string { return c.tr.Name() }

// Run spawns size ranks, each executing fn with its own Comm, and waits for
// all of them. It returns the first non-nil error returned by any rank; a
// panic in one rank is captured and reported as an error rather than
// crashing the process.
func Run(size int, fn func(c *Comm) error) error {
	_, err := RunStats(size, fn)
	return err
}

// RunStats is Run but also returns the communicator's traffic statistics.
func RunStats(size int, fn func(c *Comm) error) (*Stats, error) {
	return RunConfig(size, Config{}, fn)
}

// TransportEnv is the environment variable consulted when Config.Transport
// is empty: setting ODINHPC_TRANSPORT=tcp reruns every comm session — and
// therefore every test built on Run/RunConfig, including the golden and
// chaos harnesses — over the socket transport without touching the callers.
const TransportEnv = "ODINHPC_TRANSPORT"

// Config bundles the optional knobs of a communicator session. The zero
// value matches RunStats.
type Config struct {
	// Faults is the seeded fault-injection plan for chaos runs.
	Faults *FaultPlan
	// Transport names the wire: "inproc" (default) runs every rank as a
	// goroutine over shared mailboxes; "tcp" runs the same ranks over real
	// loopback sockets (still in one process — see comm/launch and RunRemote
	// for separate OS processes). Empty falls back to $ODINHPC_TRANSPORT,
	// then "inproc".
	Transport string
	// RecvTimeout bounds every blocking Recv of the session: a receive
	// still waiting when it passes fails the session with FaultTimeout. Zero
	// means 10 seconds on sessions with a fault plan or a remote transport
	// and no deadline on plain inproc sessions. An inproc session needs
	// none: a failed rank aborts its peers, and a kernel that deadlocks by
	// itself fails with FaultDeadlock as soon as every live rank is parked in
	// a receive. The deadline is for what one process cannot see — a tcp
	// peer, or a rank blocked outside comm while the others wait on it.
	RecvTimeout time.Duration
	// Jitter injects seeded scheduling pressure at Send/Recv/collective
	// entry (sched.go). It perturbs goroutine interleavings only — results
	// and traffic matrices must be identical to a jitter-free run — and sets
	// no deadline; a schedule-dependent deadlock surfaces as a typed
	// FaultDeadlock on inproc, and stress runs pair jitter with RecvTimeout
	// for the transports where only a deadline can see one.
	Jitter *SchedJitter
}

// transportName resolves the configured transport.
func (cfg Config) transportName() string {
	if cfg.Transport != "" {
		return cfg.Transport
	}
	if t := os.Getenv(TransportEnv); t != "" {
		return t
	}
	return "inproc"
}

// recvTimeout is the session's receive deadline: RecvTimeout when set, else
// 10 seconds on fault-plan and remote sessions, else none (0).
func (cfg Config) recvTimeout(remote bool) time.Duration {
	switch {
	case cfg.RecvTimeout > 0:
		return cfg.RecvTimeout
	case cfg.Faults != nil || remote:
		return 10 * time.Second
	}
	return 0
}

// RunConfig is the fully configurable session entry point. Any rank failure
// — planned crash, exhausted retransmits, receive deadline, deadlock, payload
// mismatch, wire failure, user error, or panic — aborts the whole session:
// peers blocked in Recv wake promptly and report a *FaultError instead of
// hanging, matching MPI's abort-the-job default but with a typed in-process
// error. The session's error is the root cause, not a peer's echo of it. A
// session whose ranks all return nil fails with FaultUnread if a message sent
// in it was never received.
func RunConfig(size int, cfg Config, fn func(c *Comm) error) (*Stats, error) {
	if size <= 0 {
		return nil, fmt.Errorf("comm: size must be positive, got %d", size)
	}
	if cfg.Faults != nil {
		if err := cfg.Faults.validate(size); err != nil {
			return nil, err
		}
	}
	reg := newRegistry()
	fs := newFailState(reg)
	owner := make([]int, size)
	for i := range owner {
		owner[i] = i
	}
	f := &fabric{
		ctx:    worldCtx,
		size:   size,
		owner:  owner,
		reg:    reg,
		stats:  newStats(size),
		plan:   cfg.Faults,
		fs:     fs,
		jitter: cfg.Jitter,
		boxes:  reg.mailboxes(worldCtx, size),
	}
	trs := make([]Transport, size)
	name := cfg.transportName()
	switch name {
	case "inproc":
		f.tr = &inprocTransport{boxes: f.boxes}
		for i := range trs {
			trs[i] = f.tr
		}
	case "tcp":
		eps, err := newLoopbackTCP(size, reg, fs)
		if err != nil {
			return nil, err
		}
		for i := range trs {
			trs[i] = eps[i]
		}
	default:
		return nil, fmt.Errorf("comm: unknown transport %q", name)
	}
	remote := trs[0].Remote()
	f.sess = newSession(size, !remote)
	f.recvTimeout = cfg.recvTimeout(remote)
	errs := make([]error, size)
	var wg sync.WaitGroup
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			errs[rank] = runRank(&Comm{rank: rank, size: size, f: f, tr: trs[rank], box: f.boxes[rank]}, fn)
		}(r)
	}
	wg.Wait()
	if remote {
		// Close endpoints concurrently: an orderly close waits for the
		// peer's goodbye, which only arrives once the peer closes too.
		var cwg sync.WaitGroup
		for _, tr := range trs {
			cwg.Add(1)
			go func(t Transport) {
				defer cwg.Done()
				t.Close()
			}(tr)
		}
		cwg.Wait()
	}
	err := RootCause(errs)
	if err == nil {
		// Every send has landed by now: a tcp reader delivers each data
		// frame before its peer's goodbye, and the registry is shared. A
		// message still queued is one no rank will ever receive.
		if fe := f.unread(); fe != nil {
			err = fe
		}
	}
	return f.stats, err
}

// worldCtx is the context id of the world communicator; Split derives
// sub-communicator contexts from it deterministically (split.go).
const worldCtx uint64 = 0

// runRank runs one rank's body. A panic becomes the rank's error — its own
// *FaultError, or a "rank panicked" error — and any error aborts the peers.
// Then the rank leaves the session; if every rank still live is parked, none
// of them can ever be sent a message, and the leaving rank fails the session
// with FaultDeadlock on their behalf.
func runRank(c *Comm, fn func(c *Comm) error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			if fe, ok := p.(*FaultError); ok {
				err = fe
			} else {
				err = fmt.Errorf("comm: rank %d panicked: %v", c.rank, p)
			}
		}
		if err != nil {
			c.f.abortPeers(c.rank, err)
		}
		c.box.mu.Lock()
		c.box.left = true
		c.box.mu.Unlock()
		if c.f.sess.leave() {
			c.f.fs.fail(c.f.deadlock(c.rank, AnySource, AnyTag))
		}
	}()
	return fn(c)
}

// abortPeers propagates a rank failure to all peers on every session, so no
// rank can strand the others mid-collective.
func (f *fabric) abortPeers(rank int, err error) {
	if fe, ok := err.(*FaultError); ok {
		f.fs.fail(fe)
		return
	}
	f.fs.fail(&FaultError{Kind: FaultPeerFailed, Rank: rank, Peer: -1, Seed: f.seed()})
}

// RootCause picks a failed session's error out of its ranks' errors, in rank
// order: the first that is not a propagated FaultPeerFailed echo, seen
// through any %w wrapping, so callers get the originating fault rather than
// a downstream echo. When every failed rank reports an echo — the root fault
// originated off-rank, e.g. in a transport reader goroutine — the first
// echo's recorded cause is surfaced instead. It is nil when every error is.
func RootCause(errs []error) error {
	var echo error
	var cause *FaultError
	for _, e := range errs {
		if e == nil {
			continue
		}
		var fe *FaultError
		if !errors.As(e, &fe) || fe.Kind != FaultPeerFailed {
			return e
		}
		if echo == nil {
			echo, cause = e, fe.Cause
		}
	}
	if cause != nil {
		return cause
	}
	return echo
}

// Send delivers a copy of data to rank dst with the given tag. Sends are
// eager and never block: the elements are packed into a buffer that belongs
// to the destination mailbox, so the sender may reuse data at once and the
// receiver never aliases it; a nil slice arrives empty.
func Send[T Elem](c *Comm, dst, tag int, data []T) {
	send(c, dst, tag, len(data), data, nil)
}

// send is the one route of every message: it packs n elements, data[idx[k]]
// for k < n or data[:n] when idx is nil, into a buffer of dst's mailbox
// (takeVals), accounts them, and hands the frame to the fault layer or the
// transport.
func send[T Elem](c *Comm, dst, tag, n int, data []T, idx []int) {
	if dst < 0 || dst >= c.size {
		panic(fmt.Sprintf("comm: Send to invalid rank %d (size %d)", dst, c.size))
	}
	_, k := codecOf[T]()
	p := takeVals(c.f.boxes[dst], n, k)
	if idx == nil {
		copy(*p, data)
	} else {
		for j, s := range idx {
			(*p)[j] = data[s]
		}
	}
	c.account(dst, tag, k.bytes(*p))
	fr := Frame{Ctx: c.f.ctx, Src: c.rank, Dst: dst, Tag: tag, data: p}
	if c.f.plan != nil {
		c.faultySend(fr)
		return
	}
	c.tr.Deliver(c.f.owner[dst], fr)
}

// account is what every logical send of n payload bytes records: the jitter
// point, the Stats entry and the trace event.
func (c *Comm) account(dst, tag int, n int64) {
	c.jitter(jitterSend)
	c.f.stats.record(c.rank, dst, n)
	// One trace event per logical Send — the identical unit Stats counts —
	// so the trace-derived message matrix reconciles exactly with the Stats
	// matrices, including under fault plans (retransmits are deliveries,
	// not sends).
	if s := trace.Active(); s != nil {
		s.Emit(trace.Event{Kind: trace.KindSend, Rank: int32(c.rank), Worker: -1,
			Peer: int32(dst), Tag: int32(tag), Start: s.Now(), Bytes: n})
	}
}

// take blocks for the message matching (src, tag) and returns it with its
// elements. It is the one checked take of a payload: a message of another
// element type, or of a length other than n where n >= 0, fails the session
// with FaultMismatch.
func take[T Elem](c *Comm, src, tag, n int) (message, *vals[T]) {
	m := c.recvMsg(src, tag)
	p, ok := m.data.(*vals[T])
	if !ok || n >= 0 && len(*p) != n {
		panic(&FaultError{Kind: FaultMismatch, Rank: c.rank, Peer: m.Src, Tag: m.Tag, Seed: c.f.seed(),
			detail: fmt.Sprintf("rank %d sent %s, rank %d expects %s", m.Src, m.data.describe(), c.rank, describe[T](n))})
	}
	return m, p
}

// recvInto receives the message matching (src, tag), which must carry
// len(buf) elements, copies them into buf and gives the buffer back.
func recvInto[T Elem](c *Comm, src, tag int, buf []T) {
	_, p := take[T](c, src, tag, len(buf))
	copy(buf, *p)
	c.giveBack(p)
}

// Recv blocks until a message matching (src, tag) arrives and returns its
// elements, which are the caller's from then on. Use AnySource and/or AnyTag
// as wildcards. A message of another element type fails the session with
// FaultMismatch.
func Recv[T Elem](c *Comm, src, tag int) []T {
	_, _, data := RecvMsg[T](c, src, tag)
	return data
}

// RecvMsg is Recv that also returns the message's source and tag (useful
// with wildcards).
func RecvMsg[T Elem](c *Comm, src, tag int) (int, int, []T) {
	m, p := take[T](c, src, tag, -1)
	if data := *p; cap(data) == len(data) {
		return m.Src, m.Tag, data
	}
	// A pooled buffer longer than its message stays in the pool: the caller
	// gets an exact copy, not a share of a larger array.
	data := make([]T, len(*p))
	copy(data, *p)
	c.giveBack(p)
	return m.Src, m.Tag, data
}

// recvMsg is the one receive: it blocks for the message matching (src, tag),
// takes it off the queue, and traces the wait.
func (c *Comm) recvMsg(src, tag int) message {
	s := trace.Active()
	if s == nil {
		m, _ := c.takeMsg(src, tag)
		return m
	}
	t0 := s.Now()
	m, how := c.takeMsg(src, tag)
	// Dur is the time this rank spent blocked, spinning included — the
	// per-rank wait profile that makes collective skew visible in the
	// exported timeline; the label says whether the wait went to sleep.
	s.Emit(trace.Event{Kind: trace.KindRecv, Rank: int32(c.rank), Worker: -1,
		Peer: int32(m.Src), Tag: int32(m.Tag), Start: t0, Dur: s.Now() - t0,
		Bytes: m.data.bytes(), Label: waitLabels[how]})
	return m
}

// waitHow is how a receive came by its message; waitLabels marks the KindRecv
// event with it ("recv", "recv:spin", "recv:park" in the exported timeline).
type waitHow uint8

const (
	waitNone waitHow = iota // it was already queued
	waitSpin                // it arrived while the receiver spun
	waitPark                // the receiver parked
)

var waitLabels = [...]string{"", "spin", "park"}

// takeMsg is the one receive loop: scan the mailbox, and wait (waitMsg) if
// nothing queued matches.
func (c *Comm) takeMsg(src, tag int) (message, waitHow) {
	c.jitter(jitterRecv)
	if p := c.f.plan; p != nil {
		if d := p.SlowRanks[c.rank]; d > 0 {
			time.Sleep(d)
		}
	}
	box := c.box
	box.mu.Lock()
	if c.back != nil {
		box.fileLocked(c.back)
		c.back = nil
	}
	m, ok := box.takeMatchLocked(src, tag, c.f.stats)
	how := waitNone
	if !ok {
		m, how = c.waitMsg(src, tag)
	}
	box.mu.Unlock()
	return m, how
}

// A receive that finds no match spins before it parks, when spinning can pay
// (DESIGN.md "Waiting for a message" has the measurements). Parking is dear
// in SPMD code: the peer whose send ends the wait readies the waiter into its
// own run queue and goes on computing, so the waiter runs only once an idle
// thread has been woken by futex on a halted core and has stolen it back —
// 75-130 us on this host, for a halo face that moves in 12 us. The spin reads
// the mailbox's arrivals counter with a Gosched between reads, so every other
// runnable goroutine runs first, and engages only where the code can see it
// pay:
//
//   - the rank has run for more than spinMinGap since it last had to wait for
//     a message, so by SPMD symmetry its peer is computing too and will not
//     park right after sending. Ranks in a chain of collectives or a
//     ping-pong fail this; for them parking is the cheaper, same-thread
//     hand-off (spinning regardless: 0.9 -> 1.8 us per round trip). A rank
//     that has never waited counts as computing;
//   - fewer than GOMAXPROCS-1 receivers are spinning in the whole process:
//     none on one core, and oversubscribed ranks park at once as before;
//   - the rank's last spin found its message. One that expired sits out the
//     next 1, 3, 7, ... 63 waits, doubling until a spin pays again: where the
//     two threads share a core (the kernel put them there, or GOMAXPROCS
//     exceeds the CPUs the process may use) the spinner only takes the
//     processor from the peer it waits for.
//
// spinBudget is the most a wrong guess costs. It must outlast the skew of two
// ranks in the same sweep (20 us bought a tenth of solve_large's gain, 100 us
// all of it) and the wake-up itself, or the rank that one park made late
// makes its peer's next spin expire in turn. Clock reads happen only on this
// path, never when the message was already queued.
const (
	spinBudget = 150 * time.Microsecond
	spinMinGap = 5 * time.Microsecond
)

// spinners counts the receivers spinning now, process-wide; peak and attempts
// are for the gate's tests.
var spinners struct {
	active   atomic.Int32
	peak     atomic.Int32
	attempts atomic.Int64
}

// clock is monotonic time at half the cost of time.Now (no wall-clock read).
func clock() time.Duration { return time.Since(clockBase) }

var clockBase = time.Now()

// spinBackoff is a rank's back-off after expired spins: miss counts its
// consecutive expired spins (at most 6), skip the waits it still sits out.
type spinBackoff struct{ miss, skip uint8 }

// decide is waitMsg's choice between spinning and parking, a pure function of
// the time since the rank last returned from a wait (gap), its back-off state
// and whether a spinner slot was free. A rank that is sitting out waits
// parks; otherwise it spins if the gap exceeds spinMinGap and it holds a
// slot. The state returned assumes the spin expires, so each expiry doubles
// the waits sat out (1, 3, 7, ... 63); a spin that finds its message resets
// the state to zero.
func (b spinBackoff) decide(gap time.Duration, slotFree bool) (spin bool, next spinBackoff) {
	switch {
	case b.skip > 0:
		b.skip--
		return false, b
	case gap <= spinMinGap || !slotFree:
		return false, b
	}
	if b.miss < 6 {
		b.miss++
	}
	b.skip = 1<<b.miss - 1
	return true, b
}

// trySpin claims a spinner slot, released with spinners.active.Add(-1).
func trySpin() bool {
	n := spinners.active.Add(1)
	if int(n) > runtime.GOMAXPROCS(0)-1 {
		spinners.active.Add(-1)
		return false
	}
	spinners.attempts.Add(1)
	for p := spinners.peak.Load(); n > p && !spinners.peak.CompareAndSwap(p, n); p = spinners.peak.Load() {
	}
	return true
}

// waitMsg is takeMsg's slow path: nothing queued matches (src, tag). Entered
// and left with the mailbox locked, it returns the match once it has arrived.
// It spins, then parks; before each park it releases logically delayed
// messages (fault plans only), panics FaultPeerFailed if the session has
// failed, and fails the session with FaultTimeout once its receive deadline
// has passed. A park that leaves every live rank of an in-process session
// parked fails it with FaultDeadlock instead of sleeping. fail wakes every
// parked receiver, and the deadline timer wakes this one, so a park never
// outlives the session or its deadline.
func (c *Comm) waitMsg(src, tag int) (m message, how waitHow) {
	box, ok := c.box, false
	now := clock()
	gap := now - c.lastWait
	spin, next := c.backoff.decide(gap, true)
	if spin && !trySpin() { // claim the slot only for a spin the gate allows
		spin, next = c.backoff.decide(gap, false)
	}
	c.backoff = next
	if spin {
		how = waitSpin
		// Read under the lock, after the scan that found nothing: an enqueue
		// that scan missed moves the counter past seen.
		seen := box.arrivals.Load()
		for deadline, expired := now+spinBudget, false; !ok && !expired; {
			box.mu.Unlock()
			for {
				runtime.Gosched()
				expired = clock() > deadline
				if expired || box.arrivals.Load() != seen {
					break
				}
			}
			box.mu.Lock()
			m, ok = box.takeMatchLocked(src, tag, c.f.stats)
			seen = box.arrivals.Load()
		}
		spinners.active.Add(-1)
		if ok {
			c.backoff = spinBackoff{}
		}
	}
	var deadline time.Duration
	for !ok {
		if box.flushDelayedLocked() {
			if m, ok = box.takeMatchLocked(src, tag, c.f.stats); ok {
				break
			}
		}
		if root := c.f.fs.err.Load(); root != nil {
			c.abortRecv(&FaultError{Kind: FaultPeerFailed, Rank: c.rank, Peer: src, Tag: tag, Seed: c.f.seed(), Cause: root}, false)
		}
		if d := c.f.recvTimeout; d > 0 {
			if deadline == 0 {
				deadline = clock() + d
				c.armDeadline(d)
			} else if clock() >= deadline {
				c.f.stats.addFault(func(fc *FaultCounts) { fc.Timeouts++ })
				c.abortRecv(&FaultError{Kind: FaultTimeout, Rank: c.rank, Peer: src, Tag: tag, Seed: c.f.seed()}, true)
			}
		}
		how = waitPark
		// A rank woken by a delivery was un-parked by it and parks anew; one
		// woken by the deadline timer or the failure latch is still parked.
		if box.parker == nil {
			box.parker, box.waitSrc, box.waitTag = c.f.sess, src, tag
			if c.f.sess.park() {
				box.mu.Unlock() // deadlock reads every mailbox, this one too
				fe := c.f.deadlock(c.rank, src, tag)
				box.mu.Lock()
				c.abortRecv(fe, true)
			}
		}
		box.cond.Wait()
		m, ok = box.takeMatchLocked(src, tag, c.f.stats)
	}
	box.unparkLocked()
	if deadline != 0 {
		c.deadline.Stop()
	}
	c.lastWait = clock() // for the next wait's gap test
	c.f.stats.recordWait(c.rank, how)
	return m, how
}

// armDeadline sets this rank's deadline timer to wake its mailbox in d.
func (c *Comm) armDeadline(d time.Duration) {
	if c.deadline == nil {
		c.deadline = time.AfterFunc(d, c.box.wake)
	} else {
		c.deadline.Reset(d)
	}
}

// abortRecv unwinds a waiting receive with fe: it un-parks the rank, drops
// the mailbox lock (fail takes every mailbox's lock to wake it), disarms the
// deadline timer, fails the session with fe if latch is set, and panics.
func (c *Comm) abortRecv(fe *FaultError, latch bool) {
	c.box.unparkLocked()
	c.box.mu.Unlock()
	if c.deadline != nil {
		c.deadline.Stop()
	}
	if latch {
		c.f.fs.fail(fe)
	}
	panic(fe)
}

// Probe reports whether a message matching (src, tag) is waiting, without
// receiving it. Under a fault plan, logically delayed messages also count as
// waiting (they are guaranteed to surface before any Recv can block).
// Test seam: the drained-queue oracle in the fuzz and chaos suites.
func (c *Comm) Probe(src, tag int) bool {
	box := c.box
	box.mu.Lock()
	defer box.mu.Unlock()
	match := func(m message) bool {
		return (src == AnySource || m.Src == src) && (tag == AnyTag || m.Tag == tag)
	}
	for _, m := range box.queue.live() {
		if match(m) && !box.seenLocked(m.Src, m.seq) {
			return true
		}
	}
	for _, h := range box.delayed {
		if match(h.m) && !box.seenLocked(h.m.Src, h.m.seq) {
			return true
		}
	}
	return false
}

// SendRecv sends buf to rank dst and replaces its contents with the message
// from rank src with the same tag, which must carry len(buf) values: MPI's
// Sendrecv_replace, in a deadlock-free order (sends are eager).
func (c *Comm) SendRecv(dst int, buf []float64, src, tag int) {
	Send(c, dst, tag, buf)
	recvInto(c, src, tag, buf)
}

// Stats returns a snapshot of this communicator's traffic statistics. On
// in-process transports the counters are shared by all ranks, so any rank's
// snapshot is the communicator-wide view; on a multi-process session each
// process accumulates only its own rank's sends — use GlobalStats for the
// aggregated matrix.
func (c *Comm) Stats() StatsSnapshot { return c.f.stats.snapshot() }

// ResetStats zeroes this communicator's traffic counters in one critical
// section. The reset is not collective and does not synchronize ranks: call
// it from a single rank between two Barriers to delimit a measurement
// region, otherwise sends still in flight on other ranks land on an
// unpredictable side of the reset. On a multi-process session it clears only
// the calling process's counters.
func (c *Comm) ResetStats() { c.f.stats.reset() }

// GlobalStats returns the communicator-wide traffic snapshot. On in-process
// transports it is exactly Stats; on a multi-process session it sums the
// per-process matrices with an Allreduce (which is itself counted as traffic
// by later snapshots, not this one). Collective on remote transports.
func GlobalStats(c *Comm) StatsSnapshot {
	snap := c.Stats()
	if !c.f.perProc {
		return snap
	}
	snap.Msgs = Allreduce(c, snap.Msgs, OpSum)
	snap.Bytes = Allreduce(c, snap.Bytes, OpSum)
	waits := Allreduce(c, []int64{snap.RecvParks, snap.RecvSpinHits}, OpSum)
	snap.RecvParks, snap.RecvSpinHits = waits[0], waits[1]
	return snap
}
