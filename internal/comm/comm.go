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
	"fmt"
	"os"
	"reflect"
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

// Message is a received point-to-point message. Payload holds the data that
// was sent; slices are copied on send so the receiver may mutate freely.
type Message struct {
	Src     int
	Tag     int
	Payload any

	// f64 is the payload of a message sent on the typed path (sendFloats):
	// a []float64 that was never boxed, in a buffer that belongs to the
	// destination mailbox. It is non-nil exactly for such messages, even
	// empty ones. Only comm's collectives send them, on their own tags, and
	// their typed receives copy out of it and hand it back (recycle).
	f64 []float64

	// seq is the per-(src,dst) delivery sequence number, assigned only while
	// a fault plan is active; receivers use it to discard duplicated
	// deliveries. Zero means "no fault layer".
	seq uint64
}

// bytes is the payload size Stats and the trace account.
func (m *Message) bytes() int64 {
	if m.f64 != nil {
		return int64(8 * len(m.f64))
	}
	return payloadBytes(m.Payload)
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
	buf  []Message
	head int
}

func (q *msgQueue) live() []Message { return q.buf[q.head:] }

func (q *msgQueue) push(m Message) {
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
		q.buf[q.head] = Message{}
		if q.head++; q.head == len(q.buf) {
			q.buf, q.head = q.buf[:0], 0
		}
		return
	}
	i += q.head
	last := len(q.buf) - 1
	copy(q.buf[i:], q.buf[i+1:])
	q.buf[last] = Message{}
	q.buf = q.buf[:last]
}

// insert places m at live()[pos], moving the elements from pos on up one.
func (q *msgQueue) insert(pos int, m Message) {
	q.push(Message{})
	live := q.live()
	copy(live[pos+1:], live[pos:])
	live[pos] = m
}

// mailbox is the per-destination message queue. Receivers scan it for a
// matching (src, tag) pair and otherwise wait (waitMsg): spinning on arrivals,
// which every enqueue bumps before it releases mu (after the unlock the same
// add cost the scalar allreduce 15%: the receiver has the line by then), or
// parked on cond. free holds the typed path's payload buffers between
// messages. The delayed and seen fields belong to the fault-injection layer
// and stay nil/empty when no plan is active.
type mailbox struct {
	mu       sync.Mutex
	cond     *sync.Cond
	arrivals atomic.Uint64
	queue    msgQueue
	free     [][]float64
	delayed  []heldMsg
	seen     map[int]map[uint64]struct{}
}

func newMailbox() *mailbox {
	m := &mailbox{}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// takeMatchLocked removes and returns the oldest queued message matching
// (src, tag).
func (b *mailbox) takeMatchLocked(src, tag int) (Message, bool) {
	for i, m := range b.queue.live() {
		if (src == AnySource || m.Src == src) && (tag == AnyTag || m.Tag == tag) {
			b.queue.remove(i)
			return m, true
		}
	}
	return Message{}, false
}

// A mailbox keeps at most maxFreeBufs payload buffers, none longer than
// maxRecycleWords (64 KiB): enough for every peer of a halo exchange or an
// allreduce round to have a message in flight without allocating, and a hard
// bound (1 MiB) on what a long-lived communicator retains after a burst or
// one huge redistribution. Larger payloads are allocated per message.
const (
	maxFreeBufs     = 16
	maxRecycleWords = 8192
)

// takeBufLocked returns a buffer of n floats for a typed message to this
// mailbox: a recycled one when the most recently returned fits, else fresh.
func (b *mailbox) takeBufLocked(n int) []float64 {
	if k := len(b.free) - 1; k >= 0 {
		buf := b.free[k]
		b.free = b.free[:k]
		if cap(buf) >= n {
			return buf[:n]
		}
	}
	return make([]float64, n)
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
	// boxes is the typed path's direct view of the destination mailboxes,
	// indexed by rank; nil when ranks do not share an address space (remote
	// transports), which sends typed messages down the boxed route instead.
	boxes []*mailbox
	reg   *registry
	sess  *session
	stats *Stats
	plan  *FaultPlan
	fs    *failState
	// jitter is the seeded scheduling-pressure plan (sched.go); nil outside
	// stress runs.
	jitter *SchedJitter

	// recvTimeout is the armed watchdog bound for blocking Recvs on the
	// watchful path (Config.recvTimeout).
	recvTimeout time.Duration
	// watchful selects the guarded Recv path (abort-latch checks plus
	// watchdog). It is armed by a fault plan, an explicit Config.RecvTimeout,
	// or a remote transport — any situation where a peer can genuinely fail.
	watchful bool
	// remote mirrors Transport.Remote for the world transport: frames cross
	// a wire that can genuinely fail, so Recv stays watchful and faults are
	// broadcast to peers.
	remote bool
	// perProc marks a genuinely multi-process session (RunRemote): this
	// process's Stats hold only its own rank's sends and GlobalStats must
	// Allreduce to aggregate. Loopback tcp sessions are remote but not
	// perProc — all ranks share one Stats object.
	perProc bool
}

// seed returns the fault-plan seed for error stamping, or 0 without a plan
// (watchful sessions on remote transports raise FaultErrors too).
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
	// spinMiss counts this rank's consecutive expired spins and spinSkip the
	// waits it still sits out for them (waitMsg's back-off).
	spinMiss, spinSkip uint8

	// jitterSeq counts this rank's scheduling-jitter decision points; it
	// feeds the seed-pure yield hash (sched.go) and stays zero without a
	// SchedJitter.
	jitterSeq uint64
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
	// RecvTimeout bounds every blocking Recv of the session and arms the
	// watchful receive path even without a fault plan. Zero arms a 10-second
	// watchdog on sessions that are watchful anyway (a fault plan, a remote
	// transport) and leaves plain inproc sessions unguarded (the legacy
	// contract: without a plan, a buggy kernel may block forever).
	RecvTimeout time.Duration
	// Jitter injects seeded scheduling pressure at Send/Recv/collective
	// entry (sched.go). It perturbs goroutine interleavings only — results
	// and traffic matrices must be identical to a jitter-free run — and
	// does not by itself arm the watchful receive path; stress runs pair it
	// with RecvTimeout so a schedule-dependent deadlock surfaces as a typed
	// FaultTimeout instead of a hang.
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

// recvTimeout is the armed watchdog bound for a session: RecvTimeout, or
// 10 seconds when it is zero.
func (cfg Config) recvTimeout() time.Duration {
	if cfg.RecvTimeout > 0 {
		return cfg.RecvTimeout
	}
	return 10 * time.Second
}

// RunConfig is the fully configurable session entry point. On a watchful
// session (fault plan, explicit RecvTimeout, or a remote transport), any
// rank failure — planned crash, exhausted retransmits, watchdog timeout,
// wire failure, user error, or panic — aborts the whole session: peers
// blocked in Recv wake promptly and report a *FaultError instead of hanging,
// matching MPI's abort-the-job default but with a typed in-process error.
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
		ctx:         worldCtx,
		size:        size,
		owner:       owner,
		reg:         reg,
		sess:        newSession(),
		stats:       newStats(size),
		plan:        cfg.Faults,
		fs:          fs,
		jitter:      cfg.Jitter,
		recvTimeout: cfg.recvTimeout(),
	}
	trs := make([]Transport, size)
	switch name := cfg.transportName(); name {
	case "inproc":
		inproc := newInprocTransport(reg, worldCtx, size)
		f.tr, f.boxes = inproc, inproc.boxes
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
		f.remote = true
	default:
		return nil, fmt.Errorf("comm: unknown transport %q", name)
	}
	f.watchful = cfg.Faults != nil || cfg.RecvTimeout > 0 || f.remote
	errs := make([]error, size)
	var wg sync.WaitGroup
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c := &Comm{rank: rank, size: size, f: f, tr: trs[rank], box: reg.box(worldCtx, rank)}
			defer func() {
				if p := recover(); p != nil {
					if fe, ok := p.(*FaultError); ok {
						errs[rank] = fe
					} else {
						errs[rank] = fmt.Errorf("comm: rank %d panicked: %v", rank, p)
					}
					f.abortPeers(rank, errs[rank])
				}
			}()
			errs[rank] = fn(c)
			if errs[rank] != nil {
				f.abortPeers(rank, errs[rank])
			}
		}(r)
	}
	wg.Wait()
	if f.remote {
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
	return f.stats, firstError(errs)
}

// worldCtx is the context id of the world communicator; Split derives
// sub-communicator contexts from it deterministically (split.go).
const worldCtx uint64 = 0

// abortPeers propagates a rank failure to all peers when the session is
// watchful, so no rank can strand the others mid-collective. On plain
// inproc sessions the legacy behavior (peers may be left waiting by a buggy
// kernel) stands — the guarded path is strictly pay-for-use.
func (f *fabric) abortPeers(rank int, err error) {
	if !f.watchful {
		return
	}
	if fe, ok := err.(*FaultError); ok {
		f.fs.fail(fe)
		return
	}
	f.fs.fail(&FaultError{Kind: FaultPeerFailed, Rank: rank, Peer: -1, Seed: f.seed()})
}

// firstError prefers a root-cause failure over propagated FaultPeerFailed
// errors so callers see the originating fault, not a downstream echo. When
// every rank reports an echo — the root fault originated off-rank, e.g. in a
// transport reader goroutine — the echo's recorded cause is surfaced instead.
func firstError(errs []error) error {
	var propagated error
	for _, e := range errs {
		if e == nil {
			continue
		}
		if fe, ok := e.(*FaultError); ok && fe.Kind == FaultPeerFailed {
			if propagated == nil {
				propagated = e
			}
			continue
		}
		return e
	}
	if fe, ok := propagated.(*FaultError); ok && fe.Cause != nil {
		return fe.Cause
	}
	return propagated
}

// Send delivers data to rank dst with the given tag. Sends are eager and
// never block. Slice payloads are copied, mimicking an MPI buffer copy, so
// the sender may reuse its buffer immediately.
func (c *Comm) Send(dst, tag int, data any) {
	c.sendOwned(dst, tag, copyPayload(data))
}

// sendOwned is Send for a payload the caller gives up: a private copy it
// made itself (a collective's accumulator, a packed block) travels as it is
// instead of being copied a second time.
func (c *Comm) sendOwned(dst, tag int, data any) {
	c.account(dst, tag, payloadBytes(data))
	if c.f.plan != nil {
		c.faultySend(dst, tag, data)
		return
	}
	c.tr.Deliver(c.f.owner[dst], Frame{
		Ctx: c.f.ctx, Src: c.rank, Dst: dst, Tag: tag, Payload: data,
	})
}

// account is what every route of a logical send of n payload bytes shares:
// the jitter point, the Stats entry and the trace event.
func (c *Comm) account(dst, tag int, n int64) {
	if dst < 0 || dst >= c.size {
		panic(fmt.Sprintf("comm: Send to invalid rank %d (size %d)", dst, c.size))
	}
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

// sendFloats is the typed send under the float64 collectives: data goes to
// rank dst as one message that is never boxed into an interface and never
// gets a heap frame. The sender copies straight into a buffer owned by the
// destination mailbox; the receiver copies out and hands it back (recycle),
// so a steady exchange allocates nothing. Accounting is Send's. Under a fault
// plan or on a remote transport the block takes the boxed route instead:
// same bytes, same tag, same counts.
func (c *Comm) sendFloats(dst, tag int, data []float64) {
	c.sendTyped(dst, tag, len(data), data, nil)
}

// sendIndexed is sendFloats for the block src[idx[0]], src[idx[1]], ...,
// packed as it is sent. A nil idx is an empty block.
func (c *Comm) sendIndexed(dst, tag int, src []float64, idx []int) {
	c.sendTyped(dst, tag, len(idx), src, idx)
}

// sendTyped sends n floats: data[idx[k]] for k < n, or data[:n] when idx is
// nil.
func (c *Comm) sendTyped(dst, tag, n int, data []float64, idx []int) {
	if c.f.plan != nil || c.f.boxes == nil {
		buf := make([]float64, n)
		packFloats(buf, data, idx)
		c.sendOwned(dst, tag, buf)
		return
	}
	c.account(dst, tag, int64(8*n))
	box := c.f.boxes[dst]
	var buf []float64
	if n > maxRecycleWords {
		// Too large to pool: fill it before taking the lock, so that big
		// blocks bound for one rank are copied concurrently.
		buf = make([]float64, n)
		packFloats(buf, data, idx)
	}
	box.mu.Lock()
	if buf == nil {
		buf = box.takeBufLocked(n)
		packFloats(buf, data, idx)
	}
	box.queue.push(Message{Src: c.rank, Tag: tag, f64: buf})
	box.arrivals.Add(1)
	box.mu.Unlock()
	box.cond.Broadcast()
}

// packFloats fills buf from data[idx[k]], or from the front of data when idx
// is nil.
func packFloats(buf, data []float64, idx []int) {
	if idx == nil {
		copy(buf, data)
		return
	}
	for k, s := range idx {
		buf[k] = data[s]
	}
}

// recvIndexed is the typed receive: it blocks for the message matching
// (src, tag), which must carry exactly len(pos) floats, stores the k-th at
// out[pos[k]] and returns the payload buffer to this rank's mailbox.
func (c *Comm) recvIndexed(src, tag int, out []float64, pos []int) {
	m := c.recvMsg(src, tag)
	data := m.f64
	if data == nil {
		data = m.Payload.([]float64) // the boxed route: a fault plan or a remote transport
	}
	if len(data) != len(pos) {
		panic(fmt.Sprintf("comm: rank %d received %d values from rank %d, want %d", c.rank, len(data), m.Src, len(pos)))
	}
	for k, v := range data {
		out[pos[k]] = v
	}
	c.recycle(m)
}

// recycle hands a typed message's buffer back to this rank's mailbox once
// its contents have been copied out. Messages of the boxed route have none.
func (c *Comm) recycle(m Message) {
	if m.f64 == nil || cap(m.f64) > maxRecycleWords {
		return
	}
	c.box.mu.Lock()
	if len(c.box.free) < maxFreeBufs {
		c.box.free = append(c.box.free, m.f64)
	}
	c.box.mu.Unlock()
}

// Recv blocks until a message matching (src, tag) arrives and returns its
// payload. Use AnySource and/or AnyTag as wildcards.
func (c *Comm) Recv(src, tag int) any {
	return c.RecvMsg(src, tag).Payload
}

// RecvMsg is Recv but returns the full message envelope, exposing the actual
// source and tag (useful with wildcards).
func (c *Comm) RecvMsg(src, tag int) Message {
	return c.recvMsg(src, tag)
}

// recvMsg is the receive under every route: it blocks for the message
// matching (src, tag), takes it off the queue, and traces the wait.
func (c *Comm) recvMsg(src, tag int) Message {
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
		Bytes: m.bytes(), Label: waitLabels[how]})
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

func (c *Comm) takeMsg(src, tag int) (Message, waitHow) {
	c.jitter(jitterRecv)
	if c.f.watchful {
		return c.watchfulRecv(src, tag)
	}
	box := c.box
	box.mu.Lock()
	m, ok := box.takeMatchLocked(src, tag)
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
func (c *Comm) waitMsg(src, tag int) (m Message, how waitHow) {
	box, ok := c.box, false
	if c.spinSkip > 0 {
		c.spinSkip--
	} else if now := clock(); now-c.lastWait > spinMinGap && trySpin() {
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
			m, ok = box.takeMatchLocked(src, tag)
			seen = box.arrivals.Load()
		}
		spinners.active.Add(-1)
		if ok {
			c.spinMiss = 0
		} else if c.spinMiss < 6 {
			c.spinMiss++
		}
		c.spinSkip = 1<<c.spinMiss - 1
	}
	for !ok {
		how = waitPark
		box.cond.Wait()
		m, ok = box.takeMatchLocked(src, tag)
	}
	c.lastWait = clock() // for the next wait's gap test
	c.f.stats.recordWait(c.rank, how)
	return m, how
}

// Probe reports whether a message matching (src, tag) is waiting, without
// receiving it. Under a fault plan, logically delayed messages also count as
// waiting (they are guaranteed to surface before any Recv can block).
// Test seam: the drained-queue oracle in the fuzz and chaos suites.
func (c *Comm) Probe(src, tag int) bool {
	box := c.box
	box.mu.Lock()
	defer box.mu.Unlock()
	match := func(m Message) bool {
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

// SendRecv sends sendData to dst and receives a message from src with the
// same tag, in a deadlock-free order (sends are eager).
func (c *Comm) SendRecv(dst int, sendData any, src, tag int) any {
	c.Send(dst, tag, sendData)
	return c.Recv(src, tag)
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

// copyPayload copies a slice payload so that sender and receiver never alias
// memory, as on a real network; a nil slice arrives as an empty one. The
// []float64 and []int arms are the collectives' and assembly's payloads and
// copy without reflection; every other slice is copied by reflection, at the
// same two allocations. Non-slice values are returned as they are (they are
// copied by value anyway).
func copyPayload(data any) any {
	switch v := data.(type) {
	case []float64:
		out := make([]float64, len(v))
		copy(out, v)
		return out
	case []int:
		out := make([]int, len(v))
		copy(out, v)
		return out
	}
	rv := reflect.ValueOf(data)
	if rv.Kind() != reflect.Slice {
		return data
	}
	out := reflect.MakeSlice(rv.Type(), rv.Len(), rv.Len())
	reflect.Copy(out, rv)
	return out.Interface()
}
