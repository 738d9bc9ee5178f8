package comm

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"
)

// This file implements the pluggable fault-injection layer of the comm
// fabric. A FaultPlan perturbs point-to-point traffic — delaying, reordering,
// duplicating, or dropping messages — slows individual ranks, and crashes a
// rank at a planned collective. Every decision is a pure function of the
// plan seed and the message coordinates (src, dst, tag, per-pair sequence
// number, attempt), so a run is reproducible from its seed regardless of
// goroutine scheduling.
//
// The layer is strictly pay-for-use: with a nil plan, Send and Recv take the
// original fast paths and no per-message state is allocated. With a plan
// whose probabilities are all zero, traffic (and therefore the Stats
// matrices) is identical to a plan-free run; only the watchdog and
// sequence-number bookkeeping are armed.
//
// Failure semantics follow MPI's default "abort the job" model, but with a
// typed error instead of a process kill: the first fault that cannot be
// masked (a crashed rank, an exhausted retransmit budget, an expired Recv
// watchdog) marks the whole session failed and wakes every blocked receiver,
// which then raises a *FaultError of kind FaultPeerFailed. Kernels running
// under a plan therefore either complete with results bitwise-identical to
// the fault-free run, or every rank returns promptly with a FaultError —
// never a hang and never a silent wrong answer.

// FaultKind classifies an injected failure.
type FaultKind int

// Fault kinds.
const (
	// FaultCrash is raised by the rank the plan crashes at a collective.
	FaultCrash FaultKind = iota
	// FaultDropLimit is raised by a sender whose message was dropped on
	// every attempt of its bounded retransmit budget.
	FaultDropLimit
	// FaultTimeout is raised by a receiver whose watchdog expired while
	// waiting for a matching message.
	FaultTimeout
	// FaultPeerFailed is raised by ranks observing that another rank
	// already failed; Cause holds the originating fault when known.
	FaultPeerFailed
	// FaultTransport is raised when the wire itself fails — a socket reset,
	// an unexpected EOF, a handshake mismatch. Wire holds the underlying
	// *TransportError, letting callers distinguish a real connection failure
	// from an injected fault with the same errors.As call.
	FaultTransport
)

func (k FaultKind) String() string {
	switch k {
	case FaultCrash:
		return "crash"
	case FaultDropLimit:
		return "drop-limit"
	case FaultTimeout:
		return "timeout"
	case FaultPeerFailed:
		return "peer-failed"
	case FaultTransport:
		return "transport"
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// FaultError is the typed error every session failure surfaces as — injected
// faults and, on remote transports, real wire failures alike. Rank is the
// rank raising the error, Peer the counterpart involved (message destination
// for drop limits, awaited source for timeouts, remote world rank for
// transport failures; -1 when not applicable). Cause carries the originating
// fault for FaultPeerFailed; Wire carries the socket-level error for
// FaultTransport.
type FaultError struct {
	Kind  FaultKind
	Rank  int
	Peer  int
	Tag   int
	Seed  int64
	Cause *FaultError
	Wire  *TransportError
}

func (e *FaultError) Error() string {
	switch e.Kind {
	case FaultCrash:
		return fmt.Sprintf("comm: fault(seed %d): rank %d crashed at planned collective", e.Seed, e.Rank)
	case FaultDropLimit:
		return fmt.Sprintf("comm: fault(seed %d): rank %d exhausted retransmits to rank %d (tag %d)", e.Seed, e.Rank, e.Peer, e.Tag)
	case FaultTimeout:
		return fmt.Sprintf("comm: fault(seed %d): rank %d timed out waiting for src %d (tag %d)", e.Seed, e.Rank, e.Peer, e.Tag)
	case FaultPeerFailed:
		if e.Cause != nil {
			return fmt.Sprintf("comm: fault(seed %d): rank %d aborted, peer failed: %v", e.Seed, e.Rank, e.Cause)
		}
		return fmt.Sprintf("comm: fault(seed %d): rank %d aborted, peer failed", e.Seed, e.Rank)
	case FaultTransport:
		if e.Wire != nil {
			return fmt.Sprintf("comm: rank %d transport failure: %v", e.Rank, e.Wire)
		}
		return fmt.Sprintf("comm: rank %d transport failure (peer %d)", e.Rank, e.Peer)
	}
	return fmt.Sprintf("comm: fault(seed %d): rank %d: %v", e.Seed, e.Rank, e.Kind)
}

// Unwrap exposes the originating fault of a propagated failure — or the
// socket-level TransportError of a wire failure — to errors.Is and errors.As
// chains.
func (e *FaultError) Unwrap() error {
	if e.Wire != nil {
		return e.Wire
	}
	if e.Cause != nil {
		return e.Cause
	}
	return nil
}

// FaultPlan is a seeded, deterministic perturbation schedule for one
// communicator session. The zero value (with any Seed) injects nothing. All
// probabilities are per message in [0, 1].
type FaultPlan struct {
	Seed int64 // root of every pseudo-random decision

	DropProb   float64 // probability each delivery attempt is dropped
	MaxRetries int     // retransmit budget per message (default 3 when DropProb > 0)

	DelayProb float64 // probability a message is logically delayed
	MaxDelay  int     // max deliveries a delayed message is held back (default 2)

	DupProb     float64 // probability a message is delivered twice (receiver dedups)
	ReorderProb float64 // probability a message is inserted out of order

	// SlowRanks injects a fixed sleep into every Send and Recv of the given
	// ranks, perturbing goroutine schedules without changing any result.
	SlowRanks map[int]time.Duration

	// CrashRank crashes at entry to its CrashAtColl-th collective call
	// (1-based). CrashAtColl == 0 disables the crash. The crash raises a
	// FaultError on the crashing rank and propagates FaultPeerFailed to all
	// peers instead of letting them hang mid-collective.
	CrashRank   int
	CrashAtColl int
}

func (p *FaultPlan) maxRetries() int {
	if p.MaxRetries > 0 {
		return p.MaxRetries
	}
	return 3
}

func (p *FaultPlan) maxDelay() int {
	if p.MaxDelay > 0 {
		return p.MaxDelay
	}
	return 2
}

// Active reports whether the plan can perturb anything at all. A non-active
// plan still routes traffic through the fault-aware paths but must reproduce
// fault-free behavior exactly (the pay-for-use contract the golden tests pin).
func (p *FaultPlan) Active() bool {
	return p != nil && (p.DropProb > 0 || p.DelayProb > 0 || p.DupProb > 0 ||
		p.ReorderProb > 0 || len(p.SlowRanks) > 0 || p.CrashAtColl > 0)
}

func (p *FaultPlan) validate(size int) error {
	for _, pr := range []struct {
		name string
		v    float64
	}{{"DropProb", p.DropProb}, {"DelayProb", p.DelayProb}, {"DupProb", p.DupProb}, {"ReorderProb", p.ReorderProb}} {
		if pr.v < 0 || pr.v > 1 {
			return fmt.Errorf("comm: FaultPlan.%s = %g out of [0,1]", pr.name, pr.v)
		}
	}
	if p.MaxRetries < 0 || p.MaxDelay < 0 || p.CrashAtColl < 0 {
		return fmt.Errorf("comm: FaultPlan retry/delay/crash counts must be non-negative")
	}
	if p.CrashAtColl > 0 && (p.CrashRank < 0 || p.CrashRank >= size) {
		return fmt.Errorf("comm: FaultPlan.CrashRank %d out of range [0,%d)", p.CrashRank, size)
	}
	return nil
}

func (p *FaultPlan) String() string {
	if p == nil {
		return "faults(none)"
	}
	var parts []string
	add := func(s string) { parts = append(parts, s) }
	if p.DropProb > 0 {
		add(fmt.Sprintf("drop=%g/retries=%d", p.DropProb, p.maxRetries()))
	}
	if p.DelayProb > 0 {
		add(fmt.Sprintf("delay=%g/max=%d", p.DelayProb, p.maxDelay()))
	}
	if p.DupProb > 0 {
		add(fmt.Sprintf("dup=%g", p.DupProb))
	}
	if p.ReorderProb > 0 {
		add(fmt.Sprintf("reorder=%g", p.ReorderProb))
	}
	for r, d := range p.SlowRanks {
		add(fmt.Sprintf("slow=%d:%v", r, d))
	}
	if p.CrashAtColl > 0 {
		add(fmt.Sprintf("crash=%d@%d", p.CrashRank, p.CrashAtColl))
	}
	if len(parts) == 0 {
		return fmt.Sprintf("faults(seed=%d, zero)", p.Seed)
	}
	return fmt.Sprintf("faults(seed=%d, %s)", p.Seed, strings.Join(parts, ", "))
}

// ParseFaultPlan builds a plan from a compact comma-separated spec, e.g.
// "seed=42,drop=0.1,retries=8,delay=0.3,maxdelay=3,dup=0.1,reorder=0.2,
// slow=1:100us,crash=2@3". Unknown keys are errors so typos in
// experiment scripts fail loudly.
func ParseFaultPlan(spec string) (*FaultPlan, error) {
	p := &FaultPlan{}
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return nil, fmt.Errorf("comm: fault spec field %q is not key=value", field)
		}
		var err error
		switch key {
		case "seed":
			p.Seed, err = strconv.ParseInt(val, 10, 64)
		case "drop":
			p.DropProb, err = strconv.ParseFloat(val, 64)
		case "retries":
			p.MaxRetries, err = strconv.Atoi(val)
		case "delay":
			p.DelayProb, err = strconv.ParseFloat(val, 64)
		case "maxdelay":
			p.MaxDelay, err = strconv.Atoi(val)
		case "dup":
			p.DupProb, err = strconv.ParseFloat(val, 64)
		case "reorder":
			p.ReorderProb, err = strconv.ParseFloat(val, 64)
		case "slow":
			rankStr, durStr, ok := strings.Cut(val, ":")
			if !ok {
				return nil, fmt.Errorf("comm: fault spec slow=%q is not rank:duration", val)
			}
			var rank int
			var d time.Duration
			if rank, err = strconv.Atoi(rankStr); err == nil {
				if d, err = time.ParseDuration(durStr); err == nil {
					if p.SlowRanks == nil {
						p.SlowRanks = make(map[int]time.Duration)
					}
					p.SlowRanks[rank] = d
				}
			}
		case "crash":
			rankStr, collStr, ok := strings.Cut(val, "@")
			if !ok {
				return nil, fmt.Errorf("comm: fault spec crash=%q is not rank@collective", val)
			}
			if p.CrashRank, err = strconv.Atoi(rankStr); err == nil {
				p.CrashAtColl, err = strconv.Atoi(collStr)
			}
		default:
			return nil, fmt.Errorf("comm: unknown fault spec key %q", key)
		}
		if err != nil {
			return nil, fmt.Errorf("comm: fault spec field %q: %v", field, err)
		}
	}
	return p, nil
}

// ---- deterministic decision hashing -----------------------------------

// Decision namespaces keep the drop, delay, dup, and reorder streams of one
// message independent of each other.
const (
	rollDrop uint64 = iota + 1
	rollDelay
	rollDup
	rollReorder
)

// mix64 is the splitmix64 finalizer, the usual cheap avalanche.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// roll derives the decision word for one (kind, message, attempt) tuple.
// Every input that identifies the message deterministically — and nothing
// schedule-dependent — feeds the hash.
func (p *FaultPlan) roll(kind uint64, src, dst, tag int, seq uint64, attempt int) uint64 {
	h := uint64(p.Seed) ^ 0x9e3779b97f4a7c15
	for _, v := range [...]uint64{kind, uint64(src) + 1, uint64(dst) + 1, uint64(int64(tag)), seq + 1, uint64(attempt) + 1} {
		h = mix64(h ^ v)
	}
	return h
}

// chance maps a decision word onto a probability threshold.
func chance(p float64, h uint64) bool {
	if p <= 0 {
		return false
	}
	return float64(h>>11)/float64(1<<53) < p
}

// ---- session failure propagation --------------------------------------

// failState is the session-wide abort latch shared by a communicator and
// every sub-communicator Split derives from it. The first fault wins; fail
// wakes every receiver that might be blocked on any mailbox in the process's
// registry so a crash can never strand a peer mid-collective. On a
// multi-process transport each process has its own latch; the notify hook
// broadcasts the first locally originated fault to peer processes, whose
// latches are then set through failRemote (which skips the hook so a fault
// never echoes back and forth across the wire).
type failState struct {
	mu     sync.Mutex
	err    *FaultError
	reg    *registry
	notify func(*FaultError)
}

func newFailState(reg *registry) *failState { return &failState{reg: reg} }

// setNotify installs a remote transport's abort broadcaster. It fires at
// most once, for the first locally originated fault.
func (fs *failState) setNotify(fn func(*FaultError)) {
	fs.mu.Lock()
	fs.notify = fn
	fs.mu.Unlock()
}

// fail records the first fault and wakes all blocked receivers. Later faults
// keep the original cause so the root error survives propagation races.
func (fs *failState) fail(e *FaultError) { fs.failWith(e, true) }

// failRemote latches a fault learned from a peer process without re-running
// the notify hook.
func (fs *failState) failRemote(e *FaultError) { fs.failWith(e, false) }

func (fs *failState) failWith(e *FaultError, local bool) {
	fs.mu.Lock()
	first := fs.err == nil
	if first {
		fs.err = e
	}
	notify := fs.notify
	fs.mu.Unlock()
	if first && local && notify != nil {
		notify(e)
	}
	for _, b := range fs.reg.all() {
		// Taking the lock before broadcasting guarantees a receiver that
		// checked failure() and is entering Wait has already registered.
		b.mu.Lock()
		b.mu.Unlock() //nolint:staticcheck // empty critical section is the wakeup barrier
		b.cond.Broadcast()
	}
}

func (fs *failState) failure() *FaultError {
	fs.mu.Lock()
	e := fs.err
	fs.mu.Unlock()
	return e
}

// ---- faulty send / recv paths -----------------------------------------

// heldMsg is a logically delayed message: hold counts how many further
// deliveries to the mailbox it sits out before becoming visible.
type heldMsg struct {
	m    Message
	hold int
}

// faultySend runs the Send fault pipeline: slowdown, bounded drop/retry,
// then delivery with optional delay, duplication, and reordering. Traffic
// stats for the logical message were already recorded by Send; this path
// only adds perturbation accounting.
//
// Every decision is made on the sending side and carried in the frame, so
// the pipeline is identical on every transport: a dropped frame is simply
// never handed to Deliver, a duplicate is handed twice, and the hold/reorder
// words travel with the frame for the destination mailbox to apply. The
// payload is already the frame's own (sendOwned).
func (c *Comm) faultySend(dst, tag int, data any) {
	p := c.f.plan
	if d := p.SlowRanks[c.rank]; d > 0 {
		time.Sleep(d)
	}
	if c.sendSeq == nil {
		c.sendSeq = make([]uint64, c.size)
	}
	c.sendSeq[dst]++
	seq := c.sendSeq[dst]

	// Bounded retransmit: each attempt rolls independently. A message that
	// is dropped on every attempt exhausts the link and aborts the session.
	attempt := 0
	for chance(p.DropProb, p.roll(rollDrop, c.rank, dst, tag, seq, attempt)) {
		c.f.stats.addFault(func(fc *FaultCounts) { fc.Dropped++ })
		attempt++
		if attempt > p.maxRetries() {
			ferr := &FaultError{Kind: FaultDropLimit, Rank: c.rank, Peer: dst, Tag: tag, Seed: p.Seed}
			c.f.stats.addFault(func(fc *FaultCounts) { fc.DropFailures++ })
			c.f.fs.fail(ferr)
			panic(ferr)
		}
	}
	if attempt > 0 {
		c.f.stats.addFault(func(fc *FaultCounts) { fc.Retries += int64(attempt) })
	}

	fr := Frame{Ctx: c.f.ctx, Src: c.rank, Dst: dst, Tag: tag, Seq: seq, Payload: data}
	if chance(p.DelayProb, p.roll(rollDelay, c.rank, dst, tag, seq, 0)) {
		fr.Hold = 1 + int(p.roll(rollDelay, c.rank, dst, tag, seq, 1)%uint64(p.maxDelay()))
		c.f.stats.addFault(func(fc *FaultCounts) { fc.Delayed++ })
	}
	if chance(p.ReorderProb, p.roll(rollReorder, c.rank, dst, tag, seq, 0)) {
		fr.Reorder = p.roll(rollReorder, c.rank, dst, tag, seq, 1)
		// Reordered tallies the roll, not the eventual splice: whether
		// deliverFault actually inserts before an existing entry depends on
		// queue occupancy at delivery time, which is schedule-dependent,
		// and FaultCounts must stay reproducible from the seed alone.
		c.f.stats.addFault(func(fc *FaultCounts) { fc.Reordered++ })
	}
	wireDst := c.f.owner[dst]
	c.tr.Deliver(wireDst, fr)
	if chance(p.DupProb, p.roll(rollDup, c.rank, dst, tag, seq, 0)) {
		// The duplicate shares the (already copied) payload: exactly one of
		// the two copies is ever handed to the receiver, the other is
		// discarded unread by seq dedup. The duplicate frame carries no
		// hold/reorder so it lands immediately, like a retransmit would.
		fr.Hold, fr.Reorder = 0, 0
		c.tr.Deliver(wireDst, fr)
		c.f.stats.addFault(func(fc *FaultCounts) { fc.Duplicated++ })
	}
}

// deliverFault enqueues under the fault regime: delayed messages age by one
// on every later delivery, reordered messages splice into the queue at a
// seed-derived position instead of the tail.
//
// One invariant is sacred: MPI's non-overtaking guarantee. Messages from
// one source must stay matchable in send order, because correct programs
// (halo exchanges reusing a tag, successive collectives) depend on it.
// Perturbations therefore only shuffle CROSS-source interleaving, timing,
// and loss: a reordered message never jumps ahead of an earlier message
// from its own source, and an immediate delivery first releases any held
// messages from the same source.
func (b *mailbox) deliverFault(m Message, hold int, reorder uint64) {
	b.mu.Lock()
	b.tickDelayedLocked()
	switch {
	case hold > 0:
		b.delayed = append(b.delayed, heldMsg{m: m, hold: hold})
	default:
		b.releaseHeldFromLocked(m.Src)
		if live := b.queue.live(); reorder != 0 && len(live) > 0 {
			// Insert anywhere after the last queued message from this source.
			base := 0
			for i, q := range live {
				if q.Src == m.Src {
					base = i + 1
				}
			}
			b.queue.insert(base+int(reorder%uint64(len(live)-base+1)), m)
		} else {
			b.queue.push(m)
		}
	}
	b.arrivals.Add(1)
	b.mu.Unlock()
	b.cond.Broadcast()
}

// tickDelayedLocked ages every held message by one delivery and releases the
// expired ones — except that a message stays held while an earlier message
// from the same source is still held, preserving per-source order.
func (b *mailbox) tickDelayedLocked() {
	for i := range b.delayed {
		b.delayed[i].hold--
	}
	for i := 0; i < len(b.delayed); {
		e := b.delayed[i]
		blocked := false
		for j := 0; j < i; j++ {
			if b.delayed[j].m.Src == e.m.Src {
				blocked = true
				break
			}
		}
		if e.hold <= 0 && !blocked {
			b.queue.push(e.m)
			b.delayed = append(b.delayed[:i], b.delayed[i+1:]...)
			i = 0 // a release may unblock a successor from the same source
		} else {
			i++
		}
	}
}

// releaseHeldFromLocked flushes every held message from one source, in
// arrival order, ahead of an imminent same-source delivery.
func (b *mailbox) releaseHeldFromLocked(src int) {
	for i := 0; i < len(b.delayed); {
		if b.delayed[i].m.Src == src {
			b.queue.push(b.delayed[i].m)
			b.delayed = append(b.delayed[:i], b.delayed[i+1:]...)
		} else {
			i++
		}
	}
}

// flushDelayedLocked releases every held message; a receiver about to block
// calls it so a logical delay perturbs order but can never stall progress.
func (b *mailbox) flushDelayedLocked() bool {
	if len(b.delayed) == 0 {
		return false
	}
	for _, h := range b.delayed {
		b.queue.push(h.m)
	}
	b.delayed = b.delayed[:0]
	return true
}

// takeFaultMatchLocked scans for a matching message, discarding duplicate
// deliveries (same src and sequence number) as it goes.
func (b *mailbox) takeFaultMatchLocked(src, tag int, st *Stats) (Message, bool) {
	for i := 0; i < len(b.queue.live()); {
		m := b.queue.live()[i]
		if (src == AnySource || m.Src == src) && (tag == AnyTag || m.Tag == tag) {
			b.queue.remove(i)
			if m.seq != 0 {
				if b.seenLocked(m.Src, m.seq) {
					st.addFault(func(fc *FaultCounts) { fc.Deduped++ })
					continue // duplicate: discard unread, keep scanning
				}
				b.markSeenLocked(m.Src, m.seq)
			}
			return m, true
		}
		i++
	}
	return Message{}, false
}

func (b *mailbox) seenLocked(src int, seq uint64) bool {
	if b.seen == nil {
		return false
	}
	_, ok := b.seen[src][seq]
	return ok
}

func (b *mailbox) markSeenLocked(src int, seq uint64) {
	if b.seen == nil {
		b.seen = make(map[int]map[uint64]struct{})
	}
	if b.seen[src] == nil {
		b.seen[src] = make(map[uint64]struct{})
	}
	b.seen[src][seq] = struct{}{}
}

// watchfulRecv is takeMsg on a guarded session — a fault plan, an explicit
// Config.RecvTimeout, or a remote transport. It drains matching
// (deduplicated) messages, flushes logical delays before blocking, aborts
// promptly when the session failed, and arms a watchdog so no schedule (and
// no dead peer process) can hang a receiver. It parks at once — a loop that
// polls every 10ms is not waitMsg's case — and counts a park per receive.
func (c *Comm) watchfulRecv(src, tag int) (Message, waitHow) {
	if p := c.f.plan; p != nil {
		if d := p.SlowRanks[c.rank]; d > 0 {
			time.Sleep(d)
		}
	}
	box := c.box
	deadline := time.Now().Add(c.f.recvTimeout)
	// One watchdog timer serves every wait of this Recv, re-armed per
	// iteration; a long-lived server polls these 10ms waits constantly, so
	// allocating a fresh timer per iteration would churn the timer heap. The
	// deferred Stop (registered after the unlock defer, so it runs first)
	// keeps a timer from outliving its Recv on every exit path, normal or
	// panicking.
	var wake *time.Timer
	how := waitNone
	box.mu.Lock()
	defer box.mu.Unlock()
	defer func() {
		if wake != nil {
			wake.Stop()
		}
	}()
	for {
		if m, ok := box.takeFaultMatchLocked(src, tag, c.f.stats); ok {
			if how == waitPark {
				c.f.stats.recordWait(c.rank, how)
			}
			return m, how
		}
		if box.flushDelayedLocked() {
			continue
		}
		if root := c.f.fs.failure(); root != nil {
			panic(&FaultError{Kind: FaultPeerFailed, Rank: c.rank, Peer: src, Tag: tag, Seed: c.f.seed(), Cause: root})
		}
		if time.Now().After(deadline) {
			ferr := &FaultError{Kind: FaultTimeout, Rank: c.rank, Peer: src, Tag: tag, Seed: c.f.seed()}
			c.f.stats.addFault(func(fc *FaultCounts) { fc.Timeouts++ })
			// fail locks every registered mailbox — including this rank's
			// own — as its wakeup barrier, so the mailbox lock must be
			// dropped first or the watchdog self-deadlocks. The relock keeps
			// the deferred unlock balanced while the panic unwinds.
			box.mu.Unlock()
			c.f.fs.fail(ferr)
			box.mu.Lock()
			panic(ferr)
		}
		how = waitPark
		wake = waitWithWakeup(box, wake, 10*time.Millisecond)
	}
}

// waitWithWakeup blocks on the mailbox condition for at most d. The timer
// takes the mailbox lock before broadcasting, which serializes it after the
// caller's cond.Wait registration and rules out a missed wakeup. The caller
// threads one timer through successive waits (nil on the first): re-arming
// beats allocating per 10ms poll, and a late re-fire after Reset is harmless
// — the broadcast is idempotent and waiters re-check their conditions.
func waitWithWakeup(box *mailbox, t *time.Timer, d time.Duration) *time.Timer {
	if t == nil {
		t = time.AfterFunc(d, func() {
			box.mu.Lock()
			box.mu.Unlock() //nolint:staticcheck // empty critical section is the wakeup barrier
			box.cond.Broadcast()
		})
	} else {
		t.Reset(d)
	}
	box.cond.Wait()
	t.Stop()
	return t
}

// crashCheck fires the planned rank crash at entry to a collective: the
// crashing rank records the fault, aborts the session (waking all peers),
// and unwinds with a typed error.
func (c *Comm) crashCheck() {
	p := c.f.plan
	if p == nil || p.CrashAtColl == 0 || c.rank != p.CrashRank || c.collSeq != p.CrashAtColl {
		return
	}
	ferr := &FaultError{Kind: FaultCrash, Rank: c.rank, Peer: -1, Seed: p.Seed}
	c.f.stats.addFault(func(fc *FaultCounts) { fc.Crashes++ })
	c.f.fs.fail(ferr)
	panic(ferr)
}
