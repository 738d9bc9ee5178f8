package comm

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
)

// FaultCounts tallies the perturbations the fault-injection layer applied
// (and the failures it raised) on one communicator. All counters are zero
// without a fault plan, so experiment reports can always print them
// alongside traffic.
type FaultCounts struct {
	Delayed      int64 // messages logically delayed in the destination mailbox
	Dropped      int64 // delivery attempts dropped (each triggers a retransmit)
	Retries      int64 // retransmit attempts performed after drops
	DropFailures int64 // messages that exhausted their retransmit budget
	Duplicated   int64 // messages delivered twice
	Deduped      int64 // duplicate deliveries discarded by receivers
	// Reordered counts reorder rolls fired (an out-of-order insertion was
	// requested for the message), not actual queue splices: a roll only
	// results in a splice when the destination queue is non-empty at
	// delivery time and the chosen slot is not the tail, both of which
	// depend on goroutine scheduling. Counting rolls keeps the counter a
	// pure function of the plan seed, like every other FaultCounts field.
	Reordered int64
	Crashes   int64 // planned rank crashes fired
	Timeouts  int64 // Recv watchdog expiries
}

// Any reports whether any perturbation or failure was recorded.
func (fc FaultCounts) Any() bool {
	return fc != FaultCounts{}
}

func (fc FaultCounts) String() string {
	return fmt.Sprintf("delayed=%d dropped=%d retries=%d dropfail=%d dup=%d dedup=%d reorder=%d crash=%d timeout=%d",
		fc.Delayed, fc.Dropped, fc.Retries, fc.DropFailures, fc.Duplicated, fc.Deduped, fc.Reordered, fc.Crashes, fc.Timeouts)
}

// Stats accumulates per-pair message and byte counts for a communicator,
// plus the fault layer's perturbation counters. It is shared by all ranks
// and guarded by a mutex; the simulation favors accuracy over throughput
// here. Per-pair matrices count logical messages (one per Send call):
// retransmits and duplicates appear in the fault counters, not the traffic
// matrices, so golden matrices stay comparable across fault plans.
type Stats struct {
	mu     sync.Mutex
	size   int
	msgs   []int64 // size*size, row-major [src*size+dst]
	bytes  []int64
	faults FaultCounts
	waits  []waitCounts // per receiving rank
}

// waitCounts tallies one rank's receives that found nothing queued, by how
// they ended (indexed by waitHow); schedule-dependent, unlike the rest of
// Stats. It is bumped on the wake-up path, where the shared mutex cost the
// scalar allreduce 8%, so each rank adds to its own cache line.
type waitCounts struct {
	n [3]atomic.Int64
	_ [40]byte
}

func newStats(size int) *Stats {
	return &Stats{
		size:  size,
		msgs:  make([]int64, size*size),
		bytes: make([]int64, size*size),
		waits: make([]waitCounts, size),
	}
}

func (s *Stats) record(src, dst int, n int64) {
	s.mu.Lock()
	s.msgs[src*s.size+dst]++
	s.bytes[src*s.size+dst] += n
	s.mu.Unlock()
}

// recordWait counts one receive of rank that had to wait.
func (s *Stats) recordWait(rank int, how waitHow) { s.waits[rank].n[how].Add(1) }

// addFault applies one mutation to the fault counters under the lock, so
// fault accounting stays consistent with concurrent record/snapshot/reset.
func (s *Stats) addFault(mut func(*FaultCounts)) {
	s.mu.Lock()
	mut(&s.faults)
	s.mu.Unlock()
}

// reset zeroes every counter — traffic matrices and fault counters — in one
// critical section, so a concurrent record during an in-flight collective
// can never observe (or survive into) a half-cleared state.
func (s *Stats) reset() {
	s.mu.Lock()
	for i := range s.msgs {
		s.msgs[i] = 0
		s.bytes[i] = 0
	}
	s.faults = FaultCounts{}
	for i := range s.waits {
		s.waits[i].n[waitPark].Store(0)
		s.waits[i].n[waitSpin].Store(0)
	}
	s.mu.Unlock()
}

// Snapshot returns an immutable copy of the current counters.
func (s *Stats) Snapshot() StatsSnapshot { return s.snapshot() }

// snapshot copies every counter under a single acquisition of the lock:
// the returned snapshot is a consistent cut even while other ranks are
// mid-collective and still recording.
func (s *Stats) snapshot() StatsSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := StatsSnapshot{
		Size:   s.size,
		Msgs:   make([]int64, len(s.msgs)),
		Bytes:  make([]int64, len(s.bytes)),
		Faults: s.faults,
	}
	copy(snap.Msgs, s.msgs)
	copy(snap.Bytes, s.bytes)
	for i := range s.waits {
		snap.RecvParks += s.waits[i].n[waitPark].Load()
		snap.RecvSpinHits += s.waits[i].n[waitSpin].Load()
	}
	return snap
}

// StatsSnapshot is an immutable copy of communicator traffic counters.
type StatsSnapshot struct {
	Size   int
	Msgs   []int64 // [src*Size+dst]
	Bytes  []int64
	Faults FaultCounts

	// Of the receives that found no matching message queued, RecvParks put
	// their goroutine to sleep and RecvSpinHits got the message while still
	// spinning (waitMsg). Receives served from the queue count in neither.
	RecvParks    int64
	RecvSpinHits int64
}

// MsgCount returns the number of messages sent from src to dst.
// Test seam: read by the golden message matrices.
func (s StatsSnapshot) MsgCount(src, dst int) int64 { return s.Msgs[src*s.Size+dst] }

// ByteCount returns the number of payload bytes sent from src to dst.
// Test seam: read by the golden message matrices.
func (s StatsSnapshot) ByteCount(src, dst int) int64 { return s.Bytes[src*s.Size+dst] }

// TotalMsgs returns the total number of messages sent on the communicator.
func (s StatsSnapshot) TotalMsgs() int64 {
	var t int64
	for _, v := range s.Msgs {
		t += v
	}
	return t
}

// TotalBytes returns the total payload bytes sent on the communicator.
func (s StatsSnapshot) TotalBytes() int64 {
	var t int64
	for _, v := range s.Bytes {
		t += v
	}
	return t
}

// RankSentBytes returns total bytes sent by the given rank to anyone.
func (s StatsSnapshot) RankSentBytes(rank int) int64 {
	var t int64
	for dst := 0; dst < s.Size; dst++ {
		t += s.Bytes[rank*s.Size+dst]
	}
	return t
}

// RankRecvBytes returns total bytes received by the given rank from anyone.
func (s StatsSnapshot) RankRecvBytes(rank int) int64 {
	var t int64
	for src := 0; src < s.Size; src++ {
		t += s.Bytes[src*s.Size+rank]
	}
	return t
}

// MasterBytes returns bytes that pass through rank 0 in either direction —
// the quantity experiment E10 tracks to show the ODIN master process does not
// become a bottleneck.
func (s StatsSnapshot) MasterBytes() int64 {
	t := s.RankSentBytes(0) + s.RankRecvBytes(0)
	// Messages rank 0 sends itself were counted twice above.
	t -= 2 * s.Bytes[0]
	return t + s.Bytes[0]
}

// WorkerBytes returns bytes exchanged strictly between non-zero ranks — the
// direct worker-to-worker traffic of the paper's Fig. 1.
func (s StatsSnapshot) WorkerBytes() int64 {
	var t int64
	for src := 1; src < s.Size; src++ {
		for dst := 1; dst < s.Size; dst++ {
			t += s.Bytes[src*s.Size+dst]
		}
	}
	return t
}

// MsgMatrixString renders the per-pair message-count matrix, one row per
// source rank — the stable shape the golden collective tests diff against.
func (s StatsSnapshot) MsgMatrixString() string {
	var b strings.Builder
	fmt.Fprintf(&b, "messages (%d ranks):\n", s.Size)
	for src := 0; src < s.Size; src++ {
		fmt.Fprintf(&b, "  rank %2d:", src)
		for dst := 0; dst < s.Size; dst++ {
			fmt.Fprintf(&b, " %4d", s.Msgs[src*s.Size+dst])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// String renders the byte matrix, one row per source rank.
func (s StatsSnapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "traffic bytes (%d ranks):\n", s.Size)
	for src := 0; src < s.Size; src++ {
		fmt.Fprintf(&b, "  rank %2d:", src)
		for dst := 0; dst < s.Size; dst++ {
			fmt.Fprintf(&b, " %8d", s.Bytes[src*s.Size+dst])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CostModel assigns a modeled transfer time to a message of n bytes using
// the classic alpha-beta (latency + bandwidth) model.
type CostModel struct {
	LatencySec     float64 // alpha: fixed per-message cost
	SecondsPerByte float64 // beta: inverse bandwidth
}

// Time returns the modeled seconds to move n payload bytes.
func (m *CostModel) Time(n int64) float64 {
	return m.LatencySec + float64(n)*m.SecondsPerByte
}

// EthernetLike returns a cost model resembling 10GbE with ~20us latency,
// useful for what-if experiments on communication strategies.
func EthernetLike() *CostModel {
	return &CostModel{LatencySec: 20e-6, SecondsPerByte: 1.0 / 1.25e9}
}
