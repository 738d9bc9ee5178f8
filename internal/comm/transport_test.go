package comm_test

// Transport conformance and watchdog regression tests. The chaos and golden
// suites run over whichever transport ODINHPC_TRANSPORT selects; the tests
// here pin the tcp transport explicitly so a default `go test` still proves
// the socket path end to end, and pin the Config.RecvTimeout and typed
// transport-error contracts that only matter once ranks can genuinely fail.

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"odinhpc/internal/comm"
	"odinhpc/internal/comm/chaostest"
)

// Named tags (tagcheck requires constants).
const (
	tagUnsent  = 512 // never sent by anyone: bait for the Recv watchdog
	tagAwaited = 513 // what peers blocked on the stuck rank wait for
	tagDropped = 515 // payload subjected to the unsurvivable drop plan
	tagRing    = 516 // token-ring payload of the conformance kernel
)

// TestConfigRecvTimeoutWatchdog is the regression test for the plan-free
// watchdog: comm.Config.RecvTimeout alone — no FaultPlan — must arm the
// guarded Recv path, and a Recv that outlives the tightened bound must
// surface a typed FaultTimeout on every transport rather than hang. On tcp
// every rank waits; inproc sees that as a deadlock at once, so there rank 0
// stays outside comm until the deadline has fired, and the all-parked
// session must fail with FaultDeadlock instead.
func TestConfigRecvTimeoutWatchdog(t *testing.T) {
	for _, size := range []int{1, 2, 4} {
		cfg := comm.Config{Transport: "tcp", RecvTimeout: 300 * time.Millisecond}
		_, fe := watchdogRun(t, size, cfg, func(c *comm.Comm) error {
			comm.Recv[byte](c, comm.AnySource, tagUnsent)
			return nil
		})
		wantKind(t, fmt.Sprintf("tcp P=%d", size), fe, comm.FaultTimeout)

		cfg.Transport = "inproc"
		if size > 1 {
			out := newOutsideComm()
			_, fe = watchdogRun(t, size, cfg, func(c *comm.Comm) error {
				if c.Rank() == 0 {
					out.wait()
				} else {
					out.recv(c, comm.AnySource, tagUnsent)
				}
				return nil
			})
			wantKind(t, fmt.Sprintf("inproc P=%d, rank 0 outside comm", size), fe, comm.FaultTimeout)
		}
		_, fe = watchdogRun(t, size, cfg, func(c *comm.Comm) error {
			comm.Recv[byte](c, comm.AnySource, tagUnsent)
			return nil
		})
		wantKind(t, fmt.Sprintf("inproc P=%d, all parked", size), fe, comm.FaultDeadlock)
	}
}

// TestConfigRecvTimeoutWakesPeers checks the propagation half without a
// fault plan: the first expiry must wake every peer blocked on the stuck
// rank, each with a typed error, and the recorded timeout must be counted.
// The stuck rank stays outside comm, so the deadline fires and not the
// deadlock detector; once it parks too, an inproc session is deadlocked.
func TestConfigRecvTimeoutWakesPeers(t *testing.T) {
	const size = 4
	out := newOutsideComm()
	stats, fe := watchdogRun(t, size, comm.Config{RecvTimeout: 300 * time.Millisecond},
		func(c *comm.Comm) error {
			if c.Rank() == size-1 {
				out.wait()
			} else {
				out.recv(c, size-1, tagAwaited) // blocked on the stuck rank: must be woken
			}
			return nil
		})
	wantKind(t, "stuck rank outside comm", fe, comm.FaultTimeout)
	if stats.Faults.Timeouts < 1 {
		t.Fatalf("Timeouts counter = %d, want >= 1", stats.Faults.Timeouts)
	}

	_, fe = watchdogRun(t, size, comm.Config{Transport: "inproc", RecvTimeout: 300 * time.Millisecond},
		func(c *comm.Comm) error {
			if c.Rank() == size-1 {
				comm.Recv[byte](c, comm.AnySource, tagUnsent) // never sent
			} else {
				comm.Recv[byte](c, size-1, tagAwaited)
			}
			return nil
		})
	wantKind(t, "stuck rank parked", fe, comm.FaultDeadlock)
}

// runWatched runs body on size ranks under cfg and returns the session's
// stats and error, or a hang error once the chaostest watchdog passes.
func runWatched(size int, cfg comm.Config, body func(c *comm.Comm) error) (comm.StatsSnapshot, error) {
	type outcome struct {
		stats comm.StatsSnapshot
		err   error
	}
	done := make(chan outcome, 1)
	go func() {
		stats, err := comm.RunConfig(size, cfg, body)
		done <- outcome{stats: stats.Snapshot(), err: err}
	}()
	select {
	case out := <-done:
		return out.stats, out.err
	case <-time.After(chaostest.Watchdog):
		return comm.StatsSnapshot{}, fmt.Errorf("HANG: no completion within %v", chaostest.Watchdog)
	}
}

// watchdogRun is runWatched for a session that must fail typed: an error
// that is not a *FaultError, a hang included, fails the test.
func watchdogRun(t *testing.T, size int, cfg comm.Config, body func(c *comm.Comm) error) (comm.StatsSnapshot, *comm.FaultError) {
	t.Helper()
	stats, err := runWatched(size, cfg, body)
	var fe *comm.FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("P=%d: err = %v, want FaultError", size, err)
	}
	return stats, fe
}

// wantKind fails the test unless fe is of kind want.
func wantKind(t *testing.T, what string, fe *comm.FaultError, want comm.FaultKind) {
	t.Helper()
	if fe.Kind != want {
		t.Fatalf("%s: fault kind = %v (%v), want %v", what, fe.Kind, fe, want)
	}
}

// outsideComm sets up the deadline case of the watchdog tests. One rank
// stays out of comm — neither parked nor sending — until a peer's receive
// has unwound with the session's fault, so the receive deadline ends the
// session, not the deadlock detector, which counts that rank as live and
// not parked. The peers receive through recv.
type outsideComm struct {
	once    sync.Once
	aborted chan struct{}
}

func newOutsideComm() *outsideComm { return &outsideComm{aborted: make(chan struct{})} }

// recv is comm.Recv that releases the outside rank when the receive unwinds.
func (o *outsideComm) recv(c *comm.Comm, src, tag int) {
	defer func() {
		if p := recover(); p != nil {
			o.once.Do(func() { close(o.aborted) })
			panic(p)
		}
	}()
	comm.Recv[byte](c, src, tag)
}

// wait is the outside rank's body.
func (o *outsideComm) wait() { <-o.aborted }

// TestInjectedFaultIsNotTransportError pins the converse: an injected fault
// over the tcp transport is typed as its own kind and carries no
// TransportError — the wire did not fail, the plan did.
func TestInjectedFaultIsNotTransportError(t *testing.T) {
	plan := &comm.FaultPlan{Seed: 3, DropProb: 1, MaxRetries: 1}
	_, err := comm.RunConfig(2, comm.Config{Transport: "tcp", Faults: plan}, func(c *comm.Comm) error {
		if c.Rank() == 0 {
			comm.Send(c, 1, tagDropped, []float64{1})
		} else {
			comm.Recv[float64](c, 0, tagDropped)
		}
		return nil
	})
	var fe *comm.FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("err = %v, want FaultError", err)
	}
	if fe.Kind == comm.FaultTransport {
		t.Fatalf("injected drop reported as a transport failure: %v", err)
	}
	var te *comm.TransportError
	if errors.As(err, &te) {
		t.Fatalf("injected fault carries a TransportError: %+v", te)
	}
}

// TestTCPChaosConformance replays representative kernels under the full
// seeded fault-plan matrix with the transport pinned to tcp at P=2 and P=4:
// every run must reproduce the fault-free result bitwise or fail typed,
// exactly as over the in-process fabric.
func TestTCPChaosConformance(t *testing.T) {
	kernels := []chaostest.Kernel{
		{Name: "ring-sendrecv", Body: func(c *comm.Comm) (any, error) {
			right := (c.Rank() + 1) % c.Size()
			left := (c.Rank() - 1 + c.Size()) % c.Size()
			comm.Send(c, right, tagRing, []int{c.Rank(), 7})
			tok := comm.Recv[int](c, left, tagRing)
			c.Barrier()
			return tok, nil
		}},
		{Name: "allreduce-scan", Body: func(c *comm.Comm) (any, error) {
			in := []float64{float64(c.Rank()) + 0.5, 2}
			sum := comm.Allreduce(c, in, comm.OpSum)
			sc := comm.Scan(c, in, comm.OpSum)
			return []any{sum, sc}, nil
		}},
		{Name: "alltoall-split", Body: func(c *comm.Comm) (any, error) {
			parts := make([][]float64, c.Size())
			for i := range parts {
				parts[i] = []float64{float64(c.Rank()*10 + i)}
			}
			got := comm.Alltoall(c, parts)
			sub := c.Split(c.Rank()%2, c.Rank())
			if sub != nil {
				got = append(got, comm.Allreduce(sub, []float64{float64(c.Rank())}, comm.OpMax))
			}
			return got, nil
		}},
	}
	chaostest.RunOn(t, "tcp", []int{2, 4}, 20260808, kernels...)
}
