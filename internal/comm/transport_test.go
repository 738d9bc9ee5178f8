package comm_test

// Transport conformance and watchdog regression tests. The chaos and golden
// suites run over whichever transport ODINHPC_TRANSPORT selects; the tests
// here pin the tcp transport explicitly so a default `go test` still proves
// the socket path end to end, and pin the Config.RecvTimeout and typed
// transport-error contracts that only matter once ranks can genuinely fail.

import (
	"errors"
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
// surface a typed FaultTimeout on every transport rather than hang.
func TestConfigRecvTimeoutWatchdog(t *testing.T) {
	for _, transport := range []string{"inproc", "tcp"} {
		for _, size := range []int{1, 2, 4} {
			done := make(chan error, 1)
			go func() {
				_, err := comm.RunConfig(size, comm.Config{Transport: transport, RecvTimeout: 300 * time.Millisecond},
					func(c *comm.Comm) error {
						//lint:allow p2pmatch Deliberate: tagUnsent is never sent, and the recv timeout surfacing a typed error is the assertion
						c.Recv(comm.AnySource, tagUnsent)
						return nil
					})
				done <- err
			}()
			select {
			case err := <-done:
				var fe *comm.FaultError
				if !errors.As(err, &fe) {
					t.Fatalf("%s P=%d: err = %v, want FaultError", transport, size, err)
				}
				if fe.Kind != comm.FaultTimeout {
					t.Fatalf("%s P=%d: fault kind = %v, want timeout", transport, size, fe.Kind)
				}
			case <-time.After(chaostest.Watchdog):
				t.Fatalf("%s P=%d: Config.RecvTimeout did not arm the watchdog — Recv hung", transport, size)
			}
		}
	}
}

// TestConfigRecvTimeoutWakesPeers checks the propagation half without a
// fault plan: the first expiry must wake every peer blocked on the stuck
// rank, each with a typed error, and the recorded timeout must be counted.
func TestConfigRecvTimeoutWakesPeers(t *testing.T) {
	const size = 4
	type outcome struct {
		stats comm.StatsSnapshot
		err   error
	}
	done := make(chan outcome, 1)
	go func() {
		stats, err := comm.RunConfig(size, comm.Config{RecvTimeout: 300 * time.Millisecond},
			func(c *comm.Comm) error {
				if c.Rank() == size-1 {
					//lint:allow p2pmatch Deliberate: the unmatched receives provoke the watchdog and abort latch; never-hang is the assertion
					c.Recv(comm.AnySource, tagUnsent) // never sent: watchdog fires here
				} else {
					c.Recv(size-1, tagAwaited) // blocked on the stuck rank: must be woken
				}
				return nil
			})
		done <- outcome{stats: stats.Snapshot(), err: err}
	}()
	select {
	case out := <-done:
		var fe *comm.FaultError
		if !errors.As(out.err, &fe) {
			t.Fatalf("err = %v, want FaultError", out.err)
		}
		if fe.Kind != comm.FaultTimeout {
			t.Fatalf("root fault kind = %v, want timeout", fe.Kind)
		}
		if out.stats.Faults.Timeouts < 1 {
			t.Fatalf("Timeouts counter = %d, want >= 1", out.stats.Faults.Timeouts)
		}
	case <-time.After(chaostest.Watchdog):
		t.Fatal("watchdog expiry stranded the peers instead of aborting the session")
	}
}

// TestInjectedFaultIsNotTransportError pins the converse: an injected fault
// over the tcp transport is typed as its own kind and carries no
// TransportError — the wire did not fail, the plan did.
func TestInjectedFaultIsNotTransportError(t *testing.T) {
	plan := &comm.FaultPlan{Seed: 3, DropProb: 1, MaxRetries: 1}
	_, err := comm.RunConfig(2, comm.Config{Transport: "tcp", Faults: plan}, func(c *comm.Comm) error {
		if c.Rank() == 0 {
			c.Send(1, tagDropped, []float64{1})
		} else {
			c.Recv(0, tagDropped)
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
		//lint:allow p2pmatch Conformance kernels are table literals invoked uniformly by every rank on each transport
		{Name: "ring-sendrecv", Body: func(c *comm.Comm) (any, error) {
			right := (c.Rank() + 1) % c.Size()
			left := (c.Rank() - 1 + c.Size()) % c.Size()
			tok := c.SendRecv(right, []int{c.Rank(), 7}, left, tagRing).([]int)
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
