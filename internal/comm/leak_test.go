package comm

// Shutdown hygiene for a long-lived server that creates and destroys warm
// rank groups for its whole process lifetime: repeated session cycles must
// not accumulate goroutines (reader/writer pairs, deadline timers' runtime
// machinery stays off the goroutine count, but a leaked conn goroutine or a
// wedged receiver would show up immediately).

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// settleGoroutines polls until the goroutine count drops to at most want,
// giving exiting goroutines (conn readers observing EOF, timer callbacks)
// a moment to unwind before declaring a leak.
func settleGoroutines(want int) int {
	var n int
	for i := 0; i < 50; i++ {
		runtime.GC()
		n = runtime.NumGoroutine()
		if n <= want {
			return n
		}
		time.Sleep(10 * time.Millisecond)
	}
	return n
}

// tagLeakPing is the point-to-point tag for the leak-test traffic.
const tagLeakPing = 7

// cycleBody is one warm-group lifetime: a session with a receive deadline
// doing enough point-to-point and collective traffic to arm every timer path.
func cycleBody(c *Comm) error {
	if c.Rank() == 0 {
		for p := 1; p < c.Size(); p++ {
			Send(c, p, tagLeakPing, []float64{1, 2, 3})
		}
	} else {
		Recv[float64](c, 0, tagLeakPing)
	}
	c.Barrier()
	_ = AllreduceScalar(c, float64(c.Rank()), OpSum)
	return nil
}

// TestWarmGroupCyclesLeakNoGoroutines runs repeated create/destroy cycles of
// inproc and tcp sessions with a receive deadline and requires the goroutine count to
// return to (near) its pre-cycle baseline: leaked conn goroutines or
// receivers parked on dead mailboxes accumulate per cycle and trip the
// bound immediately at 20 cycles.
func TestWarmGroupCyclesLeakNoGoroutines(t *testing.T) {
	const cycles = 20
	for _, tr := range []string{"inproc", "tcp"} {
		t.Run(tr, func(t *testing.T) {
			cfg := Config{Transport: tr, RecvTimeout: 5 * time.Second}
			// Warm-up cycle so lazily started runtime helpers (timer
			// goroutines, sysmon) are in the baseline, not in the delta.
			if _, err := RunConfig(2, cfg, cycleBody); err != nil {
				t.Fatalf("warm-up: %v", err)
			}
			base := settleGoroutines(0) // settles to the true floor
			for i := 0; i < cycles; i++ {
				for _, p := range []int{2, 4} {
					if _, err := RunConfig(p, cfg, cycleBody); err != nil {
						t.Fatalf("cycle %d P=%d: %v", i, p, err)
					}
				}
			}
			// Allow a little slack for runtime-internal goroutines that come
			// and go (GC workers), but nothing proportional to cycle count:
			// one leaked goroutine per cycle would sit 40+ over baseline.
			n := settleGoroutines(base + 3)
			if n > base+3 {
				t.Fatalf("goroutines grew from %d to %d over %d warm-group cycles", base, n, cycles)
			}
		})
	}
}

// TestRecvDeadlineTimerReuse pins the deadline-arming path: receives on a
// session with a deadline that each have to park (the sender is 35 ms late)
// still complete, and the session tears down clean. The one per-Comm
// deadline timer must survive many arm/wait/stop rounds across receives.
func TestRecvDeadlineTimerReuse(t *testing.T) {
	_, err := RunConfig(2, Config{RecvTimeout: 5 * time.Second}, func(c *Comm) error {
		const rounds = 8
		for r := 0; r < rounds; r++ {
			if c.Rank() == 0 {
				time.Sleep(35 * time.Millisecond) // the receiver parks with its deadline armed
				Send(c, 1, r, []float64{float64(r)})
			} else {
				vals := Recv[float64](c, 0, r)
				if len(vals) != 1 || vals[0] != float64(r) {
					return fmt.Errorf("round %d: bad payload %v", r, vals)
				}
			}
		}
		c.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
