package comm_test

// Chaos conformance of every collective and the point-to-point patterns:
// each kernel is replayed under the chaostest fault matrix and must either
// reproduce its fault-free result bitwise or fail with a typed FaultError.

import (
	"errors"
	"fmt"
	"sort"
	"testing"
	"time"

	"odinhpc/internal/comm"
	"odinhpc/internal/comm/chaostest"
)

var chaosSizes = []int{1, 2, 4}

// Named tags for the chaos scenarios; tagcheck (odinvet) requires message
// tags to be named constants.
const (
	tagToken = 77  // token-ring payload riding between barriers
	tagNever = 404 // never sent by anyone: bait for the Recv watchdog
	tagStuck = 7   // waiting on the stuck rank exercises the abort latch
	tagDrop  = 9   // payload subjected to the drop plan
)

func errorsAs(err error, target **comm.FaultError) bool { return errors.As(err, target) }

func chaosTimeout() <-chan time.Time { return time.After(chaostest.Watchdog) }

// localVec gives each rank a deterministic, rank-dependent payload.
func localVec(c *comm.Comm, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(c.Rank()*1000+i) + 0.5
	}
	return out
}

func TestChaosCollectives(t *testing.T) {
	kernels := []chaostest.Kernel{
		{Name: "barrier-ring", Body: func(c *comm.Comm) (any, error) {
			c.Barrier()
			c.Barrier()
			// Token ring on top of the barriers: rank r sends to r+1.
			right := (c.Rank() + 1) % c.Size()
			left := (c.Rank() - 1 + c.Size()) % c.Size()
			comm.Send(c, right, tagToken, []int{c.Rank()})
			token := comm.Recv[int](c, left, tagToken)
			c.Barrier()
			return token, nil
		}},
		{Name: "bcast", Body: func(c *comm.Comm) (any, error) {
			buf := make([]float64, 9)
			if c.Rank() == 0 {
				copy(buf, localVec(c, 9))
			}
			comm.Bcast(c, 0, buf)
			root := c.Size() - 1
			v := comm.BcastScalar(c, root, float64(c.Rank())*3.25)
			return append(buf, v), nil
		}},
		{Name: "reduce-allreduce", Body: func(c *comm.Comm) (any, error) {
			in := localVec(c, 7)
			sum := comm.Reduce(c, 0, in, comm.OpSum)
			all := comm.Allreduce(c, in, comm.OpMax)
			s := comm.AllreduceScalar(c, float64(c.Rank()+1), comm.OpProd)
			return []any{sum, all, s}, nil
		}},
		{Name: "gather-scatter", Body: func(c *comm.Comm) (any, error) {
			root := c.Size() / 2
			got := comm.Gather(c, root, localVec(c, 3+c.Rank()))
			parts := make([][]float64, c.Size())
			if c.Rank() == root {
				for r := range parts {
					parts[r] = []float64{float64(r) * 2.5, float64(r)}
				}
			}
			mine := comm.Scatter(c, root, parts)
			return []any{got, mine}, nil
		}},
		{Name: "allgather", Body: func(c *comm.Comm) (any, error) {
			return comm.AllgatherFlat(c, localVec(c, 2+c.Rank()%2)), nil
		}},
		{Name: "alltoall", Body: func(c *comm.Comm) (any, error) {
			parts := make([][]float64, c.Size())
			for d := range parts {
				parts[d] = []float64{float64(c.Rank()*100 + d)}
			}
			return comm.Alltoall(c, parts), nil
		}},
		{Name: "alltoall-indexed", Body: func(c *comm.Comm) (any, error) {
			// A gather plan's exchange: rank r sends element (r+d)%n of its
			// segment to rank d and files what rank s sent at position s;
			// odd ranks send nothing to rank 0 (empty blocks still travel).
			const n = 5
			src := localVec(c, n)
			sendIdx := make([][]int, c.Size())
			recvPos := make([][]int, c.Size())
			for r := range sendIdx {
				if !(r == 0 && c.Rank()%2 == 1) {
					sendIdx[r] = []int{(c.Rank() + r) % n}
				}
				if !(c.Rank() == 0 && r%2 == 1) {
					recvPos[r] = []int{r}
				}
			}
			out := make([]float64, c.Size())
			comm.AlltoallIndexed(c, src, sendIdx, out, recvPos)
			return out, nil
		}},
		{Name: "pooled-int-types", Body: func(c *comm.Comm) (any, error) {
			// Non-float64 elements through copy-out receives, which give
			// their buffers back to the free lists: a duplicate a plan
			// delivers after its buffer was reused must stay unread.
			var out []any
			for i := 0; i < 4; i++ {
				sum := []int{c.Rank() + i, -i}
				comm.AllreduceInto(c, sum, comm.OpSum)
				b := make([]int32, 3)
				if c.Rank() == 0 {
					b = []int32{int32(i), 7, -7}
				}
				comm.Bcast(c, 0, b)
				out = append(out, sum, b, comm.Scan(c, []int64{int64(c.Rank() + i)}, comm.OpSum))
			}
			return out, nil
		}},
		{Name: "scan", Body: func(c *comm.Comm) (any, error) {
			inc := comm.Scan(c, localVec(c, 5), comm.OpSum)
			exc := comm.ExclusiveScanScalar(c, float64(c.Rank()+2), comm.OpMax)
			return []any{inc, exc}, nil
		}},
		{Name: "anysource-drain", Body: func(c *comm.Comm) (any, error) {
			// Workers fire tagged messages at rank 0, which drains them with
			// wildcards; the result is canonicalized by source so only
			// loss/duplication — not arrival order — could change it.
			const tag = 5150
			if c.Rank() != 0 {
				for k := 0; k < 3; k++ {
					comm.Send(c, 0, tag, []int{c.Rank(), k})
				}
				return "sent", nil
			}
			n := 3 * (c.Size() - 1)
			got := make([][]int, 0, n)
			for i := 0; i < n; i++ {
				got = append(got, comm.Recv[int](c, comm.AnySource, tag))
			}
			sort.Slice(got, func(a, b int) bool {
				if got[a][0] != got[b][0] {
					return got[a][0] < got[b][0]
				}
				return got[a][1] < got[b][1]
			})
			if c.Probe(comm.AnySource, tag) {
				return nil, fmt.Errorf("stray message after drain")
			}
			return got, nil
		}},
		{Name: "split-subcomm", Body: func(c *comm.Comm) (any, error) {
			sub := c.Split(c.Rank()%2, -c.Rank())
			if sub == nil {
				return nil, fmt.Errorf("rank %d lost its subgroup", c.Rank())
			}
			v := comm.AllreduceScalar(sub, float64(c.Rank()+1), comm.OpSum)
			sub.Barrier()
			return []any{sub.Rank(), sub.Size(), v}, nil
		}},
	}
	chaostest.Run(t, chaosSizes, 42, kernels...)
}

// TestChaosCrashNeverHangs pins the crash-propagation contract directly:
// with a planned crash, every rank must come back with a FaultError whose
// chain reaches the original crash, not hang in the abandoned collective.
func TestChaosCrashNeverHangs(t *testing.T) {
	for _, size := range []int{2, 4, 8} {
		plan := &comm.FaultPlan{Seed: 7, CrashRank: size - 1, CrashAtColl: 1}
		done := make(chan error, 1)
		go func() {
			_, err := comm.RunConfig(size, comm.Config{Faults: plan}, func(c *comm.Comm) error {
				v := comm.AllreduceScalar(c, float64(c.Rank()), comm.OpSum)
				_ = v
				return nil
			})
			done <- err
		}()
		select {
		case err := <-done:
			var fe *comm.FaultError
			if !errorsAs(err, &fe) {
				t.Fatalf("P=%d: err = %v, want FaultError", size, err)
			}
			if fe.Kind != comm.FaultCrash {
				t.Fatalf("P=%d: root fault kind = %v, want crash", size, fe.Kind)
			}
		case <-chaosTimeout():
			t.Fatalf("P=%d: crash mid-collective hung the session", size)
		}
	}
}

// TestChaosRecvTimeoutWatchdog pins the last-resort Recv watchdog: a rank
// waiting on a message that is never sent must surface a typed FaultTimeout
// within the watchdog bound. This is also the regression test for a
// self-deadlock where faultyRecv latched the session failure while still
// holding its own mailbox lock (which fail() then tried to take), turning
// every timeout into the very hang the watchdog exists to prevent. Rank 0
// stays outside comm until then, so the deadline fires and not the deadlock
// detector; with every rank parked an inproc session fails with
// FaultDeadlock instead.
func TestChaosRecvTimeoutWatchdog(t *testing.T) {
	for _, size := range []int{1, 2, 4} {
		cfg := comm.Config{Faults: &comm.FaultPlan{Seed: 11}, RecvTimeout: 300 * time.Millisecond}
		if size > 1 {
			out := newOutsideComm()
			_, fe := watchdogRun(t, size, cfg, func(c *comm.Comm) error {
				if c.Rank() == 0 {
					out.wait()
					return nil
				}
				// tagNever is never sent by anyone: the first watchdog to
				// expire aborts the session and the abort latch wakes the
				// remaining ranks — a typed error everywhere, never a hang.
				out.recv(c, comm.AnySource, tagNever)
				return nil
			})
			wantKind(t, fmt.Sprintf("P=%d, rank 0 outside comm", size), fe, comm.FaultTimeout)
		}
		cfg.Transport = "inproc"
		_, fe := watchdogRun(t, size, cfg, func(c *comm.Comm) error {
			comm.Recv[byte](c, comm.AnySource, tagNever)
			return nil
		})
		wantKind(t, fmt.Sprintf("inproc P=%d, all parked", size), fe, comm.FaultDeadlock)
	}
}

// TestChaosRecvTimeoutWakesPeers checks the propagation half of the watchdog
// contract: when one rank's watchdog expires, the session abort must wake
// peers that are blocked waiting on messages from the stuck rank, and the
// root cause reported to the caller must be the originating timeout. The
// stuck rank stays outside comm; once it parks too, an inproc session is
// deadlocked.
func TestChaosRecvTimeoutWakesPeers(t *testing.T) {
	const size = 4
	cfg := comm.Config{Faults: &comm.FaultPlan{Seed: 5}, RecvTimeout: 300 * time.Millisecond}
	out := newOutsideComm()
	stats, fe := watchdogRun(t, size, cfg, func(c *comm.Comm) error {
		if c.Rank() == size-1 {
			out.wait()
		} else {
			out.recv(c, size-1, tagStuck) // blocked on the stuck rank: latch must wake it
		}
		return nil
	})
	wantKind(t, "stuck rank outside comm", fe, comm.FaultTimeout)
	if stats.Faults.Timeouts < 1 {
		t.Fatalf("Timeouts counter = %d, want >= 1 (%v)", stats.Faults.Timeouts, stats.Faults)
	}

	cfg.Transport = "inproc"
	_, fe = watchdogRun(t, size, cfg, func(c *comm.Comm) error {
		if c.Rank() == size-1 {
			comm.Recv[byte](c, comm.AnySource, tagNever)
		} else {
			comm.Recv[byte](c, size-1, tagStuck)
		}
		return nil
	})
	wantKind(t, "stuck rank parked", fe, comm.FaultDeadlock)
}

// TestChaosDropLimitSurfacesTyped drives the retransmit budget to
// exhaustion and checks the typed error reaches the caller.
func TestChaosDropLimitSurfacesTyped(t *testing.T) {
	plan := &comm.FaultPlan{Seed: 3, DropProb: 1.0, MaxRetries: 2}
	_, err := comm.RunConfig(2, comm.Config{Faults: plan}, func(c *comm.Comm) error {
		if c.Rank() == 0 {
			comm.Send(c, 1, tagDrop, []float64{1, 2, 3})
		} else {
			comm.Recv[float64](c, 0, tagDrop)
		}
		return nil
	})
	var fe *comm.FaultError
	if !errorsAs(err, &fe) {
		t.Fatalf("err = %v, want FaultError", err)
	}
	if fe.Kind != comm.FaultDropLimit {
		t.Fatalf("root fault kind = %v, want drop-limit", fe.Kind)
	}
}

// TestChaosSeedReproducible runs the same plan twice and demands identical
// outcomes and identical perturbation counters — the "reproducible from its
// seed" guarantee.
func TestChaosSeedReproducible(t *testing.T) {
	plan := func() *comm.FaultPlan {
		return &comm.FaultPlan{Seed: 1234, DelayProb: 0.4, DupProb: 0.3, ReorderProb: 0.4, DropProb: 0.2, MaxRetries: 8}
	}
	run := func() (comm.FaultCounts, []float64, error) {
		var out []float64
		stats, err := comm.RunConfig(4, comm.Config{Faults: plan()}, func(c *comm.Comm) error {
			res := comm.Allreduce(c, localVec(c, 16), comm.OpSum)
			if c.Rank() == 0 {
				out = res
			}
			c.Barrier()
			return nil
		})
		return stats.Snapshot().Faults, out, err
	}
	f1, r1, e1 := run()
	f2, r2, e2 := run()
	if (e1 == nil) != (e2 == nil) {
		t.Fatalf("same seed, different outcomes: %v vs %v", e1, e2)
	}
	if f1 != f2 {
		t.Fatalf("same seed, different perturbation counters:\n  %v\n  %v", f1, f2)
	}
	if e1 == nil {
		for i := range r1 {
			if r1[i] != r2[i] {
				t.Fatalf("same seed, different results at %d: %v vs %v", i, r1[i], r2[i])
			}
		}
	}
}
