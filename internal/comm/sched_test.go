package comm_test

// Tests for the seeded scheduling-jitter hook (sched.go): jitter perturbs
// interleavings only, so results and traffic matrices must be identical to
// a jitter-free session, and the Recv watchdog must keep firing on schedule
// under pressure (the stress harness leans on exactly that pairing to turn
// schedule-dependent deadlocks into typed errors).

import (
	"testing"
	"time"

	"odinhpc/internal/comm"
)

// stressJitter is a hard-pressure plan for tests: yield at half of all hook
// points.
func stressJitter(seed int64) *comm.SchedJitter {
	return &comm.SchedJitter{Seed: seed, Prob: 0.5, MaxYields: 4}
}

// TestSchedJitterPreservesResults runs a collective-heavy kernel with and
// without jitter and demands bitwise-identical results and traffic
// matrices: pressure may reorder schedules, never outcomes.
func TestSchedJitterPreservesResults(t *testing.T) {
	kernel := func(c *comm.Comm) ([]float64, int) {
		in := make([]float64, 8)
		for i := range in {
			in[i] = float64(c.Rank()*17 + i)
		}
		sum := comm.Allreduce(c, in, comm.OpSum)
		parts := comm.Allgather(c, []float64{float64(c.Rank())})
		c.Barrier()
		return append(sum, float64(len(parts))), comm.AllreduceScalar(c, c.Rank(), comm.OpMax)
	}
	run := func(j *comm.SchedJitter) ([]float64, int, string) {
		var vec []float64
		var max int
		stats, err := comm.RunConfig(4, comm.Config{Jitter: j}, func(c *comm.Comm) error {
			v, m := kernel(c)
			if c.Rank() == 0 {
				vec, max = v, m
			}
			return nil
		})
		if err != nil {
			t.Fatalf("jitter=%v: %v", j, err)
		}
		return vec, max, stats.Snapshot().MsgMatrixString()
	}
	refVec, refMax, refMat := run(nil)
	for _, seed := range []int64{1, 7, 12345} {
		vec, max, mat := run(stressJitter(seed))
		if max != refMax {
			t.Fatalf("seed %d: scalar result %d != %d", seed, max, refMax)
		}
		for i := range refVec {
			if vec[i] != refVec[i] {
				t.Fatalf("seed %d: result[%d] = %v != %v", seed, i, vec[i], refVec[i])
			}
		}
		if mat != refMat {
			t.Fatalf("seed %d: jitter changed the traffic matrix\nwith:\n%swithout:\n%s", seed, mat, refMat)
		}
	}
}

// TestSchedJitterRecvTimeout pins the Config.RecvTimeout interaction: a
// jittered session keeps its configured receive deadline, and a rank blocked
// on a message nobody sends fails with a typed FaultTimeout — scheduling
// pressure must not starve the deadline timer or mask the deadline. This is
// the mechanism the stress harness uses to convert schedule-dependent
// deadlocks that one process cannot see (tcp, a rank outside comm) into
// replayable typed failures. How soon it fails is a wall-clock bound,
// TestSchedJitterRecvTimeoutPromptly (timing tag). With both ranks parked,
// an inproc session fails with FaultDeadlock instead, under jitter too.
func TestSchedJitterRecvTimeout(t *testing.T) {
	runJitterRecvTimeout(t)
	_, fe := watchdogRun(t, 2, comm.Config{
		Transport:   "inproc",
		RecvTimeout: 300 * time.Millisecond,
		Jitter:      stressJitter(99),
	}, func(c *comm.Comm) error {
		comm.Recv[byte](c, 1-c.Rank(), tagNever)
		return nil
	})
	wantKind(t, "both ranks parked", fe, comm.FaultDeadlock)
}

// runJitterRecvTimeout runs the jittered session whose rank 0 waits on a
// message rank 1 never sends, rank 1 staying outside comm until then; it
// checks that the deadline failed the session typed and returns how long it
// took.
func runJitterRecvTimeout(t *testing.T) time.Duration {
	t.Helper()
	start := time.Now()
	out := newOutsideComm()
	_, fe := watchdogRun(t, 2, comm.Config{
		RecvTimeout: 300 * time.Millisecond,
		Jitter:      stressJitter(99),
	}, func(c *comm.Comm) error {
		if c.Rank() == 1 {
			out.wait()
		} else {
			out.recv(c, 1, tagNever) // never sent: the watchdog must fire
		}
		return nil
	})
	wantKind(t, "rank 1 outside comm", fe, comm.FaultTimeout)
	return time.Since(start)
}

// TestSchedJitterUnderFaultPlan layers jitter on a perturbing fault plan:
// the chaos contract (bitwise-identical results or typed failure) must hold
// with both pressure sources active at once.
func TestSchedJitterUnderFaultPlan(t *testing.T) {
	plan := &comm.FaultPlan{Seed: 31, DelayProb: 0.3, DupProb: 0.2, ReorderProb: 0.3}
	var ref []float64
	_, err := comm.RunConfig(4, comm.Config{}, func(c *comm.Comm) error {
		out := comm.Allreduce(c, localVec(c, 16), comm.OpSum)
		if c.Rank() == 0 {
			ref = out
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var got []float64
	_, err = comm.RunConfig(4, comm.Config{Faults: plan, Jitter: stressJitter(5)}, func(c *comm.Comm) error {
		out := comm.Allreduce(c, localVec(c, 16), comm.OpSum)
		if c.Rank() == 0 {
			got = out
		}
		return nil
	})
	if err != nil {
		var fe *comm.FaultError
		if !errorsAs(err, &fe) {
			t.Fatalf("untyped error under faults+jitter: %v", err)
		}
		return
	}
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("faults+jitter diverged at %d: %v != %v", i, got[i], ref[i])
		}
	}
}
