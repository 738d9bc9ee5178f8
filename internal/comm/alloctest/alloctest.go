// Package alloctest counts the allocations of an SPMD kernel at steady
// state, across all ranks of a session — what testing.AllocsPerRun does for
// one goroutine. The allocation pins of comm, tpetra and solvers share it.
package alloctest

import (
	"runtime"
	"testing"

	"odinhpc/internal/comm"
	"odinhpc/internal/trace"
)

// Mallocs runs prep on every rank of a fresh p-rank session — prep builds
// the rank's operands and returns the call to measure — then, after two
// warm-up calls that fill queues and buffer pools, runs the call `runs`
// times on all ranks together and returns the heap objects the process
// allocated meanwhile. The count includes the two barriers that fence the
// measurement (a few objects per rank and round, the same for every call
// measured at the same p), so callers divide by runs, rounding down, or
// subtract two measurements. The call must be collective-safe: every rank
// runs it the same number of times.
//
// Like testing.AllocsPerRun it pins GOMAXPROCS to 1 so the schedule, and
// with it the count, repeats. The session is always in-process, whatever
// ODINHPC_TRANSPORT says: the pins are about the path ranks sharing an
// address space take. It skips under the race detector, which makes
// sync.Pool drop entries at random, and under an ODINHPC_TRACE session,
// whose spans allocate.
func Mallocs(tb testing.TB, p, runs int, prep func(c *comm.Comm) func()) uint64 {
	tb.Helper()
	mallocs, _ := Usage(tb, p, runs, prep)
	return mallocs
}

// Usage is Mallocs that also returns the bytes allocated meanwhile
// (MemStats.TotalAlloc), for pins on what a call allocates rather than on
// whether it allocates.
func Usage(tb testing.TB, p, runs int, prep func(c *comm.Comm) func()) (mallocs, bytes uint64) {
	tb.Helper()
	if RaceEnabled || trace.Active() != nil {
		tb.Skip("allocation counts are not exact under the race detector or a trace session")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	_, err := comm.RunConfig(p, comm.Config{Transport: "inproc"}, func(c *comm.Comm) error {
		call := prep(c)
		call()
		call()
		c.Barrier()
		if c.Rank() == 0 {
			runtime.ReadMemStats(&before)
		}
		c.Barrier()
		for i := 0; i < runs; i++ {
			call()
		}
		c.Barrier()
		if c.Rank() == 0 {
			runtime.ReadMemStats(&after)
		}
		return nil
	})
	if err != nil {
		tb.Fatal(err)
	}
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}
