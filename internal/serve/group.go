// Package serve is the multi-tenant solver service behind cmd/odinserve: a
// scheduler feeding concurrent solve and array-expression jobs onto a shared
// pool of warm rank groups — communicators created once at startup and
// reused across jobs, instead of paying a per-job comm.Run — with admission
// control (bounded queue) and per-tenant quotas in front.
//
// The layering leans on the concurrency contracts underneath: compiled
// tpetra plans and fusion programs are shared across requests (plan
// application holds no scratch of its own; program compilation is
// single-flight), while per-instance state that is genuinely single-threaded
// — a CrsMatrix's Apply scratch, a group's rank contexts — stays group-local
// and is serialized by the group's one-job-at-a-time loop.
package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"odinhpc/internal/comm"
	"odinhpc/internal/core"
	"odinhpc/internal/fusion"
)

// JobFunc is one job's per-rank body, executed by every rank of a warm
// group with the group's communicator and that rank's warm state. Rank 0's
// return value becomes the job result. The function must be collective-
// deterministic: every rank takes the same collective path for the same
// job, exactly as a comm.Run body would.
type JobFunc func(c *comm.Comm, st *RankState) (any, error)

// RankState is one rank's warm state, preserved across every job the group
// runs: the rank's core context plus matrix, array and expression-plan
// caches keyed by request fingerprint, so a repeated spec reuses its
// assembled matrix (the compiled GatherPlan inside it, its right-hand
// sides, x and the solver's work vectors) or its bound fusion plan instead
// of rebuilding per request. Every
// rank of a group sees the same job sequence, so the ranks' caches always
// hold the same keys.
type RankState struct {
	Ctx      *core.Context
	stats    *Stats
	answer   *answer // on rank 0, the running job's response storage
	matrices map[string]*warmMatrix
	arrays   map[arrayKey]*core.DistArray[float64]
	plans    map[planKey]*fusion.Plan
}

func newRankState(c *comm.Comm, stats *Stats) *RankState {
	return &RankState{
		Ctx:      core.NewContext(c),
		stats:    stats,
		matrices: make(map[string]*warmMatrix),
		arrays:   make(map[arrayKey]*core.DistArray[float64]),
		plans:    make(map[planKey]*fusion.Plan),
	}
}

// job is one admitted unit of work travelling scheduler → group → ranks,
// and the record its submitter waits on. The ranks' error slots are the
// group's: it runs one job at a time.
//
// Records are pooled (jobs). A submitter that reads the outcome itself —
// Do, the HTTP handlers — puts its record back once it has read it, which
// is after every rank, finish and the encoder are done with it: the ranks
// are done before finish runs, and finish's last act is done.Done. A
// Pending handed to a caller keeps its record, so what Wait returns is
// never overwritten.
type job struct {
	fn JobFunc

	wg     sync.WaitGroup // one Done per rank
	out    any            // rank 0's result, read after wg.Wait
	answer answer         // rank 0's response, when a built-in job answers into the record

	done    sync.WaitGroup // one Done, once the result fields are final
	err     error          // combined error, set before done.Done
	release func()         // returns the tenant's quota slot (idempotent)
}

// answer is the storage a record owns for rank 0's response, so that a
// built-in job answers without boxing a response per job: rank 0 writes
// one field through RankState.answer and returns a pointer to it.
type answer struct {
	expr  ExprResponse
	solve SolveResponse
}

var jobs = sync.Pool{New: func() any { return new(job) }}

// putJob clears a record whose outcome has been read and returns it to the
// pool.
func putJob(jb *job) {
	jb.fn, jb.out, jb.answer, jb.err, jb.release = nil, nil, answer{}, nil, nil
	jobs.Put(jb)
}

// detach returns out as a caller may keep it past putJob: a response rank 0
// wrote into the record is copied out of it.
func (jb *job) detach(out any) any {
	switch out {
	case &jb.answer.expr:
		r := jb.answer.expr
		return &r
	case &jb.answer.solve:
		r := jb.answer.solve
		return &r
	}
	return out
}

// fail resolves the job without running it (queue drained at shutdown).
func (jb *job) fail(err error) {
	jb.err = err
	if jb.release != nil {
		jb.release()
	}
	jb.done.Done()
}

// Pending is a submitted job's handle: the job record itself, so handing
// it out allocates nothing. A Pending Submit returns to a caller keeps its
// record for good.
type Pending job

// Wait blocks until the job resolves and returns its result. It may be
// called any number of times, from any goroutine.
func (p *Pending) Wait() (any, error) {
	p.done.Wait()
	return p.out, p.err
}

// group is one warm rank group: a persistent comm session whose rank
// goroutines loop over per-rank lanes, plus a feeder pulling from the
// scheduler's shared queue. Jobs run one at a time per group; concurrency
// comes from the pool of groups.
type group struct {
	id       int
	ranks    int
	cfg      comm.Config
	queue    <-chan *job
	quit     <-chan struct{}
	stats    *Stats
	restarts atomic.Int64
	errs     []error // the running job's per-rank errors (rank r writes errs[r] only)
}

// serve runs warm sessions until shutdown, recycling the session (fresh
// communicators, fresh rank state) if a job poisons it with a latched
// fault. The group-local state — matrices, arrays, bound expression plans —
// is rebuilt cold; what survives is process-wide: the compiled fusion
// programs a re-prepared plan binds to again.
func (g *group) serve() {
	for {
		lanes := make([]chan *job, g.ranks)
		for i := range lanes {
			lanes[i] = make(chan *job)
		}
		sessErr := make(chan error, 1)
		go func() {
			_, err := comm.RunConfig(g.ranks, g.cfg, func(c *comm.Comm) error {
				st := newRankState(c, g.stats)
				for jb := range lanes[c.Rank()] {
					g.runOne(c, st, jb)
				}
				return nil
			})
			sessErr <- err
		}()
		poisoned := g.feed(lanes)
		for _, ln := range lanes {
			close(ln)
		}
		<-sessErr
		if !poisoned {
			return
		}
		g.restarts.Add(1)
		g.stats.groupRestarts.Add(1)
	}
}

// feed broadcasts queued jobs to every rank lane, one job at a time, and
// waits for all ranks before resolving each. Returns true when the current
// session must be recycled.
func (g *group) feed(lanes []chan *job) bool {
	for {
		select {
		case <-g.quit:
			return false
		case jb := <-g.queue:
			jb.wg.Add(g.ranks)
			for _, ln := range lanes {
				ln <- jb
			}
			jb.wg.Wait()
			if g.finish(jb) {
				return true
			}
		}
	}
}

// finish combines the per-rank outcomes after every rank reported, clears
// the slots for the next job, releases the quota slot, and wakes the
// submitter. It reports whether the group's session latched a fault
// (poisoned) and must be recycled.
func (g *group) finish(jb *job) (poisoned bool) {
	if jb.err == nil {
		jb.err = comm.RootCause(g.errs)
	}
	for r, e := range g.errs {
		if e == nil {
			continue
		}
		g.errs[r] = nil
		var fe *comm.FaultError
		if errors.As(e, &fe) {
			poisoned = true
		}
	}
	if jb.release != nil {
		jb.release()
	}
	if jb.err != nil {
		g.stats.failed.Add(1)
	} else {
		g.stats.completed.Add(1)
	}
	jb.done.Done()
	return poisoned
}

// runOne executes one job on one rank, converting panics — including typed
// comm fault panics out of a wrecked collective — into per-rank errors so a
// bad job cannot take the rank loop (and with it the whole group) down.
// While the job runs, rank 0's RankState.answer points into the record.
func (g *group) runOne(c *comm.Comm, st *RankState, jb *job) {
	defer jb.wg.Done()
	if c.Rank() == 0 {
		st.answer = &jb.answer
		defer func() { st.answer = nil }()
	}
	defer func() {
		if r := recover(); r != nil {
			if err, ok := r.(error); ok {
				g.errs[c.Rank()] = fmt.Errorf("job panic on rank %d: %w", c.Rank(), err)
				return
			}
			g.errs[c.Rank()] = fmt.Errorf("job panic on rank %d: %v", c.Rank(), r)
		}
	}()
	out, err := jb.fn(c, st)
	if err != nil {
		g.errs[c.Rank()] = err
		return
	}
	if c.Rank() == 0 {
		jb.out = out
	}
}
