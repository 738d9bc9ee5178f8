package serve

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"odinhpc/internal/comm"
	"odinhpc/internal/fusion"
	"odinhpc/internal/seamless"
	"odinhpc/internal/seamless/vm"
	"odinhpc/internal/tpetra"
)

// mixedJob returns the i-th job of the standard mixed workload: two solve
// specs (CG and BiCGSTAB over different generators) and two expression
// shapes, cycled.
func mixedJob(i int) (string, JobFunc, func(any) error) {
	switch i % 4 {
	case 0:
		req := &SolveRequest{Kind: "laplace1d", N: 64, Solver: "cg"}
		if err := req.Validate(); err != nil {
			panic(err)
		}
		return "solve/laplace1d", req.Job(), func(out any) error {
			res, ok := out.(*SolveResponse)
			if !ok || !res.Converged || res.XNorm <= 0 {
				return fmt.Errorf("bad laplace1d result %+v", out)
			}
			return nil
		}
	case 1:
		req := &SolveRequest{Kind: "tridiag", N: 96, Solver: "bicgstab"}
		if err := req.Validate(); err != nil {
			panic(err)
		}
		return "solve/tridiag", req.Job(), func(out any) error {
			res, ok := out.(*SolveResponse)
			if !ok || !res.Converged {
				return fmt.Errorf("bad tridiag result %+v", out)
			}
			return nil
		}
	case 2:
		req := &ExprRequest{Expr: "x*y + sqrt(x)", N: 512}
		if err := req.Validate(); err != nil {
			panic(err)
		}
		want := exprReference(req)
		return "expr/mul-add-sqrt", req.Job(), func(out any) error {
			return checkExpr(out, want)
		}
	default:
		req := &ExprRequest{Expr: "hypot(x, y) - 2*x/(y + 3)", N: 256}
		if err := req.Validate(); err != nil {
			panic(err)
		}
		want := exprReference(req)
		return "expr/hypot-div", req.Job(), func(out any) error {
			return checkExpr(out, want)
		}
	}
}

// exprOracle evaluates a validated request element by element on the
// seamless stack VM — the boxed interpreter, which shares the front end with
// the service and nothing else — over the arrays the service would fill.
func exprOracle(req *ExprRequest) []float64 {
	prog, err := seamless.CompileSource("def f(" + strings.Join(req.vars, ", ") + "):\n    return " + req.Expr + "\n")
	if err != nil {
		panic(err)
	}
	args := make([]seamless.Value, len(req.vars))
	for i, v := range req.vars {
		a := make([]float64, req.N)
		for g := range a {
			a[g] = varFill(v, g)
		}
		args[i] = seamless.ArrFV(a)
	}
	out, err := vm.NewEngine(prog).Call("f", args...)
	if err != nil {
		panic(err)
	}
	return out.AF
}

// varFill is the value RankState.array fills variable name with at global
// index g, restated from its definition: the seed is the name's FNV-1a hash
// mod 1000, over 1000. The oracle above sweeps it, so the served answers pin
// the fill bit for bit.
func varFill(name string, g int) float64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	seed := float64(h.Sum64()%1000) / 1000
	return 0.5 + 0.4*math.Sin(seed*7+float64(g)*3)
}

// exprReference sums the oracle over every global index — the serial
// answer the fused distributed evaluation must match.
func exprReference(req *ExprRequest) float64 {
	var sum float64
	for _, v := range exprOracle(req) {
		sum += v
	}
	return sum
}

func checkExpr(out any, want float64) error {
	res, ok := out.(*ExprResponse)
	if !ok {
		return fmt.Errorf("result is %T, want *ExprResponse", out)
	}
	if math.Abs(res.Sum-want) > 1e-9*math.Abs(want) {
		return fmt.Errorf("sum = %g, want %g", res.Sum, want)
	}
	return nil
}

// TestServeConcurrentMixedJobs is the acceptance scenario: 64 concurrent
// mixed solve/expression jobs over a pool of warm rank groups, zero
// failures, every result checked against its reference, and the plan
// columns of /v1/stats at steady state showing more hits than misses: each
// group prepares each of the two expression shapes at most once, and the
// whole process compiles each exactly once (fusion's single-flight program
// cache serves every other rank and group).
func TestServeConcurrentMixedJobs(t *testing.T) {
	fusion.ResetPlanCache()
	s := NewScheduler(Options{Groups: 4, Ranks: 2, QueueDepth: 128})
	defer s.Stop()

	const J = 64
	errs := make([]error, J)
	var wg sync.WaitGroup
	for i := 0; i < J; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name, fn, check := mixedJob(i)
			out, err := s.Do(fmt.Sprintf("tenant-%d", i%4), fn)
			if err != nil {
				errs[i] = fmt.Errorf("%s: %w", name, err)
				return
			}
			errs[i] = check(out)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("job %d: %v", i, err)
		}
	}

	snap := s.Snapshot()
	if snap.Accepted != J || snap.Completed != J || snap.Failed != 0 {
		t.Errorf("stats = %+v, want accepted=completed=%d failed=0", snap, J)
	}
	if snap.PlanCacheHits+snap.PlanCacheMiss != J/2 || snap.PlanCacheMiss == 0 || snap.PlanCacheHits <= snap.PlanCacheMiss {
		t.Errorf("plan probes hits=%d misses=%d over %d expr jobs; warm serving needs hits > misses > 0",
			snap.PlanCacheHits, snap.PlanCacheMiss, J/2)
	}
	if _, compiled := fusion.PlanCacheStats(); compiled != 2 {
		t.Errorf("fusion compiled %d programs for two expression shapes, want 2", compiled)
	}
}

// TestSolveCOOMatchesGenerator pins the posted-matrix path: the same
// tridiagonal operator sent as COO triplets must solve to the same answer
// as the galeri-generated one.
func TestSolveCOOMatchesGenerator(t *testing.T) {
	s := NewScheduler(Options{Groups: 1, Ranks: 2})
	defer s.Stop()

	const n = 32
	gen := &SolveRequest{Kind: "tridiag", N: n}
	if err := gen.Validate(); err != nil {
		t.Fatal(err)
	}
	var entries []COOEntry
	for i := 0; i < n; i++ {
		entries = append(entries, COOEntry{Row: i, Col: i, Val: 2.5})
		if i > 0 {
			entries = append(entries, COOEntry{Row: i, Col: i - 1, Val: -1})
		}
		if i < n-1 {
			entries = append(entries, COOEntry{Row: i, Col: i + 1, Val: -1})
		}
	}
	coo := &SolveRequest{Kind: "coo", N: n, Entries: entries}
	if err := coo.Validate(); err != nil {
		t.Fatal(err)
	}

	a, err := s.Do("t", gen.Job())
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Do("t", coo.Job())
	if err != nil {
		t.Fatal(err)
	}
	ra, rb := a.(*SolveResponse), b.(*SolveResponse)
	if !ra.Converged || !rb.Converged {
		t.Fatalf("not converged: generator %+v coo %+v", ra, rb)
	}
	if math.Abs(ra.XNorm-rb.XNorm) > 1e-10*ra.XNorm {
		t.Errorf("x norms differ: generator %g vs coo %g", ra.XNorm, rb.XNorm)
	}
}

// TestOverloadTyped pins admission control: with one single-rank group
// wedged on a blocker job and the depth-2 queue full, the next submission
// must reject with *OverloadError immediately (not block), and the queued
// jobs must still complete once the blocker releases.
func TestOverloadTyped(t *testing.T) {
	s := NewScheduler(Options{Groups: 1, Ranks: 1, QueueDepth: 2})
	defer s.Stop()

	started := make(chan struct{})
	unblock := make(chan struct{})
	blocker, err := s.Submit("t", func(c *comm.Comm, st *RankState) (any, error) {
		close(started)
		<-unblock
		return "blocker", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started // group is busy; queue is empty

	quick := func(c *comm.Comm, st *RankState) (any, error) { return "ok", nil }
	var queued []*Pending
	for i := 0; i < 2; i++ {
		p, err := s.Submit("t", quick)
		if err != nil {
			t.Fatalf("queue slot %d rejected: %v", i, err)
		}
		queued = append(queued, p)
	}
	_, err = s.Submit("t", quick)
	over, ok := err.(*OverloadError)
	if !ok {
		t.Fatalf("overflow submission returned %v, want *OverloadError", err)
	}
	if over.Depth != 2 {
		t.Errorf("OverloadError.Depth = %d, want 2", over.Depth)
	}

	close(unblock)
	if _, err := blocker.Wait(); err != nil {
		t.Errorf("blocker: %v", err)
	}
	for i, p := range queued {
		if out, err := p.Wait(); err != nil || out != "ok" {
			t.Errorf("queued job %d: out=%v err=%v", i, out, err)
		}
	}
	if snap := s.Snapshot(); snap.RejectedQueue != 1 {
		t.Errorf("rejected_queue = %d, want 1", snap.RejectedQueue)
	}
}

// TestQuotaInFlight pins the per-tenant concurrency cap, including that one
// tenant at its cap does not block another.
func TestQuotaInFlight(t *testing.T) {
	s := NewScheduler(Options{Groups: 1, Ranks: 1, QueueDepth: 8, Quotas: NewQuotas(1, 0, 0)})
	defer s.Stop()

	started := make(chan struct{})
	unblock := make(chan struct{})
	blocker, err := s.Submit("alice", func(c *comm.Comm, st *RankState) (any, error) {
		close(started)
		<-unblock
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started

	quick := func(c *comm.Comm, st *RankState) (any, error) { return nil, nil }
	if _, err := s.Submit("alice", quick); err == nil {
		t.Fatal("alice's second in-flight job admitted over a cap of 1")
	} else if qe, ok := err.(*QuotaError); !ok || qe.Tenant != "alice" || qe.Reason != "in-flight" {
		t.Fatalf("rejection = %v, want alice's in-flight QuotaError", err)
	}
	p, err := s.Submit("bob", quick)
	if err != nil {
		t.Fatalf("bob rejected by alice's quota: %v", err)
	}

	close(unblock)
	if _, err := blocker.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	// Alice's slot is back after her job resolved.
	p2, err := s.Submit("alice", quick)
	if err != nil {
		t.Fatalf("alice rejected after release: %v", err)
	}
	if _, err := p2.Wait(); err != nil {
		t.Fatal(err)
	}
	if snap := s.Snapshot(); snap.RejectedQuota != 1 {
		t.Errorf("rejected_quota = %d, want 1", snap.RejectedQuota)
	}
}

// TestQuotaRate pins the token bucket against an injected clock: burst
// admits, then rejections carry a RetryAfter, then refill admits again.
func TestQuotaRate(t *testing.T) {
	q := NewQuotas(0, 2, 2) // 2 jobs/sec, burst 2
	now := time.Unix(1000, 0)
	q.SetClock(func() time.Time { return now })

	for i := 0; i < 2; i++ {
		release, err := q.acquire("t")
		if err != nil {
			t.Fatalf("burst admit %d: %v", i, err)
		}
		release()
	}
	_, err := q.acquire("t")
	qe, ok := err.(*QuotaError)
	if !ok || qe.Reason != "rate" {
		t.Fatalf("empty bucket returned %v, want rate QuotaError", err)
	}
	if qe.RetryAfter <= 0 || qe.RetryAfter > time.Second {
		t.Errorf("RetryAfter = %v, want in (0, 1s] at 2 jobs/sec", qe.RetryAfter)
	}
	now = now.Add(600 * time.Millisecond) // refills 1.2 tokens
	release, err := q.acquire("t")
	if err != nil {
		t.Fatalf("post-refill admit: %v", err)
	}
	release()
	release() // idempotent
}

// TestGroupRecycleAfterPoison pins fail-forward: a job that wrecks its
// session with a latched fault errors out, the group recycles onto a fresh
// communicator, and the next job succeeds.
func TestGroupRecycleAfterPoison(t *testing.T) {
	s := NewScheduler(Options{Groups: 1, Ranks: 2})
	defer s.Stop()

	_, err := s.Do("t", func(c *comm.Comm, st *RankState) (any, error) {
		panic(&comm.FaultError{Kind: comm.FaultPeerFailed, Rank: c.Rank()})
	})
	if err == nil {
		t.Fatal("poisoning job reported no error")
	}

	req := &SolveRequest{Kind: "laplace1d", N: 32}
	if err := req.Validate(); err != nil {
		t.Fatal(err)
	}
	out, err := s.Do("t", req.Job())
	if err != nil {
		t.Fatalf("job after recycle: %v", err)
	}
	if res := out.(*SolveResponse); !res.Converged {
		t.Errorf("post-recycle solve did not converge: %+v", res)
	}
	if snap := s.Snapshot(); snap.GroupRestarts != 1 {
		t.Errorf("group_restarts = %d, want 1", snap.GroupRestarts)
	}
}

// tagRecvFirst is awaited by both ranks of the deadlocking job and sent by
// neither.
const tagRecvFirst = 700

// TestDeadlockedJobRecyclesGroup pins that a job which deadlocks on its own
// does not wedge its warm group: with both ranks receiving first, comm's
// deadlock detector fails the session with a typed FaultDeadlock, Do returns
// it, the group recycles, and the next job on the same scheduler succeeds.
// Without the detector the job would park both ranks forever (the group's
// session has no receive deadline), so a watchdog bounds the test.
func TestDeadlockedJobRecyclesGroup(t *testing.T) {
	// No deferred Stop: it would wait forever on a wedged group, so the
	// watchdog's failure leaves the group behind instead.
	s := NewScheduler(Options{Groups: 1, Ranks: 2, Comm: comm.Config{Transport: "inproc"}})

	done := make(chan error, 1)
	go func() {
		_, err := s.Do("t", func(c *comm.Comm, st *RankState) (any, error) {
			if c.Rank() == 1 {
				// Park last, so rank 1 raises the deadlock and rank 0
				// holds only its echo.
				time.Sleep(10 * time.Millisecond)
			}
			got := comm.Recv[byte](c, 1-c.Rank(), tagRecvFirst)
			comm.Send(c, 1-c.Rank(), tagRecvFirst, got)
			return nil, nil
		})
		done <- err
	}()
	select {
	case err := <-done:
		// The job's error is the root cause, whichever rank raised it.
		var fe *comm.FaultError
		if !errors.As(err, &fe) || fe.Kind != comm.FaultDeadlock {
			t.Fatalf("deadlocking job: err = %v, want a FaultDeadlock", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("deadlocking job wedged its group")
	}
	out, err := s.Do("t", func(c *comm.Comm, st *RankState) (any, error) {
		return comm.Allreduce(c, []int{1}, comm.OpSum)[0], nil
	})
	if err != nil || out != 2 {
		t.Fatalf("job after the deadlock: out=%v err=%v", out, err)
	}
	// The one group ran the second job, so it had recycled by then.
	if snap := s.Snapshot(); snap.GroupRestarts != 1 {
		t.Errorf("group_restarts = %d, want 1", snap.GroupRestarts)
	}
	s.Stop()
}

// TestJobPanicIsError pins per-job isolation: an ordinary panic becomes the
// job's error and the group keeps serving on the same session.
func TestJobPanicIsError(t *testing.T) {
	s := NewScheduler(Options{Groups: 1, Ranks: 2})
	defer s.Stop()

	_, err := s.Do("t", func(c *comm.Comm, st *RankState) (any, error) {
		panic("deliberate")
	})
	if err == nil {
		t.Fatal("panicking job reported no error")
	}
	out, err := s.Do("t", func(c *comm.Comm, st *RankState) (any, error) { return c.Size(), nil })
	if err != nil || out != 2 {
		t.Fatalf("job after panic: out=%v err=%v", out, err)
	}
	if snap := s.Snapshot(); snap.GroupRestarts != 0 {
		t.Errorf("plain panic forced %d group restarts, want 0", snap.GroupRestarts)
	}
}

// TestSchedulerStop pins shutdown: submissions after Stop fail typed, and
// Stop drains still-queued jobs with ErrStopped instead of leaking waiters.
func TestSchedulerStop(t *testing.T) {
	s := NewScheduler(Options{Groups: 1, Ranks: 1})
	s.Stop()
	if _, err := s.Submit("t", func(c *comm.Comm, st *RankState) (any, error) { return nil, nil }); err != ErrStopped {
		t.Fatalf("post-Stop Submit returned %v, want ErrStopped", err)
	}
	s.Stop() // idempotent
}

// TestSubmitRacingStopResolves hammers Submit against Stop: a Submit that
// passes the stopped check just before Stop drains the queue used to enqueue
// into the drained channel, and its Pending never resolved. Every admitted
// job must resolve, with a result or ErrStopped.
func TestSubmitRacingStopResolves(t *testing.T) {
	noop := func(c *comm.Comm, st *RankState) (any, error) { return nil, nil }
	for round := 0; round < 200; round++ {
		s := NewScheduler(Options{Groups: 1, Ranks: 1, QueueDepth: 4})
		const submitters = 4
		pending := make(chan *Pending, submitters*64)
		var wg sync.WaitGroup
		for i := 0; i < submitters; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for n := 0; n < 64; n++ {
					p, err := s.Submit("t", noop)
					if err == ErrStopped {
						return
					}
					if err == nil {
						pending <- p
					}
				}
			}()
		}
		s.Stop()
		wg.Wait()
		close(pending)
		resolved := make(chan error, 1)
		go func() {
			for p := range pending {
				if _, err := p.Wait(); err != nil && err != ErrStopped {
					resolved <- err
					return
				}
			}
			resolved <- nil
		}()
		select {
		case err := <-resolved:
			if err != nil {
				t.Fatalf("round %d: admitted job resolved with %v", round, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: an admitted job never resolved", round)
		}
	}
}

// TestJobRecordsRacingStop: 64 goroutines submit through Do and Submit,
// alternately, while Stop races them, so pooled job records are taken, put
// back and reused under contention; a submission the full queue rejects is
// retried, so its record goes straight back too. Stop comes once a
// round-dependent number of jobs has run. Every job resolves exactly once:
// it ran on rank 0 once and answered with its own id, or never ran and
// resolved with ErrStopped. No record is reused while a group holds it:
// rank 0 writes the job's id into the record, yields, and reads it back
// before answering, and putJob clears the record, so a record reused early
// fails the read-back or hands a job another's answer. A Pending's answer
// is read again after every other job has resolved. Under -race, an early
// reuse is also an unsynchronized write.
func TestJobRecordsRacingStop(t *testing.T) {
	const submitters, perSubmitter = 64, 16
	for round := 0; round < 4; round++ {
		s := NewScheduler(Options{Groups: 2, Ranks: 2})
		var ran [submitters * perSubmitter]atomic.Int32
		var total, early atomic.Int32
		stopAt := int32(100 * (round + 1))
		stop := make(chan struct{})
		job := func(id int) JobFunc {
			return func(c *comm.Comm, st *RankState) (any, error) {
				c.Barrier()
				if c.Rank() != 0 {
					return nil, nil
				}
				ran[id].Add(1)
				if total.Add(1) == stopAt {
					close(stop)
				}
				resp := &st.answer.expr
				resp.N = id
				runtime.Gosched()
				if resp.N != id {
					early.Add(1)
				}
				return resp, nil
			}
		}
		check := func(id int, out any, err error) {
			if errors.Is(err, ErrStopped) {
				if n := ran[id].Load(); n != 0 {
					t.Errorf("round %d: job %d resolved with ErrStopped after running %d times", round, id, n)
				}
				return
			}
			if resp, ok := out.(*ExprResponse); err != nil || !ok || resp.N != id || ran[id].Load() != 1 {
				t.Errorf("round %d: job %d answered %+v, %v after running %d times, want its own id once",
					round, id, out, err, ran[id].Load())
			}
		}
		pending := make([]*Pending, len(ran))
		var wg sync.WaitGroup
		for g := 0; g < submitters; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := 0; k < perSubmitter; k++ {
					id := g*perSubmitter + k
					for {
						var (
							out any
							err error
						)
						if id%2 == 0 {
							out, err = s.Do("t", job(id))
						} else {
							pending[id], err = s.Submit("t", job(id))
						}
						var over *OverloadError
						if errors.As(err, &over) {
							runtime.Gosched()
							continue
						}
						if id%2 == 0 || err != nil {
							check(id, out, err)
						}
						break
					}
				}
			}()
		}
		select {
		case <-stop:
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: %d of %d jobs ran", round, total.Load(), stopAt)
		}
		s.Stop()
		wg.Wait()
		resolved := make(chan struct{})
		go func() {
			defer close(resolved)
			for id, p := range pending {
				if p != nil {
					out, err := p.Wait()
					check(id, out, err)
				}
			}
		}()
		select {
		case <-resolved:
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: an admitted job never resolved", round)
		}
		if n := early.Load(); n != 0 {
			t.Errorf("round %d: %d records were reused while a group held them", round, n)
		}
	}
}

// TestWarmCOOKeyCollisionRebuilds plants, under a coo request's cache key,
// a warm entry assembled from other entries — what a collision of the
// 64-bit entry hash in fingerprint would leave there. The job must not
// solve the planted 4I: it rebuilds 2I from its own entries (x = b/2, so
// ||x|| = 1 for b = ones over four unknowns) and the rebuilt entry replaces
// the planted one under the key.
func TestWarmCOOKeyCollisionRebuilds(t *testing.T) {
	diag := func(v float64) *SolveRequest {
		req := &SolveRequest{Kind: "coo", N: 4}
		for i := 0; i < req.N; i++ {
			req.Entries = append(req.Entries, COOEntry{Row: i, Col: i, Val: v})
		}
		if err := req.Validate(); err != nil {
			t.Fatal(err)
		}
		return req
	}
	req, planted := diag(2), diag(4)
	s := NewScheduler(Options{Groups: 1, Ranks: 2})
	defer s.Stop()
	if _, err := s.Do("t", func(c *comm.Comm, st *RankState) (any, error) {
		w := planted.matrix(c, st)
		delete(st.matrices, planted.fingerprint())
		st.matrices[req.fingerprint()] = w
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	out, err := s.Do("t", req.Job())
	if err != nil {
		t.Fatal(err)
	}
	if got := out.(*SolveResponse).XNorm; math.Abs(got-1) > 1e-12 {
		t.Fatalf("||x|| = %v, want 1: the job solved the planted 4I (||x|| = 0.5) instead of its own 2I", got)
	}
	if _, err := s.Do("t", func(c *comm.Comm, st *RankState) (any, error) {
		if w := st.matrices[req.fingerprint()]; !sameEntries(w.entries, req.Entries) {
			return nil, fmt.Errorf("rank %d: the key still holds entries %v", c.Rank(), w.entries)
		}
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestWarmMatrixCacheReuse pins the warm-state contract: two solves of one
// spec on one group assemble the matrix once and fill each right-hand side
// once (the second run is served from RankState.matrices, reusing its
// compiled GatherPlan and its b), and the solves leave the warm b as filled:
// the solvers only read it.
func TestWarmMatrixCacheReuse(t *testing.T) {
	s := NewScheduler(Options{Groups: 1, Ranks: 2})
	defer s.Stop()

	for _, rhs := range []string{"ones", "index"} {
		req := &SolveRequest{Kind: "laplace1d", N: 48, RHS: rhs}
		if err := req.Validate(); err != nil {
			t.Fatal(err)
		}
		probe := func() (built [2]bool, err error) {
			out, err := s.Do("t", func(c *comm.Comm, st *RankState) (any, error) {
				before := len(st.matrices)
				w := req.matrix(c, st)
				filled := len(w.rhs)
				w.rhsVector(c, req.RHS)
				return [2]bool{len(st.matrices) != before, len(w.rhs) != filled}, nil
			})
			if err != nil {
				return built, err
			}
			return out.([2]bool), nil
		}
		built, err := probe()
		if err != nil {
			t.Fatal(err)
		}
		if built[0] != (rhs == "ones") || !built[1] {
			t.Fatalf("rhs=%s: first solve built matrix %v, rhs %v; want %v, true", rhs, built[0], built[1], rhs == "ones")
		}
		for i := 0; i < 2; i++ {
			if _, err := s.Do("t", req.Job()); err != nil {
				t.Fatal(err)
			}
		}
		if built, err = probe(); err != nil {
			t.Fatal(err)
		}
		if built[0] || built[1] {
			t.Fatalf("rhs=%s: a later solve of the same spec rebuilt the matrix (%v) or its b (%v) instead of reusing it", rhs, built[0], built[1])
		}
		if _, err := s.Do("t", func(c *comm.Comm, st *RankState) (any, error) {
			w := req.matrix(c, st)
			fresh := (&warmMatrix{a: w.a, rhs: map[string]*tpetra.Vector{}}).rhsVector(c, req.RHS)
			for i, v := range w.rhs[req.RHS].Data {
				if math.Float64bits(v) != math.Float64bits(fresh.Data[i]) {
					return nil, fmt.Errorf("rhs=%s rank %d: warm b[%d] = %v after two solves, filled as %v", rhs, c.Rank(), i, v, fresh.Data[i])
				}
			}
			return nil, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
}
