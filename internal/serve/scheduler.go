package serve

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"odinhpc/internal/comm"
	"odinhpc/internal/exec"
)

// ErrStopped is returned for submissions after Stop.
var ErrStopped = errors.New("serve: scheduler stopped")

// OverloadError is the typed admission-control rejection: the bounded queue
// is full. HTTP maps it to 429.
type OverloadError struct {
	Depth int // configured queue depth, all slots occupied
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("serve: job queue full (%d queued); retry later", e.Depth)
}

// Options configures a Scheduler.
type Options struct {
	Groups     int         // warm rank groups (default 2)
	Ranks      int         // ranks per group (default 2)
	QueueDepth int         // bounded admission queue (default 64)
	Comm       comm.Config // per-group session config (transport, watchdog)
	Quotas     *Quotas     // per-tenant limits; nil admits everything
}

// EngineWorkers is the exec engine's pool size for a scheduler built with
// opts: ODINHPC_THREADS when it is set, else the cores shared out over
// every rank of every group, at least one each, so that the ranks' workers
// together add none past the cores. cmd/odinserve sizes the process-wide
// engine with it once, at startup.
func EngineWorkers(opts Options) int {
	if n, ok := exec.EnvWorkers(); ok {
		return n
	}
	opts = opts.withDefaults()
	return max(1, runtime.GOMAXPROCS(0)/(opts.Groups*opts.Ranks))
}

func (o Options) withDefaults() Options {
	if o.Groups <= 0 {
		o.Groups = 2
	}
	if o.Ranks <= 0 {
		o.Ranks = 2
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	return o
}

// Scheduler admits jobs into a bounded queue and runs them on a pool of
// warm rank groups. All groups share the queue, so an idle group picks up
// the next job regardless of which tenant sent it.
type Scheduler struct {
	opts    Options
	queue   chan *job
	quit    chan struct{}
	groups  []*group
	quotas  *Quotas
	stats   Stats
	wg      sync.WaitGroup
	stopped atomic.Bool
}

// NewScheduler starts the group pool. Every group's communicators are
// created now and reused for the scheduler's whole lifetime.
func NewScheduler(opts Options) *Scheduler {
	opts = opts.withDefaults()
	s := &Scheduler{
		opts:   opts,
		queue:  make(chan *job, opts.QueueDepth),
		quit:   make(chan struct{}),
		quotas: opts.Quotas,
	}
	for i := 0; i < opts.Groups; i++ {
		g := &group{
			id:    i,
			ranks: opts.Ranks,
			cfg:   opts.Comm,
			queue: s.queue,
			quit:  s.quit,
			stats: &s.stats,
			errs:  make([]error, opts.Ranks),
		}
		s.groups = append(s.groups, g)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			g.serve()
		}()
	}
	return s
}

// Submit runs fn on the next available warm group. It rejects with a typed
// QuotaError or OverloadError without blocking; an admitted job's result
// arrives through the returned Pending, and every admitted job resolves —
// with ErrStopped if Stop got to it before a group did. It is the one
// admission route: Do and the HTTP handlers submit through it too, and
// put the record back once they have read its outcome.
func (s *Scheduler) Submit(tenant string, fn JobFunc) (*Pending, error) {
	if s.stopped.Load() {
		return nil, ErrStopped
	}
	release, err := s.quotas.acquire(tenant)
	if err != nil {
		s.stats.rejectedQuota.Add(1)
		return nil, err
	}
	jb := jobs.Get().(*job)
	jb.fn, jb.release = fn, release
	jb.done.Add(1)
	select {
	case s.queue <- jb:
		s.stats.accepted.Add(1)
		if s.stopped.Load() {
			// Stop won the race after the check above and may already have
			// drained the queue; nobody would resolve this job.
			s.drain()
		}
		return (*Pending)(jb), nil
	default:
		jb.done.Done()
		putJob(jb)
		release()
		s.stats.rejectedQueue.Add(1)
		return nil, &OverloadError{Depth: s.opts.QueueDepth}
	}
}

// Do submits and waits. Its record goes back to the pool; a response rank 0
// wrote into the record is returned as a copy.
func (s *Scheduler) Do(tenant string, fn JobFunc) (any, error) {
	p, err := s.Submit(tenant, fn)
	if err != nil {
		return nil, err
	}
	out, err := p.Wait()
	jb := (*job)(p)
	out = jb.detach(out)
	putJob(jb)
	return out, err
}

// Stop shuts the pool down: no new admissions, queued-but-unstarted jobs
// resolve with ErrStopped, in-flight jobs finish, then every group's
// session tears down.
func (s *Scheduler) Stop() {
	if s.stopped.Swap(true) {
		return
	}
	close(s.quit)
	// Groups stop pulling once quit closes; drain what they left behind.
	s.drain()
	s.wg.Wait()
}

// drain resolves every queued job with ErrStopped. Stop calls it, and so
// does a Submit that enqueued after Stop began: whoever takes a job off the
// queue — a group, Stop or that Submit — resolves it, exactly once.
func (s *Scheduler) drain() {
	for {
		select {
		case jb := <-s.queue:
			jb.fail(ErrStopped)
		default:
			return
		}
	}
}

// Stats counts scheduler outcomes with lock-free counters; Snapshot renders
// them (plus live depths) for /v1/stats. planHits/planMisses count rank 0's
// probe of its group's warm expression plans, one per expr job.
type Stats struct {
	accepted      atomic.Int64
	completed     atomic.Int64
	failed        atomic.Int64
	rejectedQueue atomic.Int64
	rejectedQuota atomic.Int64
	groupRestarts atomic.Int64
	planHits      atomic.Int64
	planMisses    atomic.Int64
}

// StatsSnapshot is the JSON shape of GET /v1/stats.
type StatsSnapshot struct {
	Accepted      int64 `json:"accepted"`
	Completed     int64 `json:"completed"`
	Failed        int64 `json:"failed"`
	RejectedQueue int64 `json:"rejected_queue"`
	RejectedQuota int64 `json:"rejected_quota"`
	GroupRestarts int64 `json:"group_restarts"`
	QueueDepth    int   `json:"queue_depth"`
	Groups        int   `json:"groups"`
	Ranks         int   `json:"ranks"`
	PlanCacheHits int64 `json:"plan_cache_hits"`
	PlanCacheMiss int64 `json:"plan_cache_misses"`
}

// Snapshot reads the counters. The plan-cache columns count expr jobs by
// whether their group already held the bound plan (a hit: probe and sweep)
// or had to prepare it (a miss: lower, analyze, insert — once per source
// and length per group, and again after a recycle); at steady state hits
// must dominate misses.
func (s *Scheduler) Snapshot() StatsSnapshot {
	return StatsSnapshot{
		Accepted:      s.stats.accepted.Load(),
		Completed:     s.stats.completed.Load(),
		Failed:        s.stats.failed.Load(),
		RejectedQueue: s.stats.rejectedQueue.Load(),
		RejectedQuota: s.stats.rejectedQuota.Load(),
		GroupRestarts: s.stats.groupRestarts.Load(),
		QueueDepth:    len(s.queue),
		Groups:        s.opts.Groups,
		Ranks:         s.opts.Ranks,
		PlanCacheHits: s.stats.planHits.Load(),
		PlanCacheMiss: s.stats.planMisses.Load(),
	}
}
