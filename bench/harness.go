package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"time"

	"odinhpc/internal/comm"
	"odinhpc/internal/distmap"
	"odinhpc/internal/fusion"
	"odinhpc/internal/galeri"
	"odinhpc/internal/serve"
)

const (
	ranks        = 2 // ranks of the one warm group
	setupSamples = 3 // cold set-ups timed per round; the last one's scheduler serves the round
)

// server is the served path under test, in-process: the real scheduler
// behind the real HTTP handler, with no socket in between.
type server struct {
	sched *serve.Scheduler
	h     http.Handler
}

// startServer starts odinserve's configuration cut down to the host: one
// warm group of two ranks, quotas off, default queue depth.
func startServer(nranks int) *server {
	s := serve.NewScheduler(serve.Options{Groups: 1, Ranks: nranks})
	return &server{sched: s, h: serve.NewServer(s).Handler()}
}

// post sends one request down the HTTP path. Building the request and the
// recorder is the client's share of every latency (harness.client_us).
func (s *server) post(w *workload) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, w.path, bytes.NewReader(w.body))
	rec := httptest.NewRecorder()
	s.h.ServeHTTP(rec, req)
	return rec
}

// ok is the per-job check: HTTP 200 and an answer bit-identical to the
// verified reference.
func (w *workload) ok(rec *httptest.ResponseRecorder) bool {
	return rec.Code == http.StatusOK && bytes.HasPrefix(rec.Body.Bytes(), w.prefix)
}

// verifyReference checks the workload's first answer in full (solves:
// converged, the recorded iteration count, residual within tol; expressions:
// the sum against the same request on a one-rank scheduler) and records its
// prefix as the reference every later job is compared with.
func (w *workload) verifyReference() error {
	var refSum float64
	if w.expr != nil {
		one := startServer(1)
		rec := one.post(w)
		one.sched.Stop()
		if rec.Code != http.StatusOK {
			return fmt.Errorf("%s: one-rank reference: HTTP %d: %s", w.name, rec.Code, rec.Body)
		}
		var r serve.ExprResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &r); err != nil {
			return err
		}
		refSum = r.Sum
	}
	srv := startServer(ranks)
	defer srv.sched.Stop()
	rec := srv.post(w)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d: %s", w.name, rec.Code, rec.Body)
	}
	if err := w.verifyFull(rec.Body.Bytes(), refSum); err != nil {
		return err
	}
	if w.solve != nil {
		// The same matrix, assembled once more from outside, to learn which
		// SpMV format the run is measuring (ODINHPC_SPMV can force one).
		out, err := srv.do(func(c *comm.Comm, _ *serve.RankState) (any, error) {
			n, rows := rowFunc(w.solve)
			return galeri.BuildDist(c, distmap.NewBlock(n, c.Size()), rows).SpmvFormat().String(), nil
		})
		if err != nil {
			return err
		}
		w.spmvFormat = out.(string)
	}
	var err error
	w.prefix, err = responsePrefix(rec.Body.Bytes())
	return err
}

// pilot returns the mean latency of a short warm run, from which the caller
// sizes the rounds to the time it was given.
func (w *workload) pilot() (time.Duration, error) {
	srv := startServer(ranks)
	defer srv.sched.Stop()
	const length = 300 * time.Millisecond
	srv.post(w) // cold
	t0, n := time.Now(), 0
	for time.Since(t0) < length {
		if !w.ok(srv.post(w)) {
			return 0, fmt.Errorf("%s: pilot answer differs from the reference", w.name)
		}
		n++
	}
	return time.Since(t0) / time.Duration(n), nil
}

// setUp times one cold start: empty plan cache, fresh scheduler, first
// request answered. It is what a restart costs the first caller.
func (w *workload) setUp() (*server, float64, bool) {
	runtime.GC()
	t0 := time.Now()
	fusion.ResetPlanCache()
	srv := startServer(ranks)
	rec := srv.post(w)
	return srv, time.Since(t0).Seconds(), w.ok(rec)
}

// round is what one (round, workload) cell measured.
type round struct {
	setup          []float64 // seconds, one per cold set-up
	slow           float64   // the host's slowdown around the timed section; the times here are already divided by it
	p50, p90       float64   // ms, over this round's jobs
	rate           float64   // jobs/s: the inverse of the mean latency with the slowest 1% of the jobs left out
	stall          float64   // share of the timed wall spent in that slowest 1%
	jobs, failed   int       // timed jobs and, among all jobs of the cell, the wrong or failed ones
	attempted      int       // every request of the cell, set-up and warm-up included
	mallocs, bytes uint64    // process-wide, over the timed section
	gcCycles       uint32
	gcPauseNs      uint64
	heapLive       float64 // MiB after a forced GC, scheduler still warm
}

// runRound runs one cell. lat is scratch for the per-job latencies, owned by
// the caller so that the harness allocates nothing inside the timed section
// beyond what a client must (request and recorder).
func (w *workload) runRound(jobs int, lat []float64) round {
	r := round{jobs: jobs}
	c0 := slowdown()
	var srv *server
	for i := 0; i < setupSamples; i++ {
		if srv != nil {
			srv.sched.Stop()
		}
		var (
			sec float64
			ok  bool
		)
		srv, sec, ok = w.setUp()
		r.setup = append(r.setup, sec)
		r.attempted++
		if !ok {
			r.failed++
		}
	}
	defer srv.sched.Stop()
	for i := 0; i < (jobs+9)/10; i++ {
		r.attempted++
		if !w.ok(srv.post(w)) {
			r.failed++
		}
	}
	c1 := slowdown()
	for i := range r.setup {
		r.setup[i] /= (c0 + c1) / 2
	}
	lat = lat[:0]
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i := 0; i < jobs; i++ {
		t := time.Now()
		rec := srv.post(w)
		lat = append(lat, float64(time.Since(t))/1e6)
		if !w.ok(rec) {
			r.failed++
		}
	}
	wall := time.Since(t0)
	runtime.ReadMemStats(&m1)
	r.attempted += jobs
	r.slow = (c1 + slowdown()) / 2
	sort.Float64s(lat)
	r.p50, r.p90 = quantile(lat, 0.5)/r.slow, quantile(lat, 0.9)/r.slow
	mean, tail := trimmedMean(lat, 0.99)
	r.rate, r.stall = 1e3/mean*r.slow, tail/1e3/wall.Seconds()
	r.mallocs, r.bytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	r.gcCycles, r.gcPauseNs = m1.NumGC-m0.NumGC, m1.PauseTotalNs-m0.PauseTotalNs
	runtime.GC()
	runtime.ReadMemStats(&m1)
	r.heapLive = float64(m1.HeapAlloc-8*uint64(cap(lat)+len(calibData))) / (1 << 20) // less the harness's own buffers
	return r
}

// column extracts one per-round figure.
func column(rs []round, f func(round) float64) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = f(r)
	}
	return out
}

// rawP50 is the per-round median latency as measured, before the division
// by the host's slowdown: what the host diagnostics are about.
func rawP50(rs []round) []float64 {
	return column(rs, func(r round) float64 { return r.p50 * r.slow })
}

// totals sums the counts of the rounds.
func totals(rs []round) (jobs, attempted, failed int, mallocs, bytes uint64) {
	for _, r := range rs {
		jobs += r.jobs
		attempted += r.attempted
		failed += r.failed
		mallocs += r.mallocs
		bytes += r.bytes
	}
	return
}

// endToEnd reduces the rounds of one workload to the end-to-end metrics.
// Wall-clock figures are the midmean of the per-round values; counts are
// summed over all timed sections and divided by the jobs in them.
func endToEnd(rs []round) metrics {
	jobs, _, _, mallocs, bytes := totals(rs)
	var setups []float64
	for _, r := range rs {
		setups = append(setups, r.setup...)
	}
	m := metrics{}
	m.set("latency_p50_ms", midmean(column(rs, func(r round) float64 { return r.p50 })))
	m.set("latency_p90_ms", midmean(column(rs, func(r round) float64 { return r.p90 })))
	m.set("jobs_per_s", midmean(column(rs, func(r round) float64 { return r.rate })))
	m.set("allocs_per_job", float64(mallocs)/float64(jobs))
	m.set("alloc_kb_per_job", float64(bytes)/1024/float64(jobs))
	m.set("heap_live_mb", median(column(rs, func(r round) float64 { return r.heapLive })))
	m.set("setup_s", midmean(setups))
	return m
}
