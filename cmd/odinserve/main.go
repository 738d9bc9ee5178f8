// Command odinserve is the multi-tenant solver service: a long-running
// HTTP/JSON server that schedules concurrent solve and array-expression
// jobs onto a pool of warm rank groups (communicators created once at
// startup and reused for every job). See DESIGN.md "Serving".
//
// Server mode (the default):
//
//	odinserve -addr :8080 -groups 4 -ranks 2
//	odinserve -addr 127.0.0.1:0 -addr-file port.txt   # pick a free port
//
// Endpoints: POST /v1/solve, POST /v1/expr, GET /v1/stats, GET /healthz.
// Per-tenant quotas (keyed by the X-Tenant header) are off unless
// -tenant-inflight or -tenant-rate is set. The exec engine is sized once at
// startup by serve.EngineWorkers: ODINHPC_THREADS workers when it is set,
// else GOMAXPROCS / (groups x ranks), at least one.
//
// Load-generator mode drives a running server with a mixed workload and
// checks its SLOs — verify.sh uses it as the serve smoke test:
//
//	odinserve -loadgen -url http://127.0.0.1:8080 -jobs 64 -conc 16 \
//	    -max-p99 2s -require-warm-cache
//
// It prints p50/p99 latency and jobs/sec, retries 429s with backoff, and
// exits non-zero if any job ultimately fails, p99 exceeds -max-p99, or
// (with -require-warm-cache) /v1/stats shows plan_cache_hits <=
// plan_cache_misses: expr jobs that found their group's bound plan warm
// against those that had to prepare it (serve.StatsSnapshot).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"odinhpc/internal/exec"
	"odinhpc/internal/serve"
)

func main() {
	var (
		loadgen = flag.Bool("loadgen", false, "drive a running server instead of serving")

		// Server mode.
		addr     = flag.String("addr", ":8080", "listen address (host:0 picks a free port)")
		addrFile = flag.String("addr-file", "", "write the bound address to this file once listening")
		groups   = flag.Int("groups", 2, "warm rank groups in the pool")
		ranks    = flag.Int("ranks", 2, "ranks per group")
		queue    = flag.Int("queue", 64, "admission queue depth (full queue returns 429)")
		inflight = flag.Int("tenant-inflight", 0, "max in-flight jobs per tenant (0 = unlimited)")
		rate     = flag.Float64("tenant-rate", 0, "sustained jobs/sec per tenant (0 = unlimited)")
		burst    = flag.Float64("tenant-burst", 8, "token-bucket burst per tenant")

		// Loadgen mode.
		url    = flag.String("url", "http://127.0.0.1:8080", "server base URL")
		jobs   = flag.Int("jobs", 64, "total jobs to fire")
		conc   = flag.Int("conc", 16, "concurrent clients")
		mix    = flag.String("mix", "mixed", "workload: mixed, solve, or expr")
		maxP99 = flag.Duration("max-p99", 0, "fail if p99 latency exceeds this (0 = no bound)")
		warm   = flag.Bool("require-warm-cache", false, "fail unless plan-cache hits > misses after the run")
		n      = flag.Int("n", 2048, "problem size for generated jobs")
	)
	flag.Parse()

	if *loadgen {
		os.Exit(runLoadgen(*url, *jobs, *conc, *mix, *n, *maxP99, *warm))
	}
	os.Exit(runServer(*addr, *addrFile, *groups, *ranks, *queue, *inflight, *rate, *burst))
}

func runServer(addr, addrFile string, groups, ranks, queue, inflight int, rate, burst float64) int {
	opts := serve.Options{Groups: groups, Ranks: ranks, QueueDepth: queue}
	if inflight > 0 || rate > 0 {
		opts.Quotas = serve.NewQuotas(inflight, rate, burst)
	}
	workers := serve.EngineWorkers(opts)
	exec.SetDefaultWorkers(workers)
	sched := serve.NewScheduler(opts)
	defer sched.Stop()

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "odinserve:", err)
		return 1
	}
	bound := ln.Addr().String()
	if addrFile != "" {
		if err := os.WriteFile(addrFile, []byte(bound+"\n"), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "odinserve:", err)
			return 1
		}
	}
	fmt.Printf("odinserve: listening on %s (%d groups x %d ranks x %d workers, queue %d)\n",
		bound, groups, ranks, workers, queue)

	srv := &http.Server{Handler: serve.NewServer(sched).Handler()}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Printf("odinserve: %v, shutting down\n", s)
		_ = srv.Close()
		<-done
		return 0
	case err := <-done:
		if err != nil && err != http.ErrServerClosed {
			fmt.Fprintln(os.Stderr, "odinserve:", err)
			return 1
		}
		return 0
	}
}

// loadResult is one job's outcome as seen by the load generator.
type loadResult struct {
	dur     time.Duration
	retries int
	err     error
}

func runLoadgen(base string, jobs, conc int, mix string, n int, maxP99 time.Duration, requireWarm bool) int {
	if err := waitHealthy(base, 10*time.Second); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		return 1
	}

	type jobSpec struct {
		path string
		body []byte
	}
	specs := make([]jobSpec, jobs)
	for i := range specs {
		kind := mix
		if mix == "mixed" {
			if i%2 == 0 {
				kind = "solve"
			} else {
				kind = "expr"
			}
		}
		switch kind {
		case "solve":
			sk := "laplace1d"
			if i%4 == 0 {
				sk = "tridiag"
			}
			body, _ := json.Marshal(&serve.SolveRequest{Kind: sk, N: n / 8})
			specs[i] = jobSpec{"/v1/solve", body}
		case "expr":
			exprs := []string{
				"sqrt(x*x + y*y)",
				"x*y + sin(x)",
				"exp(-x*x) + cos(y)",
			}
			body, _ := json.Marshal(&serve.ExprRequest{Expr: exprs[i%len(exprs)], N: n})
			specs[i] = jobSpec{"/v1/expr", body}
		default:
			fmt.Fprintf(os.Stderr, "loadgen: unknown -mix %q\n", mix)
			return 1
		}
	}

	results := make([]loadResult, jobs)
	var wg sync.WaitGroup
	next := make(chan int)
	go func() {
		for i := 0; i < jobs; i++ {
			next <- i
		}
		close(next)
	}()
	start := time.Now()
	for w := 0; w < conc; w++ {
		tenant := fmt.Sprintf("tenant-%d", w%4)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				results[i] = fireOne(base, specs[i].path, tenant, specs[i].body)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	var failed, retried int
	durs := make([]time.Duration, 0, jobs)
	for i, r := range results {
		if r.err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "loadgen: job %d: %v\n", i, r.err)
			continue
		}
		retried += r.retries
		durs = append(durs, r.dur)
	}
	lat := serve.SummarizeLatency(durs, elapsed)
	fmt.Printf("loadgen: %d jobs in %v (%.1f jobs/sec), p50 %v p99 %v, %d retries, %d failed\n",
		jobs-failed, elapsed.Round(time.Millisecond), lat.JobsPerSec,
		lat.P50.Round(time.Microsecond), lat.P99.Round(time.Microsecond), retried, failed)

	code := 0
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "loadgen: FAIL: %d jobs failed\n", failed)
		code = 1
	}
	if maxP99 > 0 && lat.P99 > maxP99 {
		fmt.Fprintf(os.Stderr, "loadgen: FAIL: p99 %v exceeds bound %v\n", lat.P99, maxP99)
		code = 1
	}
	if snap, err := fetchStats(base); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen: stats:", err)
		code = 1
	} else {
		fmt.Printf("loadgen: server stats: completed=%d failed=%d rejected_queue=%d rejected_quota=%d restarts=%d plan_hits=%d plan_misses=%d\n",
			snap.Completed, snap.Failed, snap.RejectedQueue, snap.RejectedQuota,
			snap.GroupRestarts, snap.PlanCacheHits, snap.PlanCacheMiss)
		if requireWarm && snap.PlanCacheHits <= snap.PlanCacheMiss {
			fmt.Fprintf(os.Stderr, "loadgen: FAIL: plan cache cold at steady state (hits=%d misses=%d)\n",
				snap.PlanCacheHits, snap.PlanCacheMiss)
			code = 1
		}
	}
	return code
}

// fireOne POSTs one job, retrying 429s with backoff (that is the contract:
// 429 means "later", not "never").
func fireOne(base, path, tenant string, body []byte) loadResult {
	const maxAttempts = 20
	t0 := time.Now()
	var retries int
	for attempt := 0; attempt < maxAttempts; attempt++ {
		req, err := http.NewRequest(http.MethodPost, base+path, bytes.NewReader(body))
		if err != nil {
			return loadResult{err: err}
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Tenant", tenant)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return loadResult{err: err}
		}
		out, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return loadResult{err: err}
		}
		switch resp.StatusCode {
		case http.StatusOK:
			return loadResult{dur: time.Since(t0), retries: retries}
		case http.StatusTooManyRequests:
			retries++
			time.Sleep(time.Duration(10*(attempt+1)) * time.Millisecond)
			continue
		default:
			return loadResult{err: fmt.Errorf("%s: %d %s", path, resp.StatusCode, bytes.TrimSpace(out))}
		}
	}
	return loadResult{err: fmt.Errorf("%s: still throttled after %d attempts", path, maxAttempts)}
}

func waitHealthy(base string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server at %s not healthy after %v: %v", base, timeout, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func fetchStats(base string) (*serve.StatsSnapshot, error) {
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var snap serve.StatsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, err
	}
	return &snap, nil
}
