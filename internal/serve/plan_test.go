package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"

	"odinhpc/internal/comm"
	"odinhpc/internal/comm/alloctest"
	"odinhpc/internal/exec"
	"odinhpc/internal/fusion"
	"odinhpc/internal/seamless/compile/exprtable"
	"odinhpc/internal/sparse"
	"odinhpc/internal/trace"
)

// TestWarmExprAnswerIsTheColdAnswer replays the expression pipeline's
// differential table through a served group three ways per source: the cold
// request (prepares and inserts the plan), the warm one (probe and sweep),
// and fusion.SumEval of a freshly lowered root on the same ranks. The two
// responses must be the same bytes but for the timing field, and the sum
// the same bits as SumEval's — at every rank count, exec pool and transport.
// (Every entry of the table reduces to a finite sum over the served fill.)
func TestWarmExprAnswerIsTheColdAnswer(t *testing.T) {
	old := exec.Default()
	defer exec.SetDefault(old)
	for _, transport := range []string{"inproc", "tcp"} {
		for _, p := range []int{1, 2, 4} {
			for _, pool := range []int{1, 4} {
				// A 256-element grain gives the four-worker pool several
				// chunks of a 375-element local sweep at P=4.
				exec.SetDefault(exec.New(exec.WithWorkers(pool), exec.WithGrain(256)))
				name := fmt.Sprintf("%s/P=%d/pool=%d", transport, p, pool)
				s := NewScheduler(Options{Groups: 1, Ranks: p, Comm: comm.Config{Transport: transport}})
				for _, src := range exprtable.Sources {
					req := &ExprRequest{Expr: src, N: 1500}
					if err := req.Validate(); err != nil {
						t.Fatalf("%s: %q: %v", name, src, err)
					}
					var answers [3]any // cold, warm, SumEval of a fresh root
					for i, fn := range []JobFunc{req.Job(), req.Job(), func(c *comm.Comm, st *RankState) (any, error) {
						root, err := req.root(st)
						if err != nil {
							return nil, err
						}
						return fusion.SumEval(root), nil
					}} {
						out, err := s.Do("t", fn)
						if err != nil {
							t.Fatalf("%s: %q: job %d: %v", name, src, i, err)
						}
						answers[i] = out
					}
					if c, w := sansMillis(t, answers[0]), sansMillis(t, answers[1]); !bytes.Equal(c, w) {
						t.Errorf("%s: %q: warm answer %s, cold answer %s", name, src, w, c)
					}
					if got, want := answers[1].(*ExprResponse).Sum, answers[2].(float64); math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("%s: %q: warm sum %x (%g), SumEval of a fresh root %x (%g)", name, src,
							math.Float64bits(got), got, math.Float64bits(want), want)
					}
				}
				if snap, n := s.Snapshot(), int64(len(exprtable.Sources)); snap.PlanCacheMiss != n || snap.PlanCacheHits != n {
					t.Errorf("%s: plan probes hits=%d misses=%d, want %d each", name, snap.PlanCacheHits, snap.PlanCacheMiss, n)
				}
				s.Stop()
			}
		}
	}
}

// sansMillis renders an expression response without its wall-clock field.
func sansMillis(t *testing.T, out any) []byte {
	t.Helper()
	res := *out.(*ExprResponse)
	res.Millis = 0
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestWarmExprKeepsItsVMSpan pins what a trace of the served path shows: a
// warm job's sweep still emits its KindVM span on every rank, labelled with
// the same plan key as the cold job that prepared the plan.
func TestWarmExprKeepsItsVMSpan(t *testing.T) {
	prev := trace.Active()
	defer trace.Install(prev)
	own := trace.Start(1 << 12)

	s := NewScheduler(Options{Groups: 1, Ranks: 2})
	defer s.Stop()
	req := &ExprRequest{Expr: "sqrt(x*x + y*y) + exp(-x)", N: 640}
	if err := req.Validate(); err != nil {
		t.Fatal(err)
	}
	// vmSpans runs the request once and returns the plan labels of the
	// KindVM events it added, by rank.
	seen := 0
	vmSpans := func() [2][]string {
		if _, err := s.Do("t", req.Job()); err != nil {
			t.Fatal(err)
		}
		var labels [2][]string
		events := own.Events()
		for _, ev := range events[seen:] {
			if ev.Kind == trace.KindVM {
				labels[ev.Rank] = append(labels[ev.Rank], ev.Label)
			}
		}
		seen = len(events)
		return labels
	}
	cold, warm := vmSpans(), vmSpans()
	for r := range cold {
		if len(cold[r]) != 1 || len(warm[r]) != 1 || cold[r][0] == "" || cold[r][0] != warm[r][0] {
			t.Errorf("rank %d: cold job's VM spans %q, warm job's %q; want one each with one plan label", r, cold[r], warm[r])
		}
	}
}

// TestWarmExprJobAllocs pins what one warm expr job through Scheduler.Do
// costs the whole process, scheduler included: the request's job closure
// and Do's copy of rank 0's response, which rank 0 wrote into the pooled
// job record (the ranks' error slots are the group's). Apart from that the
// ranks allocate nothing — no leaves, no lowering, no plan, no control
// message, no record. One object more per job fails.
func TestWarmExprJobAllocs(t *testing.T) {
	if alloctest.RaceEnabled || trace.Active() != nil {
		t.Skip("allocation counts are not exact under the race detector or a trace session")
	}
	for _, p := range []int{1, 2, 4} {
		s := NewScheduler(Options{Groups: 1, Ranks: p, Comm: comm.Config{Transport: "inproc"}})
		req := &ExprRequest{Expr: "x + y", N: 64}
		if err := req.Validate(); err != nil {
			t.Fatal(err)
		}
		do := func() {
			if _, err := s.Do("t", req.Job()); err != nil {
				t.Fatal(err)
			}
		}
		do() // prepares the plan
		// AllocsPerRun reads process-wide counters on one P, so the rank
		// goroutines' objects are in the figure.
		got := testing.AllocsPerRun(2000, do)
		s.Stop()
		if got != 2 {
			t.Errorf("P=%d: a warm expr job allocates %v objects process-wide, want 2", p, got)
		}
	}
}

// TestWarmSolveJobAllocsPerIteration pins the served CG loop at zero objects
// per iteration: a warm solve of 64 iterations allocates what one of 32
// does. solvers pins the same slope on its own, but a package's escape
// analysis can differ between its test build and the build that importers
// link — a [2]float64 that solvers handed to comm.AllreduceInto through an
// inlined tpetra wrapper stayed on the stack under solvers' tests and moved
// to the heap here — so the binary that serves requests is measured too.
func TestWarmSolveJobAllocsPerIteration(t *testing.T) {
	if alloctest.RaceEnabled || trace.Active() != nil {
		t.Skip("allocation counts are not exact under the race detector or a trace session")
	}
	for _, p := range []int{1, 2} {
		s := NewScheduler(Options{Groups: 1, Ranks: p, Comm: comm.Config{Transport: "inproc"}})
		perJob := func(iters int) float64 {
			req := &SolveRequest{Kind: "laplace1d", N: 512, MaxIter: iters}
			if err := req.Validate(); err != nil {
				t.Fatal(err)
			}
			do := func() {
				if _, err := s.Do("t", req.Job()); err != nil {
					t.Fatal(err)
				}
			}
			do() // assembles the matrix and fills b
			return testing.AllocsPerRun(100, do)
		}
		short, long := perJob(32), perJob(64)
		s.Stop()
		if slope := (long - short) / 32; slope >= 1 {
			t.Errorf("P=%d: a warm solve allocates %.2f objects per iteration (%v objects at 64 iterations, %v at 32), want 0",
				p, slope, long, short)
		}
	}
}

// TestWarmSolveJobBytesFlat pins what a warm solve job allocates as
// independent of n: the warm entry keeps x and the solver's work vectors
// (solvers.Workspace), so a job at n = 16 384 allocates the same objects as
// one at n = 512 and the same bytes within 1 KiB — for cg and bicgstab, at
// P = 1 and 2, both sizes stored as SELL. Each job runs a fixed 40
// iterations, so the iteration count is the same at both sizes too. The
// counters are process-wide, so the rank goroutines' objects are in them;
// the sweeps run on a one-worker engine, as the other allocation pins do.
func TestWarmSolveJobBytesFlat(t *testing.T) {
	if alloctest.RaceEnabled || trace.Active() != nil {
		t.Skip("allocation counts are not exact under the race detector or a trace session")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer exec.SetDefault(exec.Default())
	exec.SetDefault(exec.New(exec.WithWorkers(1)))
	const jobs = 50
	for _, p := range []int{1, 2} {
		for _, solver := range []string{"cg", "bicgstab"} {
			perJob := func(n int) (objects, bytes uint64) {
				s := NewScheduler(Options{Groups: 1, Ranks: p, Comm: comm.Config{Transport: "inproc"}})
				defer s.Stop()
				req := &SolveRequest{Kind: "laplace1d", N: n, Solver: solver, MaxIter: 40}
				if err := req.Validate(); err != nil {
					t.Fatal(err)
				}
				out, err := s.Do("t", func(c *comm.Comm, st *RankState) (any, error) {
					return req.matrix(c, st).a.SpmvFormat(), nil
				})
				if err != nil || out != sparse.FormatSELL {
					t.Fatalf("P=%d n=%d: local format %v (%v), want sell", p, n, out, err)
				}
				do := func() {
					if _, err := s.Do("t", req.Job()); err != nil {
						t.Fatal(err)
					}
				}
				do() // fills b, x and the workspace
				do()
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for i := 0; i < jobs; i++ {
					do()
				}
				runtime.ReadMemStats(&after)
				return (after.Mallocs - before.Mallocs) / jobs, (after.TotalAlloc - before.TotalAlloc) / jobs
			}
			smallObj, smallB := perJob(512)
			largeObj, largeB := perJob(16384)
			if smallObj != largeObj || largeB > smallB+1024 || smallB > largeB+1024 {
				t.Errorf("P=%d %s: a warm job allocates %d objects, %d B at n=512 and %d objects, %d B at n=16384; want the same objects and bytes within 1 KiB",
					p, solver, smallObj, smallB, largeObj, largeB)
			}
			t.Logf("P=%d %s: %d objects, %d B at n=512; %d objects, %d B at n=16384", p, solver, smallObj, smallB, largeObj, largeB)
		}
	}
}

// TestEngineWorkers pins the rule cmd/odinserve sizes its exec engine by:
// the cores shared out over every rank of every group, at least one, and
// ODINHPC_THREADS first when it is a positive integer.
func TestEngineWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	for _, tc := range []struct {
		env  string
		opts Options
		want int
	}{
		{"", Options{}, 2}, // odinserve's defaults: 2 groups x 2 ranks
		{"", Options{Groups: 1, Ranks: 2}, 4},
		{"", Options{Groups: 3, Ranks: 1}, 2},
		{"", Options{Groups: 4, Ranks: 4}, 1},
		{"3", Options{Groups: 4, Ranks: 4}, 3},
		{"0", Options{Groups: 1, Ranks: 1}, 8},
	} {
		t.Setenv(exec.EnvThreads, tc.env)
		if got := EngineWorkers(tc.opts); got != tc.want {
			t.Errorf("%s=%q, %d groups x %d ranks on 8 cores: %d workers, want %d",
				exec.EnvThreads, tc.env, tc.opts.Groups, tc.opts.Ranks, got, tc.want)
		}
	}
}

// TestShippedEngineAllocs measures the engine as cmd/odinserve ships it: at
// its defaults (2 groups x 2 ranks) on 2 cores, a warm 32³ CG job on the
// engine EngineWorkers sizes allocates within 1 % of the same job on a
// one-worker engine. An engine as wide as GOMAXPROCS fans every sweep out
// to fresh goroutines, about 3 100 objects a job.
func TestShippedEngineAllocs(t *testing.T) {
	if alloctest.RaceEnabled || trace.Active() != nil {
		t.Skip("allocation counts are not exact under the race detector or a trace session")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	t.Setenv(exec.EnvThreads, "")
	defer exec.SetDefault(exec.Default())
	req := &SolveRequest{Kind: "laplace3d", NX: 32, NY: 32, NZ: 32, Tol: 1e-8}
	if err := req.Validate(); err != nil {
		t.Fatal(err)
	}
	const jobs = 20
	perJob := func(workers int) float64 {
		exec.SetDefault(exec.New(exec.WithWorkers(workers)))
		s := NewScheduler(Options{})
		defer s.Stop()
		fn := req.Job()
		for warm := 0; warm < 3; warm++ {
			// Two at once, so that both groups assemble the matrix.
			var ps [2]*Pending
			for i := range ps {
				var err error
				if ps[i], err = s.Submit("t", fn); err != nil {
					t.Fatal(err)
				}
			}
			for _, p := range ps {
				if _, err := p.Wait(); err != nil {
					t.Fatal(err)
				}
			}
		}
		// AllocsPerRun runs on one P, which leaves the engine's fan-out as
		// it was built: its goroutines, closures and locks are counted.
		return testing.AllocsPerRun(jobs, func() {
			if _, err := s.Do("t", fn); err != nil {
				t.Fatal(err)
			}
		})
	}
	shipped := EngineWorkers(Options{})
	got, one := perJob(shipped), perJob(1)
	if got > one*1.01 {
		t.Errorf("a warm 32³ CG job allocates %v objects on the shipped %d-worker engine, %v on one worker; want within 1 %%",
			got, shipped, one)
	}
	t.Logf("%v objects a job on the shipped %d-worker engine, %v on one worker", got, shipped, one)
}

// TestPlanCacheIsBounded sweeps 2×planCap+1 distinct sources through one
// group: every answer is right, the sweep ends (ranks that disagreed about
// what is warm would not — one would prepare while the other reduced), and
// no rank ever holds more than planCap plans.
func TestPlanCacheIsBounded(t *testing.T) {
	const ranks, n = 2, 48
	s := NewScheduler(Options{Groups: 1, Ranks: ranks})
	defer s.Stop()
	var sumX float64
	for g := 0; g < n; g++ {
		sumX += varFill("x", g)
	}
	var held [ranks]int
	holds := func(c *comm.Comm, st *RankState) (any, error) {
		held[c.Rank()] = len(st.plans)
		return nil, nil
	}
	peak := 0
	for i := 0; i < 2*planCap+1; i++ {
		req := &ExprRequest{Expr: fmt.Sprintf("x + %d", i), N: n}
		if err := req.Validate(); err != nil {
			t.Fatal(err)
		}
		out, err := s.Do("t", req.Job())
		if err != nil {
			t.Fatalf("source %d: %v", i, err)
		}
		if err := checkExpr(out, sumX+float64(i*n)); err != nil {
			t.Fatalf("source %d: %v", i, err)
		}
		if _, err := s.Do("t", holds); err != nil {
			t.Fatal(err)
		}
		for r, h := range held {
			if h > planCap || h != held[0] {
				t.Fatalf("after %d sources rank %d holds %d plans, rank 0 %d; the cap is %d", i+1, r, h, held[0], planCap)
			}
		}
		peak = max(peak, held[0])
	}
	if peak != planCap {
		t.Errorf("the plan map peaked at %d entries, want it to fill to its cap %d before it is dropped", peak, planCap)
	}
	if snap := s.Snapshot(); snap.PlanCacheMiss != 2*planCap+1 || snap.PlanCacheHits != 0 {
		t.Errorf("plan probes hits=%d misses=%d over %d distinct sources", snap.PlanCacheHits, snap.PlanCacheMiss, 2*planCap+1)
	}
}

// TestRecycledGroupPreparesAgain poisons a group under a fault plan — rank 1
// crashes entering the session's third collective, which is the third expr
// job's allreduce — and asks the same request throughout. The recycled
// group starts cold with the rest of its RankState: it prepares the plan
// again (the compiled program is still in fusion's process-wide cache) and
// answers with the bits the first session gave.
func TestRecycledGroupPreparesAgain(t *testing.T) {
	fusion.ResetPlanCache()
	s := NewScheduler(Options{Groups: 1, Ranks: 2, Comm: comm.Config{
		Transport: "inproc",
		Faults:    &comm.FaultPlan{Seed: 1, CrashRank: 1, CrashAtColl: 3},
	}})
	defer s.Stop()
	req := &ExprRequest{Expr: "hypot(x, y) - 2*x/(y + 3)", N: 777}
	if err := req.Validate(); err != nil {
		t.Fatal(err)
	}
	var sums []float64
	for i, wantFault := range []bool{false, false, true, false, false} {
		out, err := s.Do("t", req.Job())
		var fe *comm.FaultError
		if wantFault != errors.As(err, &fe) || (err != nil && !wantFault) {
			t.Fatalf("job %d: err = %v, want a comm fault: %v", i, err, wantFault)
		}
		if err == nil {
			sums = append(sums, out.(*ExprResponse).Sum)
		}
	}
	for i, v := range sums {
		if math.Float64bits(v) != math.Float64bits(sums[0]) {
			t.Errorf("answer %d is %x, the first was %x", i, math.Float64bits(v), math.Float64bits(sums[0]))
		}
	}
	snap := s.Snapshot()
	if snap.GroupRestarts != 1 || snap.PlanCacheMiss != 2 || snap.PlanCacheHits != 3 {
		t.Errorf("restarts=%d plan misses=%d hits=%d, want 1 restart, a plan prepared by each session and three warm probes",
			snap.GroupRestarts, snap.PlanCacheMiss, snap.PlanCacheHits)
	}
	if hits, misses := fusion.PlanCacheStats(); misses != 1 || hits != 3 {
		t.Errorf("fusion compiled %d programs and served %d from its cache; want one compile and a hit for every other rank's prepare", misses, hits)
	}
}
