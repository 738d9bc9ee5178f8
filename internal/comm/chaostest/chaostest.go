// Package chaostest is the conformance harness for the comm fabric and
// everything built on it. It replays a kernel — any collective or
// distributed operation — under seeded fault plans, optionally under seeded
// scheduling pressure at a pinned GOMAXPROCS and exec pool size, and asserts
// one contract: the kernel either reproduces its fault-free reference run
// bitwise, or, under a plan that perturbs traffic, every rank returns a
// typed *comm.FaultError. It never hangs (each session is bounded by a
// watchdog) and never returns a silently wrong answer.
//
// One runner serves two drivers. Run and RunOn are the TestChaos* suites of
// comm, tpetra, distmap, slicing, fusion and solvers: every kernel at every
// size under the whole plan matrix, at the suite's seed. Sweep, RunPoint and
// Minimize walk a Grid of GOMAXPROCS × pool × ranks × transport × plan over
// the stress corpus (internal/comm/stresstest, cmd/odinstress), where every
// point has a replayable fingerprint. scripts/verify.sh replays the suites
// under -race -count=2 and the smoke grid under ODINHPC_STRESS=1.
package chaostest

import (
	"errors"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"odinhpc/internal/comm"
	"odinhpc/internal/exec"
)

// Kernel is one distributed operation under test. Body runs on every rank
// of the communicator and returns that rank's result payload; payloads are
// compared with reflect.DeepEqual against the reference run, so bodies must
// return deterministic, NaN-free values at a fixed (ranks, transport, pool,
// procs) geometry. MinRanks, Heavy and Buggy matter to grid sweeps only.
type Kernel struct {
	Name     string
	MinRanks int // smallest communicator the kernel is defined for
	// Heavy marks kernels too expensive for the smoke grid (they run in the
	// full/nightly sweep and under explicit -replay or -kernel selection).
	Heavy bool
	// Buggy marks intentionally broken kernels kept out of every default
	// sweep; they exist so tests and demos can show the harness catching,
	// minimizing, and fingerprinting a real schedule bug.
	Buggy bool
	Body  func(c *comm.Comm) (any, error)
}

// Case is one named fault plan of the conformance matrix.
type Case struct {
	Name string
	Plan *comm.FaultPlan
}

// Watchdog bounds one session beyond its RecvTimeout. It is generous: fault
// propagation wakes blocked ranks in milliseconds, so hitting this means a
// genuine hang.
const Watchdog = 30 * time.Second

// SeedEnv overrides every suite's default chaos seed: ODINHPC_CHAOS_SEED=N
// reruns each registered kernel under the fault matrix seeded with N. Every
// failure message carries the effective seed (the run label's seed= field),
// so any chaos failure is replayable verbatim by exporting the printed seed.
const SeedEnv = "ODINHPC_CHAOS_SEED"

// ResolveSeed returns the chaos seed for a suite: the SeedEnv override when
// set, else the suite's default. An override that is not an integer is an
// error naming it, so a mistyped replay cannot pass a seed it never ran.
func ResolveSeed(def int64) (int64, error) {
	s := os.Getenv(SeedEnv)
	if s == "" {
		return def, nil
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("chaostest: %s=%q is not an integer seed", SeedEnv, s)
	}
	return v, nil
}

// PlanNone names the plan-free grid column: no fault layer at all, only
// scheduling pressure. The other plan names are the conformance matrix's.
const PlanNone = "none"

// matrix returns the deterministic conformance matrix for a communicator of
// the given size, every plan seeded from seed. The matrix covers each fault
// dimension alone, a crash, an unsurvivable drop storm, and a combined
// storm. A kernel a plan manages to wedge fails typed before the harness
// declares a hang: with FaultDeadlock on inproc as soon as every rank is
// parked, and otherwise at the session's Recv watchdog, which the plans leave
// at its 10-second default — well below Watchdog. The watchdog's own firing
// path (which no well-formed kernel can reach) is pinned separately by the
// TestChaosRecvTimeout* regression tests in package comm.
func matrix(seed int64, size int) []Case {
	slow := map[int]time.Duration{0: 50 * time.Microsecond}
	if size > 1 {
		slow[size-1] = 120 * time.Microsecond
	}
	return []Case{
		{"zero", &comm.FaultPlan{Seed: seed}},
		{"delay", &comm.FaultPlan{Seed: seed, DelayProb: 0.35, MaxDelay: 3}},
		{"reorder", &comm.FaultPlan{Seed: seed, ReorderProb: 0.5}},
		{"dup", &comm.FaultPlan{Seed: seed, DupProb: 0.3}},
		{"drop-retry", &comm.FaultPlan{Seed: seed, DropProb: 0.25, MaxRetries: 10}},
		{"drop-hard", &comm.FaultPlan{Seed: seed, DropProb: 0.7, MaxRetries: 1}},
		{"slow", &comm.FaultPlan{Seed: seed, SlowRanks: slow}},
		{"crash", &comm.FaultPlan{Seed: seed, CrashRank: size - 1, CrashAtColl: 2}},
		{"storm", &comm.FaultPlan{Seed: seed, DelayProb: 0.3, DupProb: 0.2, ReorderProb: 0.4, DropProb: 0.15, MaxRetries: 10, SlowRanks: slow}},
	}
}

// PlanNames lists the conformance matrix's plan names in replay order.
func PlanNames() []string {
	var names []string
	for _, cs := range matrix(0, 1) {
		names = append(names, cs.Name)
	}
	return names
}

// Run replays every kernel at every size under the full plan matrix and
// asserts the contract. The transport comes from the environment
// (ODINHPC_TRANSPORT), so one `ODINHPC_TRANSPORT=tcp go test` pass replays
// every registered kernel over real sockets; use RunOn to pin a transport.
func Run(t *testing.T, sizes []int, seed int64, kernels ...Kernel) {
	t.Helper()
	RunOn(t, "", sizes, seed, kernels...)
}

// RunOn is Run with the transport pinned ("inproc", "tcp"; empty defers to
// the environment). The reference run rides the same transport as the fault
// runs, so the contract is checked wire-for-wire. The seed argument is the
// suite default; ODINHPC_CHAOS_SEED overrides it (see SeedEnv), and the
// effective seed is stamped into every run label so failures name it.
func RunOn(t *testing.T, transport string, sizes []int, seed int64, kernels ...Kernel) {
	t.Helper()
	seed, err := ResolveSeed(seed)
	if err != nil {
		t.Fatal(err)
	}
	r := newRunner(Grid{})
	for _, k := range kernels {
		for _, size := range sizes {
			for _, plan := range PlanNames() {
				p := Point{Kernel: k.Name, Ranks: size, Transport: transport, Plan: plan, Seed: seed}
				if err := r.run(p, k); err != nil {
					label := fmt.Sprintf("%s/P=%d/seed=%d/%s", k.Name, size, seed, plan)
					if transport != "" {
						label = transport + "/" + label
					}
					t.Fatalf("%s: %v", label, err)
				}
			}
		}
	}
}

// Point is one grid point: a kernel pinned to a full runtime configuration.
// Its Fingerprint round-trips through ParseFingerprint, which is what makes
// any failure replayable from one printed line. A point with zero Procs and
// Pool leaves both knobs as the process has them.
type Point struct {
	Kernel    string
	Ranks     int    // communicator size
	Procs     int    // runtime.GOMAXPROCS during the run
	Pool      int    // exec default-engine workers during the run
	Transport string // "inproc" or "tcp"
	Plan      string // PlanNone or a conformance-matrix plan name
	Seed      int64  // seeds the fault plan and the scheduling jitter
}

// fingerprintVersion guards the replay format; bump it when the encoding
// changes so stale fingerprints fail loudly instead of replaying the wrong
// configuration.
const fingerprintVersion = "v1"

// Fingerprint encodes the point as one replayable token:
// v1/<kernel>/P<ranks>/G<procs>/W<pool>/<transport>/<plan>/s<seed>.
func (p Point) Fingerprint() string {
	return fmt.Sprintf("%s/%s/P%d/G%d/W%d/%s/%s/s%d",
		fingerprintVersion, p.Kernel, p.Ranks, p.Procs, p.Pool, p.Transport, p.Plan, p.Seed)
}

// ParseFingerprint decodes a Fingerprint token back into its Point.
func ParseFingerprint(s string) (Point, error) {
	parts := strings.Split(s, "/")
	if len(parts) != 8 || parts[0] != fingerprintVersion {
		return Point{}, fmt.Errorf("chaostest: malformed fingerprint %q (want %s/kernel/P#/G#/W#/transport/plan/s#)", s, fingerprintVersion)
	}
	num := func(field, prefix string) (int, error) {
		if !strings.HasPrefix(field, prefix) {
			return 0, fmt.Errorf("chaostest: fingerprint field %q missing %q prefix", field, prefix)
		}
		return strconv.Atoi(field[len(prefix):])
	}
	var p Point
	var err error
	p.Kernel = parts[1]
	if p.Ranks, err = num(parts[2], "P"); err != nil {
		return Point{}, err
	}
	if p.Procs, err = num(parts[3], "G"); err != nil {
		return Point{}, err
	}
	if p.Pool, err = num(parts[4], "W"); err != nil {
		return Point{}, err
	}
	p.Transport, p.Plan = parts[5], parts[6]
	if !strings.HasPrefix(parts[7], "s") {
		return Point{}, fmt.Errorf("chaostest: fingerprint seed field %q missing 's' prefix", parts[7])
	}
	if p.Seed, err = strconv.ParseInt(parts[7][1:], 10, 64); err != nil {
		return Point{}, err
	}
	return p, nil
}

// Grid is the sweep specification: the cartesian product of its axes is
// enumerated in deterministic order for every kernel.
type Grid struct {
	Seed       int64
	Ranks      []int
	Procs      []int
	Pools      []int
	Transports []string
	Plans      []string
	// Jitter applies seeded scheduling pressure to every stressed run.
	Jitter bool
	// RecvTimeout is every session's comm.Config.RecvTimeout: the
	// deadlock-detection latency, so smoke grids keep it short. Zero leaves
	// the reference runs unguarded and the fault runs at comm's 10-second
	// default, as the chaos suites run.
	RecvTimeout time.Duration
}

// SmokeGrid is the fast opt-in verify tier: 32 points per kernel covering
// both transports, two rank counts, scheduling and fault pressure. The full
// grid is the nightly tier.
func SmokeGrid(seed int64) Grid {
	return Grid{
		Seed:        seed,
		Ranks:       []int{2, 4},
		Procs:       []int{1, 2},
		Pools:       []int{1, 4},
		Transports:  []string{"inproc", "tcp"},
		Plans:       []string{PlanNone, "storm"},
		Jitter:      true,
		RecvTimeout: 10 * time.Second,
	}
}

// FullGrid is the nightly sweep: every rank count the conformance suites
// use, deeper pool/processor axes, and the whole plan matrix.
func FullGrid(seed int64) Grid {
	return Grid{
		Seed:        seed,
		Ranks:       []int{1, 2, 4, 8},
		Procs:       []int{1, 2, 4},
		Pools:       []int{1, 2, 4},
		Transports:  []string{"inproc", "tcp"},
		Plans:       append([]string{PlanNone}, PlanNames()...),
		Jitter:      true,
		RecvTimeout: 30 * time.Second,
	}
}

// Points enumerates the grid for one kernel in deterministic order. Rank
// counts below the kernel's floor are skipped.
func (g Grid) Points(k Kernel) []Point {
	var pts []Point
	for _, ranks := range g.Ranks {
		if ranks < k.MinRanks {
			continue
		}
		for _, procs := range g.Procs {
			for _, pool := range g.Pools {
				for _, tr := range g.Transports {
					for _, plan := range g.Plans {
						p := Point{Kernel: k.Name, Ranks: ranks, Procs: procs, Pool: pool, Transport: tr, Plan: plan}
						p.Seed = pointSeed(g.Seed, p)
						pts = append(pts, p)
					}
				}
			}
		}
	}
	return pts
}

// pointSeed derives a per-point seed from the grid seed and every non-seed
// coordinate, so distinct points exercise distinct fault and jitter streams
// while the whole sweep stays a pure function of the grid seed.
func pointSeed(master int64, p Point) int64 {
	h := uint64(master) ^ 0x517cc1b727220a95
	for _, s := range []string{p.Kernel, p.Transport, p.Plan} {
		for _, b := range []byte(s) {
			h = mix64(h ^ uint64(b))
		}
	}
	for _, v := range []int{p.Ranks, p.Procs, p.Pool} {
		h = mix64(h ^ uint64(v))
	}
	seed := int64(h % (1 << 31)) // keep fingerprints short and positive
	if seed == 0 {
		seed = 1
	}
	return seed
}

// mix64 is the splitmix64 finalizer (same avalanche the fault layer uses).
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// session is one watched comm session: per-rank results, the traffic
// snapshot and the session error.
type session struct {
	results []any
	stats   comm.StatsSnapshot
	err     error
}

// watch runs k on size ranks under cfg. A session that outlives bound is
// reported as a hang, an untyped error that never passes the contract.
func watch(size int, cfg comm.Config, k Kernel, bound time.Duration) session {
	done := make(chan session, 1)
	go func() {
		results := make([]any, size)
		stats, err := comm.RunConfig(size, cfg, func(c *comm.Comm) error {
			res, kerr := k.Body(c)
			results[c.Rank()] = res
			return kerr
		})
		s := session{results: results, err: err}
		if stats != nil {
			s.stats = stats.Snapshot()
		}
		done <- s
	}()
	select {
	case s := <-done:
		return s
	case <-time.After(bound):
		return session{err: fmt.Errorf("HANG — no completion within %v (the Recv watchdog should have fired first)", bound)}
	}
}

// contract checks one run against its reference under plan; nil means the
// run passed. It passes when every rank's result deep-equals the
// reference's, or when it failed with a typed *comm.FaultError under a plan
// that perturbs traffic. A plan that perturbs nothing (PlanNone, "zero")
// must succeed, and the zero plan must also leave the traffic matrices as
// the reference had them: the injection layer is pay-for-use.
func contract(plan *comm.FaultPlan, ref, out session) error {
	if out.err != nil {
		var fe *comm.FaultError
		if !errors.As(out.err, &fe) {
			return fmt.Errorf("failed with untyped error %w (want *comm.FaultError)", out.err)
		}
		if !plan.Active() {
			return fmt.Errorf("failed under a plan that perturbs nothing: %w", out.err)
		}
		return nil // clean typed failure is an accepted outcome
	}
	for r := range out.results {
		if !reflect.DeepEqual(out.results[r], ref.results[r]) {
			return fmt.Errorf("rank %d result diverged from the fault-free run\n got: %#v\nwant: %#v",
				r, out.results[r], ref.results[r])
		}
	}
	if plan != nil && !plan.Active() {
		if !reflect.DeepEqual(out.stats.Msgs, ref.stats.Msgs) || !reflect.DeepEqual(out.stats.Bytes, ref.stats.Bytes) {
			return fmt.Errorf("zero-fault plan changed the traffic matrices\n got: %v\nwant: %v",
				out.stats.MsgMatrixString(), ref.stats.MsgMatrixString())
		}
		if out.stats.Faults.Any() {
			return fmt.Errorf("zero-fault plan recorded perturbations: %v", out.stats.Faults)
		}
	}
	return nil
}

// runner executes points with a per-(kernel, geometry) reference cache so a
// sweep does not recompute the pressure-free twin of every faulted point.
type runner struct {
	grid Grid
	refs map[string]session
}

func newRunner(g Grid) *runner { return &runner{grid: g, refs: map[string]session{}} }

// pin sets the process-wide knobs of a grid point (GOMAXPROCS, the exec
// default pool) and returns the restore. Points run one at a time, so
// mutating process state between them is safe. The chaos suites' points name
// neither knob and change nothing.
func pin(p Point) func() {
	if p.Procs == 0 && p.Pool == 0 {
		return func() {}
	}
	prevProcs := runtime.GOMAXPROCS(p.Procs)
	prevPool := exec.Default().Workers()
	exec.SetDefaultWorkers(p.Pool)
	return func() {
		runtime.GOMAXPROCS(prevProcs)
		exec.SetDefaultWorkers(prevPool)
	}
}

// run executes one point: the reference run (cached; no fault plan, no
// jitter, the same kernel, ranks, transport, pool and procs — reductions
// are only bitwise-stable at a fixed pool geometry), then the run under the
// point's plan and jitter, then the contract. nil means the point passed.
func (r *runner) run(p Point, k Kernel) error {
	defer pin(p)()
	bound := r.grid.RecvTimeout + Watchdog
	key := fmt.Sprintf("%s/%d/%s/%d/%d", p.Kernel, p.Ranks, p.Transport, p.Pool, p.Procs)
	ref, ok := r.refs[key]
	if !ok {
		ref = watch(p.Ranks, comm.Config{Transport: p.Transport, RecvTimeout: r.grid.RecvTimeout}, k, bound)
		r.refs[key] = ref
	}
	if ref.err != nil {
		return fmt.Errorf("fault-free reference run failed: %w", ref.err)
	}
	var plan *comm.FaultPlan
	if p.Plan != PlanNone {
		for _, cs := range matrix(p.Seed, p.Ranks) {
			if cs.Name == p.Plan {
				plan = cs.Plan
			}
		}
		if plan == nil {
			return fmt.Errorf("chaostest: unknown fault plan %q (have %s)", p.Plan, strings.Join(PlanNames(), ", "))
		}
	}
	cfg := comm.Config{Transport: p.Transport, Faults: plan, RecvTimeout: r.grid.RecvTimeout}
	if r.grid.Jitter {
		cfg.Jitter = &comm.SchedJitter{Seed: p.Seed ^ 0x6a09, Prob: 0.25, MaxYields: 3}
	}
	return contract(plan, ref, watch(p.Ranks, cfg, k, bound))
}

// Outcome is one executed grid point.
type Outcome struct {
	Point   Point
	Err     error // nil on pass
	Elapsed time.Duration
}

// RunPoint executes a single grid point standalone — the -replay path.
func RunPoint(g Grid, p Point, k Kernel) Outcome {
	start := time.Now()
	err := newRunner(g).run(p, k)
	return Outcome{Point: p, Err: err, Elapsed: time.Since(start)}
}

// Result summarizes one sweep. Checksum hashes every fingerprint with its
// pass/fail status in execution order, so two sweeps of the same grid and
// seed can be compared for determinism with one number.
type Result struct {
	Points   int
	Failures []Outcome
	Checksum uint64
	Elapsed  time.Duration
}

// Sweep replays every kernel over the grid in deterministic order. logf
// (optional) receives one line per point and must not reorder output; it is
// what keeps two sweeps of the same seed diffable.
func Sweep(g Grid, kernels []Kernel, logf func(format string, args ...any)) Result {
	start := time.Now()
	r := newRunner(g)
	res := Result{Checksum: uint64(g.Seed) ^ 0x9e3779b97f4a7c15}
	for _, k := range kernels {
		for _, p := range g.Points(k) {
			pstart := time.Now()
			err := r.run(p, k)
			res.Points++
			status := "PASS"
			if err != nil {
				status = "FAIL"
				res.Failures = append(res.Failures, Outcome{Point: p, Err: err, Elapsed: time.Since(pstart)})
			}
			for _, b := range []byte(p.Fingerprint() + ":" + status) {
				res.Checksum = mix64(res.Checksum ^ uint64(b))
			}
			if logf != nil {
				logf("%s %s", status, p.Fingerprint())
			}
		}
	}
	res.Elapsed = time.Since(start)
	return res
}

// Minimize shrinks a failing point to the smallest configuration that still
// reproduces the failure, trying (in order) to drop the fault plan, fall
// back to the inproc transport, and lower ranks, pool, and GOMAXPROCS.
// Every accepted reduction is re-verified by a fresh run, so the returned
// point is guaranteed to fail; logf (optional) narrates the search.
func Minimize(g Grid, p Point, k Kernel, logf func(format string, args ...any)) Point {
	try := func(q Point, what string) bool {
		fails := newRunner(g).run(q, k) != nil
		if logf != nil {
			verdict := "still fails, keeping"
			if !fails {
				verdict = "passes, reverting"
			}
			logf("minimize: %s -> %s: %s", what, q.Fingerprint(), verdict)
		}
		return fails
	}
	if p.Plan != PlanNone {
		q := p
		q.Plan = PlanNone
		if try(q, "drop fault plan") {
			p.Plan = PlanNone
		}
	}
	if p.Transport != "inproc" {
		q := p
		q.Transport = "inproc"
		if try(q, "inproc transport") {
			p.Transport = "inproc"
		}
	}
	for _, ranks := range []int{1, 2, 4} {
		if ranks >= p.Ranks || ranks < k.MinRanks {
			continue
		}
		q := p
		q.Ranks = ranks
		if try(q, fmt.Sprintf("P=%d", ranks)) {
			p.Ranks = ranks
			break
		}
	}
	for _, field := range []struct {
		name string
		get  func(*Point) *int
	}{{"pool", func(q *Point) *int { return &q.Pool }}, {"GOMAXPROCS", func(q *Point) *int { return &q.Procs }}} {
		if *field.get(&p) > 1 {
			q := p
			*field.get(&q) = 1
			if try(q, field.name+"=1") {
				*field.get(&p) = 1
			}
		}
	}
	return p
}
