// Command bench is the repository's end-to-end benchmark: one closed-loop
// client posting JSON through the real served path
// (serve.NewServer(serve.NewScheduler(opts)).Handler().ServeHTTP, in
// process, no sockets), every answer verified, every metric printed by name
// with its unit, and a per-layer budget from one extra traced round.
// README.md in this directory defines the workloads, metrics and protocol;
// /BENCHMARK.json is the contract the driver runs it under.
//
//	go run ./bench -workload solve_small -seed 1 -seconds 20 -trace 0   # one driver run
//	go run ./bench -seed 1 -out bench/out                              # all workloads, interleaved, then traced
//	go run ./bench -selfcheck                                          # two full runs compared against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"odinhpc/internal/exec"
)

// rounds is fixed: the estimator is a midmean over rounds, and fewer rounds
// give it nothing to trim.
const rounds = 12

type config struct {
	workload  string // "" = all four, interleaved inside each round
	seed      int64
	seconds   float64 // timed seconds per workload, split over the rounds
	trace     bool
	rounds    int
	jobs      int // >0 fixes the jobs per round instead of sizing them from the pilot (tests)
	probe     probeSizes
	out       string // directory for trace files
	selfcheck bool
}

// result is what a run measured for one workload.
type result struct {
	w         *workload
	jobs      int // per round
	rounds    []round
	e2e       metrics
	layers    metrics // traced runs only
	attempted int
	failed    int
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "run only this workload and print the driver's JSON result line (default: all, interleaved)")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: picks the request bodies, never the amount of work")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "timed seconds per workload")
	traceFlag := flag.Int("trace", -1, "1: add the traced round and report the per-layer metrics; 0: end-to-end only (default: 0 with -workload, 1 without)")
	flag.StringVar(&cfg.out, "out", "bench/out", "directory for the trace-<workload>.json files")
	flag.BoolVar(&cfg.selfcheck, "selfcheck", false, "run everything twice and compare the two runs against the bounds in BENCHMARK.json")
	flag.Parse()
	cfg.rounds, cfg.probe = rounds, fullProbe
	cfg.trace = *traceFlag == 1 || (*traceFlag < 0 && cfg.workload == "")

	var err error
	switch {
	case cfg.selfcheck:
		err = selfcheck(cfg, os.Stdout)
	case cfg.workload != "":
		err = driverRun(cfg, os.Stdout)
	default:
		_, err = run(cfg, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// driverRun is one run under the driver's contract: one workload, and as
// the last line of standard output one JSON object with the end-to-end
// metrics (-trace 0) or the per-layer metrics (-trace 1).
func driverRun(cfg config, out io.Writer) error {
	res, err := run(cfg, out)
	if err != nil {
		return err
	}
	r := res[0]
	m := r.e2e
	if cfg.trace {
		m = r.layers
	}
	line, err := json.Marshal(struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{true, r.attempted, r.failed, m})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// run executes the protocol: prepare and verify each workload, run the
// rounds with the workloads interleaved inside each, then (traced runs) one
// traced round and the layer probes per workload. Any wrong answer is an
// error: the benchmark reports no number for a run that was not correct.
func run(cfg config, out io.Writer) ([]*result, error) {
	// One rank goroutine per core: more busy goroutines than cores measures
	// the OS scheduler, not this program.
	exec.SetDefaultWorkers(1)
	cpu0 := readCPUStat()

	var res []*result
	for _, w := range newWorkloads(cfg.seed) {
		if cfg.workload == "" || cfg.workload == w.name {
			res = append(res, &result{w: w})
		}
	}
	if len(res) == 0 {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	// A traced run spends half its time on the untraced rounds (the baseline
	// the tracing overhead is taken against) and the rest on the probes.
	budget := cfg.seconds / float64(cfg.rounds)
	if cfg.trace {
		budget /= 2
	}
	maxJobs := 0
	for _, r := range res {
		if err := r.w.verifyReference(); err != nil {
			return nil, err
		}
		r.jobs = cfg.jobs
		if r.jobs <= 0 {
			mean, err := r.w.pilot()
			if err != nil {
				return nil, err
			}
			r.jobs = max(10, int(budget/mean.Seconds()))
		}
		maxJobs = max(maxJobs, r.jobs)
	}
	printHeader(out, cfg, res)

	lat := make([]float64, 0, maxJobs)
	for i := 0; i < cfg.rounds; i++ {
		for _, r := range res {
			r.rounds = append(r.rounds, r.w.runRound(r.jobs, lat))
		}
	}
	for _, r := range res {
		r.e2e = endToEnd(r.rounds)
		_, r.attempted, r.failed, _, _ = totals(r.rounds)
	}
	if cfg.trace {
		if err := os.MkdirAll(cfg.out, 0o755); err != nil {
			return nil, err
		}
		for _, r := range res {
			tr := newTracer(ranks)
			layers, attempted, failed, err := tracedRound(r, tr, cfg.probe)
			if err != nil {
				return nil, fmt.Errorf("%s: traced round: %w", r.w.name, err)
			}
			r.layers = layers
			r.attempted += attempted
			r.failed += failed
			hostMetrics(r, cpu0)
			path := filepath.Join(cfg.out, "trace-"+r.w.name+".json")
			if err := writeChromeTrace(path, "bench "+r.w.name, tr.all()); err != nil {
				return nil, err
			}
		}
	}
	for _, r := range res {
		printResult(out, r)
	}
	for _, r := range res {
		if r.failed > 0 {
			return nil, fmt.Errorf("%s: %d of %d jobs failed or answered wrong", r.w.name, r.failed, r.attempted)
		}
	}
	return res, nil
}

// printHeader records what makes two runs comparable.
func printHeader(out io.Writer, cfg config, res []*result) {
	fmt.Fprintf(out, "# bench seed=%d GOMAXPROCS=%d nproc=%d %s %s/%s rounds=%d seconds/workload=%g trace=%v groups=1 ranks=%d exec_workers=1 clients=1 (closed loop)\n",
		cfg.seed, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH, cfg.rounds, cfg.seconds, cfg.trace, ranks)
	for _, r := range res {
		fmt.Fprintf(out, "# %-13s %d jobs/round + %d warm-up, %d set-ups/round  %s %s",
			r.w.name, r.jobs, (r.jobs+9)/10, setupSamples, r.w.path, r.w.body)
		if r.w.solve != nil {
			fmt.Fprintf(out, "  SpmvFormat=%s", r.w.spmvFormat)
		}
		fmt.Fprintln(out)
	}
}

// printResult prints every metric of one workload by name, with its unit.
func printResult(out io.Writer, r *result) {
	p50 := rawP50(r.rounds)
	fmt.Fprintf(out, "\n== %s: attempted=%d succeeded=%d failed=%d failed_share=%g  host.round_spread=%.4f disturbed=%v\n",
		r.w.name, r.attempted, r.attempted-r.failed, r.failed, float64(r.failed)/float64(r.attempted), iqrShare(p50), disturbed(p50))
	fmt.Fprintf(out, "   percentiles: midmean over %d rounds of per-round values, each over %d jobs; setup_s: midmean of %d samples\n",
		len(r.rounds), r.jobs, len(r.rounds)*setupSamples)
	fmt.Fprintf(out, "   times are divided by the host's slowdown, per round: midmean %.3f; raw latency_p50_ms %.6g\n",
		midmean(column(r.rounds, func(x round) float64 { return x.slow })), midmean(p50))
	printMetrics(out, r.e2e)
	if r.layers != nil {
		fmt.Fprintf(out, "   -- per layer (traced round and probes)\n")
		printMetrics(out, r.layers)
	}
}

func printMetrics(out io.Writer, m metrics) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "   %-32s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

// contract is the part of BENCHMARK.json this program reads back.
type contract struct {
	Workloads []struct{ Name string }
	EndToEnd  []contractMetric `json:"end_to_end"`
	PerLayer  []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name, Unit, Better string
	Bound              float64
}

func loadContract(path string) (*contract, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

// worseBy is how much worse b is than a, as a share of a, for a metric
// whose better direction is given; negative when b is better.
func worseBy(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// selfcheck runs the whole protocol twice in this process and holds the two
// runs against each other: no end-to-end metric of any workload may differ,
// in either direction, by more than its bound.
func selfcheck(cfg config, out io.Writer) error {
	c, err := loadContract("BENCHMARK.json")
	if err != nil {
		return err
	}
	cfg.workload, cfg.trace = "", false
	// Only the end-to-end figures of a run are kept: anything more the first
	// run left alive would count as live heap in the second.
	type summary struct {
		name string
		e2e  metrics
	}
	var runs [2][]summary
	for i := range runs {
		t0 := time.Now()
		res, err := run(cfg, io.Discard)
		if err != nil {
			return err
		}
		for _, r := range res {
			runs[i] = append(runs[i], summary{r.w.name, r.e2e})
		}
		fmt.Fprintf(out, "# selfcheck run %d done in %.0fs\n", i+1, time.Since(t0).Seconds())
	}
	breaches := 0
	fmt.Fprintf(out, "%-14s %-18s %14s %14s %9s %7s\n", "workload", "metric", "run 1", "run 2", "diff", "bound")
	for i, a := range runs[0] {
		b := runs[1][i]
		for _, cm := range c.EndToEnd {
			va, vb := a.e2e[cm.Name].Value, b.e2e[cm.Name].Value
			diff := math.Abs(worseBy(va, vb, cm.Better))
			mark := ""
			if diff > cm.Bound {
				mark = "  BREACH"
				breaches++
			}
			fmt.Fprintf(out, "%-14s %-18s %14.6g %14.6g %8.2f%% %6.0f%%%s\n", a.name, cm.Name, va, vb, 100*diff, 100*cm.Bound, mark)
		}
	}
	if breaches > 0 {
		return fmt.Errorf("selfcheck: %d metrics differ by more than their bound between two runs of the same code", breaches)
	}
	return nil
}
