// Command solverbench prints the tables of EXPERIMENTS.md: it runs the
// selected experiments of the internal/experiments registry, one row per
// case, and exits 1 when a case fails or a claim does not hold. Sizes,
// workloads and claims live in the registry; `go test -bench Experiment .`
// times the same cases under testing.B.
//
// -threads sets the exec engine's intra-rank pool, so one run can drive the
// kernels at any pool size (0: ODINHPC_THREADS env, else GOMAXPROCS).
// -faults replays one seeded fault plan in E11 in place of its plan matrix
// (a comm.ParseFaultPlan spec, e.g. "seed=42,drop=0.1,retries=8,delay=0.3").
// -trace records the run under the per-rank trace layer and writes a Chrome
// trace_event timeline (chrome://tracing, Perfetto) to the given path.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"odinhpc/internal/comm"
	"odinhpc/internal/exec"
	"odinhpc/internal/experiments"
	"odinhpc/internal/trace"
)

func main() {
	threads := flag.Int("threads", 0, "intra-rank exec engine workers (0 = ODINHPC_THREADS env, else GOMAXPROCS)")
	faults := flag.String("faults", "", "fault plan for e11 (comm.ParseFaultPlan spec, e.g. \"seed=42,drop=0.1\")")
	traceOut := flag.String("trace", "", "write a Chrome trace_event JSON timeline of the run to this path")
	flag.Usage = usage
	flag.Parse()
	if *threads > 0 {
		exec.SetDefaultWorkers(*threads)
	}
	if *traceOut != "" {
		trace.Start(1 << 18)
	}
	if *faults != "" {
		plan, err := comm.ParseFaultPlan(*faults)
		if err != nil {
			fmt.Fprintf(os.Stderr, "-faults: %v\n", err)
			os.Exit(2)
		}
		experiments.CustomFaults = plan
	}
	ran, failed := 0, 0
	for _, e := range experiments.All {
		if flag.NArg() == 1 && (flag.Arg(0) == "all" || strings.EqualFold(flag.Arg(0), e.ID)) {
			ran++
			if err := experiments.Table(os.Stdout, e); err != nil {
				failed++
				fmt.Fprintln(os.Stderr, "solverbench:", err)
			}
			fmt.Println()
		}
	}
	if ran == 0 {
		usage()
		os.Exit(2)
	}
	if *traceOut != "" {
		if err := writeTrace(*traceOut); err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "-trace: %v\n", err)
		}
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// writeTrace stops the session started for -trace and serializes it.
func writeTrace(path string) error {
	s := trace.Stop()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("trace: %s -> %s\n", s.Summary(), path)
	return nil
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: solverbench [-threads N] [-faults SPEC] [-trace out.json] <experiment|all>")
	for _, e := range experiments.All {
		fmt.Fprintf(os.Stderr, "  %-5s %s\n", strings.ToLower(e.ID), e.Anchor)
	}
}
