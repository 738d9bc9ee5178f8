// Command odinstress is the schedule-sweep stress driver: it replays the
// stress corpus (internal/comm/stresstest) on the conformance harness
// (internal/comm/chaostest) across a deterministic grid of GOMAXPROCS ×
// exec pool size × rank count × transport × fault plan, with seeded
// scheduling pressure applied inside the comm fabric. See DESIGN.md
// "Conformance harness".
//
// Sweep (the default):
//
//	go run ./cmd/odinstress                     # smoke grid, all light kernels
//	go run ./cmd/odinstress -grid=full -heavy   # nightly grid, heavy tier too
//	go run ./cmd/odinstress -kernel=cg-laplace1d -seed=7
//
// Every point prints one line, PASS/FAIL plus its fingerprint; the sweep
// report is deterministic for a fixed grid and seed (timings go to stderr),
// so two runs are diffable and the trailing checksum detects divergence.
// On failure each failing configuration is shrunk to the smallest still-
// failing point (disable with -minimize=false) and the tool exits 1 after
// printing one replay line per failure:
//
//	odinstress -replay v1/permuted-collectives/P2/G1/W1/inproc/none/s11
//
// Replay reruns exactly one fingerprinted point and exits 0/1 on pass/fail.
// Buggy corpus entries (kernels that exist to prove the harness catches
// real schedule bugs) never run in sweeps — only by -replay/-kernel.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"odinhpc/internal/comm/chaostest"
	"odinhpc/internal/comm/stresstest"
)

func main() {
	var (
		gridName = flag.String("grid", "smoke", "sweep grid: smoke or full")
		seed     = flag.Int64("seed", 1, "master sweep seed; every point derives its own seed from it")
		kernels  = flag.String("kernel", "", "comma-separated kernel names to sweep (default: all non-heavy, non-buggy)")
		heavy    = flag.Bool("heavy", false, "include heavy kernels in the sweep")
		minimize = flag.Bool("minimize", true, "shrink failing points to the smallest reproducing configuration")
		replay   = flag.String("replay", "", "replay one fingerprint (v1/kernel/P#/G#/W#/transport/plan/s#) instead of sweeping")
		timeout  = flag.Duration("timeout", 0, "override the per-session RecvTimeout (deadlock-detection latency)")
		list     = flag.Bool("list", false, "list corpus kernels and fault plans, then exit")
	)
	flag.Parse()
	if *list {
		fmt.Println("kernels:")
		for _, name := range stresstest.KernelNames() {
			fmt.Println("  " + name)
		}
		fmt.Println("plans: " + chaostest.PlanNone + ", " + strings.Join(chaostest.PlanNames(), ", "))
		return
	}
	grid, err := buildGrid(*gridName, *seed, *timeout)
	if err != nil {
		fatal(err)
	}
	if *replay != "" {
		os.Exit(runReplay(grid, *replay, *minimize))
	}
	os.Exit(runSweep(grid, *kernels, *heavy, *minimize))
}

func buildGrid(name string, seed int64, timeout time.Duration) (chaostest.Grid, error) {
	var g chaostest.Grid
	switch name {
	case "smoke":
		g = chaostest.SmokeGrid(seed)
	case "full":
		g = chaostest.FullGrid(seed)
	default:
		return g, fmt.Errorf("odinstress: unknown grid %q (want smoke or full)", name)
	}
	if timeout > 0 {
		g.RecvTimeout = timeout
	}
	return g, nil
}

// runReplay reruns one fingerprinted point verbatim; on failure it also
// minimizes (unless disabled) so a broad failing point hands back its
// smallest reproduction.
func runReplay(g chaostest.Grid, fp string, minimize bool) int {
	p, err := chaostest.ParseFingerprint(fp)
	if err != nil {
		fatal(err)
	}
	k, ok := stresstest.Find(p.Kernel)
	if !ok {
		fatal(fmt.Errorf("odinstress: fingerprint names unknown kernel %q", p.Kernel))
	}
	out := chaostest.RunPoint(g, p, k)
	if out.Err == nil {
		fmt.Printf("PASS %s\n", p.Fingerprint())
		fmt.Fprintf(os.Stderr, "replayed in %v\n", out.Elapsed.Round(time.Millisecond))
		return 0
	}
	fmt.Printf("FAIL %s: %v\n", p.Fingerprint(), out.Err)
	if minimize {
		min := chaostest.Minimize(g, p, k, logStderr)
		fmt.Printf("MINIMIZED %s\n", min.Fingerprint())
		fmt.Printf("replay: odinstress -replay %s\n", min.Fingerprint())
	}
	return 1
}

func runSweep(g chaostest.Grid, kernelList string, heavy, minimize bool) int {
	kernels := stresstest.SweepKernels(heavy)
	if kernelList != "" {
		kernels = nil
		for _, name := range strings.Split(kernelList, ",") {
			k, ok := stresstest.Find(strings.TrimSpace(name))
			if !ok {
				fatal(fmt.Errorf("odinstress: unknown kernel %q (see -list)", name))
			}
			kernels = append(kernels, k)
		}
	}
	start := time.Now()
	res := chaostest.Sweep(g, kernels, func(format string, args ...any) {
		fmt.Printf(format+"\n", args...)
	})
	fmt.Printf("sweep: %d points, %d failures, checksum %016x\n", res.Points, len(res.Failures), res.Checksum)
	fmt.Fprintf(os.Stderr, "swept in %v\n", time.Since(start).Round(time.Millisecond))
	if len(res.Failures) == 0 {
		return 0
	}
	for _, f := range res.Failures {
		fmt.Printf("FAIL %s: %v\n", f.Point.Fingerprint(), f.Err)
		rp := f.Point
		if minimize {
			k, _ := stresstest.Find(f.Point.Kernel)
			rp = chaostest.Minimize(g, f.Point, k, logStderr)
			fmt.Printf("MINIMIZED %s\n", rp.Fingerprint())
		}
		fmt.Printf("replay: odinstress -replay %s\n", rp.Fingerprint())
	}
	return 1
}

func logStderr(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}
