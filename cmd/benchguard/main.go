// Command benchguard compares `go test -bench` output on stdin against a
// recorded baseline (BENCH_exec.json or BENCH_fusion.json) and flags
// regressions of the tracing-disabled hot paths.
//
// Usage:
//
//	go test -run XXX -bench ExecScaling . | benchguard -baseline BENCH_exec.json
//
// Two thresholds, because the baselines were recorded on a single-core host
// whose run-to-run noise exceeds any honest tolerance: rows slower than the
// baseline by more than -warn (default 3%) are reported but do not fail the
// run; rows slower by more than -fail (default 50%) exit non-zero — that
// magnitude is a real regression (e.g. an instrumentation site that started
// paying when disabled), not scheduler noise.
//
// Allocation counts have no noise to tolerate: a baseline row that carries
// allocs_per_op fails the run when the measured allocs/op (run the benchmark
// with -benchmem or b.ReportAllocs) rises above it at all.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// baseline mirrors the shared shape of the BENCH_*.json files: a benchmark
// name plus result rows keyed either by an explicit sub-benchmark path
// (BENCH_comm.json), or kernel/threads (BenchmarkExecScaling), or
// depth/block (BenchmarkFusionVM).
type baseline struct {
	Benchmark string `json:"benchmark"`
	Results   []struct {
		Benchmark   string `json:"benchmark"` // overrides the file's, for a second benchmark's rows
		Sub         string `json:"sub"`
		Kernel      string `json:"kernel"`
		Threads     int    `json:"threads"`
		Depth       int    `json:"depth"`
		Block       int    `json:"block"`
		NsPerOp     int64  `json:"ns_per_op"`
		AllocsPerOp *int64 `json:"allocs_per_op"` // nil: not gated
	} `json:"results"`
}

// want is what one baseline row holds a measured row against.
type want struct {
	ns     int64
	allocs *int64
}

// subKey renders the sub-benchmark path a baseline row corresponds to,
// matching the b.Run names in bench_test.go. An explicit sub path wins;
// the keyed forms remain for the older baseline files.
func subKey(sub, kernel string, threads, depth, block int) string {
	if sub != "" {
		return sub
	}
	if kernel != "" {
		return fmt.Sprintf("%s/threads=%d", kernel, threads)
	}
	return fmt.Sprintf("depth=%d/block=%d", depth, block)
}

// benchLine matches one result row of `go test -bench` output:
// BenchmarkName/sub/path-GOMAXPROCS <iters> <ns> ns/op [... <n> allocs/op]
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op(?:.*?\s(\d+) allocs/op)?`)

func main() {
	basePath := flag.String("baseline", "", "baseline JSON file (BENCH_exec.json / BENCH_fusion.json)")
	warn := flag.Float64("warn", 0.03, "report rows slower than baseline by this fraction")
	fail := flag.Float64("fail", 0.50, "exit non-zero for rows slower by this fraction")
	flag.Parse()
	if *basePath == "" {
		fmt.Fprintln(os.Stderr, "benchguard: -baseline is required")
		os.Exit(2)
	}
	raw, err := os.ReadFile(*basePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: %v\n", err)
		os.Exit(2)
	}
	var base baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: %s: %v\n", *basePath, err)
		os.Exit(2)
	}
	wants := map[string]want{}
	for _, r := range base.Results {
		bench := base.Benchmark
		if r.Benchmark != "" {
			bench = r.Benchmark
		}
		wants[bench+"/"+subKey(r.Sub, r.Kernel, r.Threads, r.Depth, r.Block)] = want{r.NsPerOp, r.AllocsPerOp}
	}

	seen := 0
	failed := false
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line) // pass the bench output through for the log
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		name := m[1]
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			continue
		}
		w, ok := wants[name]
		if !ok {
			continue
		}
		seen++
		ratio := ns/float64(w.ns) - 1
		switch {
		case ratio > *fail:
			failed = true
			fmt.Printf("benchguard: FAIL %s: %.0f ns/op vs baseline %d (+%.1f%%)\n", name, ns, w.ns, 100*ratio)
		case ratio > *warn:
			fmt.Printf("benchguard: warn %s: %.0f ns/op vs baseline %d (+%.1f%%)\n", name, ns, w.ns, 100*ratio)
		}
		if w.allocs != nil {
			allocs, err := strconv.ParseInt(m[3], 10, 64)
			switch {
			case err != nil:
				failed = true
				fmt.Printf("benchguard: FAIL %s: baseline gates allocs/op at %d but the row reports none (run with -benchmem)\n", name, *w.allocs)
			case allocs > *w.allocs:
				failed = true
				fmt.Printf("benchguard: FAIL %s: %d allocs/op vs baseline %d\n", name, allocs, *w.allocs)
			}
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: reading stdin: %v\n", err)
		os.Exit(2)
	}
	if seen == 0 {
		fmt.Fprintf(os.Stderr, "benchguard: no rows on stdin matched %s baselines\n", base.Benchmark)
		os.Exit(1)
	}
	fmt.Printf("benchguard: checked %d/%d rows against %s\n", seen, len(wants), *basePath)
	if failed {
		os.Exit(1)
	}
}
