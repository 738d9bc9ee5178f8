// Command benchguard holds `go test -bench` output on stdin against a
// recorded baseline (one of the BENCH_*.json files) and gates only what
// repeats exactly.
//
// Usage:
//
//	go test -run XXX -bench Experiment/E5b -benchmem . | benchguard -baseline BENCH_exec.json
//
// Allocation counts have no noise to tolerate: a baseline row that carries
// allocs_per_op fails the run when the measured allocs/op (run the benchmark
// with -benchmem or b.ReportAllocs) rises above it at all. A baseline row
// that no line on stdin resolves fails the run too — a renamed benchmark
// would otherwise leave its rows unguarded.
//
// ns/op is printed as measured, never gated, and the baselines store none:
// identical code has measured 65% apart within an hour on a shared host.
// Wall-clock regressions are judged by an interleaved A/B of `go run ./bench`
// (bench/README.md), not against a stored number.
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

// baseline is the part of a BENCH_*.json file the guard reads: the benchmark
// function and one result row per sub-benchmark path.
type baseline struct {
	Benchmark string `json:"benchmark"`
	Results   []struct {
		Benchmark   string `json:"benchmark"` // overrides the file's, for a second benchmark's rows
		Sub         string `json:"sub"`
		AllocsPerOp *int64 `json:"allocs_per_op"` // nil: not gated
	} `json:"results"`
}

// want is what one baseline row holds a measured row against.
type want struct {
	allocs *int64
	seen   bool
}

// benchLine matches one result row of `go test -bench` output:
// BenchmarkName/sub/path-GOMAXPROCS <iters> <ns> ns/op [... <n> allocs/op]
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op(?:.*?\s(\d+) allocs/op)?`)

func main() {
	basePath := flag.String("baseline", "", "baseline JSON file (one of BENCH_*.json)")
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
	wants := map[string]*want{}
	for _, r := range base.Results {
		bench := base.Benchmark
		if r.Benchmark != "" {
			bench = r.Benchmark
		}
		wants[bench+"/"+r.Sub] = &want{allocs: r.AllocsPerOp}
	}

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
		w, ok := wants[name]
		if !ok {
			continue
		}
		w.seen = true
		fmt.Printf("benchguard: %s: %s ns/op (not gated)\n", name, m[2])
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
	seen := len(wants)
	for name, w := range wants {
		if !w.seen {
			seen--
			failed = true
			fmt.Printf("benchguard: FAIL %s: no row on stdin resolves this baseline row\n", name)
		}
	}
	fmt.Printf("benchguard: checked %d/%d rows against %s\n", seen, len(wants), *basePath)
	if failed {
		os.Exit(1)
	}
}
