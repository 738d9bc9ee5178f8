// Package experiments is the one definition of the constructed evaluation
// (EXPERIMENTS.md; index in DESIGN.md): each experiment is declared once as
// paper anchor, cases and claim, and a case owns its whole workload. The
// drivers hold no experiment logic: `go test -bench Experiment .` runs every
// case under b.N, `solverbench` prints the cases as table rows and fails on a
// broken claim, TestClaims holds the Exact ones to their claims in tier-1.
package experiments

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"odinhpc/internal/comm"
)

// Experiment is one entry of the registry.
type Experiment struct {
	ID     string // "E4", "E5b": the heading in EXPERIMENTS.md and the row in DESIGN.md
	Anchor string // the paper claim under test
	// Exact: every metric is a count that repeats run to run. TestClaims runs
	// these, and their tables carry no time column, so they diff clean.
	Exact bool
	// Cases lists the rows. It must be cheap: set-up belongs in the bodies.
	Cases func() []Case
	// Check is the claim as a function of the measured rows. It runs only
	// when every case ran; nil means the cases' own errors are the claim.
	Check func(rows []Row) error
}

// Case is one row: a workload at fixed dimensions.
type Case struct {
	Name string // the dimensions, "P=4" or "nx=32/P=4/amg"; no spaces
	Body func(m *Meter) error
}

// Metric is one named column of a row. Name is a unit in testing.B's sense
// (no spaces). Text is set for columns that are not numbers.
type Metric struct {
	Name  string
	Value float64
	Text  string
}

// Row is what one run of a case measured.
type Row struct {
	Case    string
	Elapsed time.Duration // of the measured regions, all iterations together
	Metrics []Metric
}

// Get returns the named metric's value (NaN when the row has none).
func (r Row) Get(name string) float64 {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m.Value
		}
	}
	return math.NaN()
}

// Dim reads an integer dimension out of the case name: Dim("P") of
// "nx=32/P=4/amg" is 4 (0 when absent).
func (r Row) Dim(key string) int {
	for _, part := range strings.Split(r.Case, "/") {
		if v, ok := strings.CutPrefix(part, key+"="); ok {
			n, _ := strconv.Atoi(v)
			return n
		}
	}
	return 0
}

// Timer is the part of *testing.B a case drives, so that ns/op, B/op and
// allocs/op cover the measured regions and none of the set-up.
type Timer interface {
	ResetTimer()
	StartTimer()
	StopTimer()
}

// Run executes the case with iters iterations per measured region. t is the
// benchmark to time (nil outside `go test -bench`).
func (c Case) Run(iters int, t Timer) (Row, error) {
	m := &Meter{N: iters, timer: t, row: Row{Case: c.Name}}
	if t != nil {
		t.StopTimer()
		t.ResetTimer()
	}
	err := c.Body(m)
	return m.row, err
}

// Meter is a case body's handle on its run: the iteration count, the one
// timing helper, and the metrics it reports.
type Meter struct {
	N     int
	timer Timer
	row   Row
}

// Loop calls f m.N times as one measured region and returns the time of the
// fastest call (the mean of three calls of a microsecond kernel is noise).
// With a communicator every rank calls Loop: barriers bracket the region and
// rank 0 keeps the time (the other ranks get 0).
func (m *Meter) Loop(c *comm.Comm, f func() error) (time.Duration, error) {
	lead := c == nil || c.Rank() == 0
	if c != nil {
		c.Barrier()
	}
	if lead && m.timer != nil {
		m.timer.StartTimer()
	}
	start := time.Now()
	best := time.Duration(math.MaxInt64)
	for i := 0; i < m.N; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		best = min(best, time.Since(t0))
	}
	if c != nil {
		c.Barrier()
	}
	if !lead {
		return 0, nil
	}
	d := time.Since(start)
	if m.timer != nil {
		m.timer.StopTimer()
	}
	m.row.Elapsed += d
	return best, nil
}

// Runs makes one whole comm.RunStats(p, body) the iteration, for the
// experiments whose metric is the traffic of a complete run — array creation
// and control messages included. Such counts repeat exactly, so it returns
// the last run's.
func (m *Meter) Runs(p int, body func(c *comm.Comm) error) (traffic comm.StatsSnapshot, err error) {
	_, err = m.Loop(nil, func() error {
		stats, err := comm.RunStats(p, body)
		if err == nil {
			traffic = stats.Snapshot()
		}
		return err
	})
	return traffic, err
}

// Report records a numeric metric. Call it from one goroutine (rank 0, or
// after comm.Run returns).
func (m *Meter) Report(name string, v float64) {
	m.row.Metrics = append(m.row.Metrics, Metric{Name: name, Value: v})
}

// Note records a column that is not a number.
func (m *Meter) Note(name, text string) {
	m.row.Metrics = append(m.row.Metrics, Metric{Name: name, Text: text})
}

// Table runs every case of e — once for an Exact experiment, three times per
// measured region otherwise — prints one row per case to w, then holds the
// rows against the claim. The error is a failed case or a broken claim.
func Table(w io.Writer, e Experiment) error {
	iters := 3
	if e.Exact {
		iters = 1
	}
	fmt.Fprintf(w, "==== %s: %s ====\n", e.ID, e.Anchor)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	var rows []Row
	var header string
	failed := 0
	for _, c := range e.Cases() {
		row, err := c.Run(iters, nil)
		if err != nil {
			failed++
			fmt.Fprintf(tw, "%s\tFAIL: %v\n", c.Name, err)
			continue
		}
		rows = append(rows, row)
		if !e.Exact {
			row.Metrics = append(row.Metrics, Metric{Name: "ms/op", Value: ms(row.Elapsed) / float64(iters)})
		}
		names, cells := "case", c.Name
		for _, m := range row.Metrics {
			names += "\t" + m.Name
			cells += "\t" + m.String()
		}
		if names != header {
			header = names
			fmt.Fprintln(tw, header)
		}
		fmt.Fprintln(tw, cells)
	}
	tw.Flush()
	var err error
	switch {
	case failed > 0:
		err = fmt.Errorf("%d of %d cases failed", failed, failed+len(rows))
	case e.Check != nil:
		err = e.Check(rows)
	}
	switch {
	case err != nil:
		fmt.Fprintf(w, "claim FAILED: %v\n", err)
		return fmt.Errorf("%s: %w", e.ID, err)
	case e.Check != nil:
		fmt.Fprintln(w, "claim holds.")
	}
	return nil
}

// String renders the metric for a table cell: text as is, whole numbers and
// anything past a thousand without a fraction, the rest to four significant
// digits.
func (m Metric) String() string {
	switch {
	case m.Text != "":
		return m.Text
	case m.Value == math.Trunc(m.Value) || math.Abs(m.Value) >= 1000:
		return strconv.FormatFloat(m.Value, 'f', 0, 64)
	}
	return strconv.FormatFloat(m.Value, 'g', 4, 64)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Throughput is Loop for a single-rank kernel that streams bytes per call:
// it reports the region as MB/s.
func (m *Meter) Throughput(c *comm.Comm, bytes int, f func()) error {
	d, err := m.Loop(c, func() error { f(); return nil })
	m.Report("MB/s", float64(bytes)/d.Seconds()/1e6)
	return err
}

// sweep makes one case per value of an integer dimension, named "dim=v".
func sweep(dim string, vals []int, body func(v int, m *Meter) error) []Case {
	cases := make([]Case, len(vals))
	for i, v := range vals {
		cases[i] = Case{fmt.Sprintf("%s=%d", dim, v), func(m *Meter) error { return body(v, m) }}
	}
	return cases
}

// each makes a Check of a per-row claim; it names the first row that breaks it.
func each(claim func(Row) error) func([]Row) error {
	return func(rows []Row) error {
		for _, r := range rows {
			if err := claim(r); err != nil {
				return fmt.Errorf("%s: %w", r.Case, err)
			}
		}
		return nil
	}
}

// want is nil when ok holds and an error built from the format otherwise.
func want(ok bool, format string, args ...any) error {
	if ok {
		return nil
	}
	return fmt.Errorf(format, args...)
}

// All is the registry, in EXPERIMENTS.md order.
var All = []Experiment{e1, e2, e3, e4, e5, e5b, e6, e7, e8, e9, e10, e11, e12, e13, e14}
