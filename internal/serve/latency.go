package serve

import (
	"slices"
	"time"
)

// Latency summarises the wall times of completed jobs: the loadgen's report
// and BenchmarkServe's p50/p99 columns are this one computation.
type Latency struct {
	P50, P99   time.Duration
	JobsPerSec float64 // len(durs) over the elapsed wall time (0 when elapsed is)
}

// SummarizeLatency sorts durs in place and reads the percentiles off it
// (nearest rank below: index p*(n-1)). An empty durs gives zero percentiles.
func SummarizeLatency(durs []time.Duration, elapsed time.Duration) Latency {
	var l Latency
	if n := len(durs); n > 0 {
		slices.Sort(durs)
		l.P50, l.P99 = durs[int(0.50*float64(n-1))], durs[int(0.99*float64(n-1))]
	}
	if elapsed > 0 {
		l.JobsPerSec = float64(len(durs)) / elapsed.Seconds()
	}
	return l
}
