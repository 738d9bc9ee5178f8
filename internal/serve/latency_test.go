package serve

import (
	"testing"
	"time"
)

func TestSummarizeLatency(t *testing.T) {
	durs := make([]time.Duration, 101)
	for i := range durs {
		durs[i] = time.Duration(100-i) * time.Millisecond // 100ms down to 0: unsorted on entry
	}
	got := SummarizeLatency(durs, 2*time.Second)
	if got.P50 != 50*time.Millisecond || got.P99 != 99*time.Millisecond || got.JobsPerSec != 50.5 {
		t.Errorf("got %+v, want p50 50ms, p99 99ms, 50.5 jobs/sec", got)
	}
	if got := SummarizeLatency(nil, 0); got != (Latency{}) {
		t.Errorf("empty input: got %+v, want zeros", got)
	}
}
