package serve

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// benchSched builds a warm pool for one sub-benchmark and tears it down
// after. Group communicators are created here, outside the timed region —
// the whole point of serving is that jobs never pay for comm.Run.
func benchSched(b *testing.B, groups, ranks int) *Scheduler {
	b.Helper()
	s := NewScheduler(Options{Groups: groups, Ranks: ranks, QueueDepth: 256})
	b.Cleanup(s.Stop)
	return s
}

// latRecorder collects per-job wall times so sub-benchmarks can report p50
// and p99 alongside ns/op.
type latRecorder struct {
	mu   sync.Mutex
	durs []time.Duration
}

func (l *latRecorder) add(d time.Duration) {
	l.mu.Lock()
	l.durs = append(l.durs, d)
	l.mu.Unlock()
}

func (l *latRecorder) report(b *testing.B, elapsed time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.durs) == 0 {
		return
	}
	sum := SummarizeLatency(l.durs, elapsed)
	b.ReportMetric(float64(sum.P50.Microseconds())/1000, "p50-ms")
	b.ReportMetric(float64(sum.P99.Microseconds())/1000, "p99-ms")
	if elapsed > 0 {
		b.ReportMetric(sum.JobsPerSec, "jobs/sec")
	}
}

// BenchmarkServe measures the serving path end to end (scheduler admission,
// warm-group dispatch, job body) without the HTTP layer. BENCH_serve.json
// records the rows; verify.sh gates the expr row's allocs/op against it.
func BenchmarkServe(b *testing.B) {
	b.Run("expr/groups=2/ranks=2", func(b *testing.B) {
		s := benchSched(b, 2, 2)
		req := &ExprRequest{Expr: "sqrt(x*x + y*y) + exp(-x)", N: 4096}
		if err := req.Validate(); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Do("bench", req.Job()); err != nil { // warm arrays + plan
			b.Fatal(err)
		}
		var lat latRecorder
		b.ResetTimer()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			t0 := time.Now()
			if _, err := s.Do("bench", req.Job()); err != nil {
				b.Fatal(err)
			}
			lat.add(time.Since(t0))
		}
		b.StopTimer()
		lat.report(b, time.Since(start))
	})

	b.Run("solve/groups=2/ranks=2", func(b *testing.B) {
		s := benchSched(b, 2, 2)
		req := &SolveRequest{Kind: "laplace1d", N: 256}
		if err := req.Validate(); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Do("bench", req.Job()); err != nil { // warm matrix caches
			b.Fatal(err)
		}
		var lat latRecorder
		b.ResetTimer()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			t0 := time.Now()
			if _, err := s.Do("bench", req.Job()); err != nil {
				b.Fatal(err)
			}
			lat.add(time.Since(t0))
		}
		b.StopTimer()
		lat.report(b, time.Since(start))
	})

	b.Run("mixed/conc=8/groups=2/ranks=2", func(b *testing.B) {
		s := benchSched(b, 2, 2)
		expr := &ExprRequest{Expr: "x*y + sin(x)", N: 2048}
		if err := expr.Validate(); err != nil {
			b.Fatal(err)
		}
		solve := &SolveRequest{Kind: "laplace1d", N: 192}
		if err := solve.Validate(); err != nil {
			b.Fatal(err)
		}
		for _, warm := range []JobFunc{expr.Job(), solve.Job()} {
			if _, err := s.Do("bench", warm); err != nil {
				b.Fatal(err)
			}
		}
		var lat latRecorder
		var seq sync.Mutex
		n := 0
		b.SetParallelism(8)
		b.ResetTimer()
		start := time.Now()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				seq.Lock()
				i := n
				n++
				seq.Unlock()
				fn := expr.Job()
				if i%2 == 1 {
					fn = solve.Job()
				}
				t0 := time.Now()
				if _, err := s.Do(fmt.Sprintf("tenant-%d", i%4), fn); err != nil {
					b.Error(err)
					return
				}
				lat.add(time.Since(t0))
			}
		})
		b.StopTimer()
		lat.report(b, time.Since(start))
	})
}
