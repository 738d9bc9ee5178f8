package exec

import (
	"fmt"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
)

func TestParallelForCoversEveryIndexOnce(t *testing.T) {
	for _, w := range []int{1, 2, 4, 7} {
		for _, n := range []int{0, 1, 5, DefaultGrain - 1, DefaultGrain + 1, 3*DefaultGrain + 17} {
			e := New(WithWorkers(w))
			hits := make([]int32, n)
			e.ParallelFor(n, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("w=%d n=%d: index %d visited %d times", w, n, i, h)
				}
			}
		}
	}
}

func TestParallelForSerialIsSingleSpan(t *testing.T) {
	e := New(WithWorkers(1))
	var spans [][2]int
	e.ParallelFor(100_000, func(lo, hi int) { spans = append(spans, [2]int{lo, hi}) }) //lint:allow hotalloc Collecting the spans is the point of this test
	if len(spans) != 1 || spans[0] != [2]int{0, 100_000} {
		t.Fatalf("one-worker engine must run one [0,n) span, got %v", spans)
	}
}

func TestChunkingIndependentOfWorkers(t *testing.T) {
	for _, n := range []int{1, DefaultGrain, DefaultGrain*maxChunks + 1, 1 << 22} {
		s1, c1 := New(WithWorkers(1)).chunking(n)
		s7, c7 := New(WithWorkers(7)).chunking(n)
		if s1 != s7 || c1 != c7 {
			t.Fatalf("n=%d: chunking differs by workers: (%d,%d) vs (%d,%d)", n, s1, c1, s7, c7)
		}
		if c1 > maxChunks {
			t.Fatalf("n=%d: %d chunks exceeds cap %d", n, c1, maxChunks)
		}
		if c1*s1 < n {
			t.Fatalf("n=%d: chunks %d x size %d fail to cover", n, c1, s1)
		}
	}
}

func TestParallelReduceSum(t *testing.T) {
	n := 123_457
	want := n * (n - 1) / 2
	for _, w := range []int{1, 2, 4, 7} {
		e := New(WithWorkers(w), WithGrain(1000))
		got := ParallelReduce(e, n, func(lo, hi int) int {
			s := 0
			for i := lo; i < hi; i++ {
				s += i
			}
			return s
		}, func(a, b int) int { return a + b })
		if got != want {
			t.Fatalf("w=%d: sum = %d, want %d", w, got, want)
		}
	}
}

func TestParallelReduceEmptyUsesEmptyFold(t *testing.T) {
	e := New(WithWorkers(4))
	got := ParallelReduce(e, 0, func(lo, hi int) int {
		if lo != 0 || hi != 0 {
			t.Fatalf("empty reduce folded [%d,%d)", lo, hi) //lint:allow hotalloc Failure path only
		}
		return -7
	}, func(a, b int) int { return a + b })
	if got != -7 {
		t.Fatalf("empty reduce = %d, want fold(0,0) = -7", got)
	}
}

// Reduce results must be bitwise reproducible across every pool size, 1
// included, even for a non-associative combine (floating-point addition
// stands in here via a combine that records association order).
func TestReduceTreeOrderIndependentOfWorkers(t *testing.T) {
	n := 40 * 1000
	shape := func(w int) string {
		e := New(WithWorkers(w), WithGrain(1000))
		return ParallelReduce(e, n, func(lo, hi int) string {
			return fmt.Sprintf("[%d,%d)", lo, hi) //lint:allow hotalloc Recording the combine shape is the point of this test
		}, func(a, b string) string { return "(" + a + "+" + b + ")" })
	}
	ref := shape(1)
	for _, w := range []int{2, 3, 4, 7, 16} {
		if s := shape(w); s != ref {
			t.Fatalf("combine tree changed with workers=%d:\n%s\nvs\n%s", w, s, ref)
		}
	}
}

// TestChunkTreeIsPairwise holds the binary-counter combine to the tree it
// stands for, at every chunk count the engine can produce: pair neighbours
// at width 1, 2, 4, ... in chunk-index order, an unpaired subtree moving up
// unchanged.
func TestChunkTreeIsPairwise(t *testing.T) {
	join := func(a, b string) string { return "(" + a + "+" + b + ")" }
	for count := 1; count <= maxChunks; count++ {
		partials := make([]string, count)
		var tree chunkTree[string]
		for c := range partials {
			partials[c] = strconv.Itoa(c)
			tree.push(partials[c], join)
		}
		for width := 1; width < count; width *= 2 {
			for i := 0; i+width < count; i += 2 * width {
				partials[i] = join(partials[i], partials[i+width])
			}
		}
		if got := tree.result(join); got != partials[0] {
			t.Fatalf("%d chunks: counter gives %s, pairwise tree %s", count, got, partials[0])
		}
	}
}

func TestPanicPropagatesWithOriginalValue(t *testing.T) {
	for _, w := range []int{1, 4} {
		e := New(WithWorkers(w), WithGrain(10))
		func() {
			defer func() {
				r := recover()
				if r != "dense: index 3 out of range" {
					t.Fatalf("w=%d: recovered %v, want original panic value", w, r)
				}
			}()
			e.ParallelFor(1000, func(lo, hi int) {
				if lo == 0 {
					panic("dense: index 3 out of range")
				}
			})
			t.Fatalf("w=%d: ParallelFor did not panic", w)
		}()
	}
}

func TestLowestChunkPanicWins(t *testing.T) {
	e := New(WithWorkers(4), WithGrain(10))
	defer func() {
		if r := recover(); r != "chunk0" {
			t.Fatalf("recovered %v, want lowest-chunk panic value chunk0", r)
		}
	}()
	e.ParallelFor(1000, func(lo, hi int) {
		panic(fmt.Sprintf("chunk%d", lo/10)) //lint:allow hotalloc Panic path only
	})
	t.Fatal("ParallelFor did not panic")
}

// TestSnapshotCounts reads one fan-out ParallelFor and one below-grain
// reduce off Snapshot: 2 calls, 10 + 1 chunks, 1000 + 50 items.
func TestSnapshotCounts(t *testing.T) {
	e := New(WithWorkers(4), WithGrain(100))
	if s := e.Snapshot(); s != (Stats{}) {
		t.Fatalf("fresh engine snapshot = %+v", s)
	}
	e.ParallelFor(1000, func(lo, hi int) {})
	ParallelReduce(e, 50, func(lo, hi int) int { return hi - lo }, func(a, b int) int { return a + b })
	s := e.Snapshot()
	if s.Calls != 2 || s.Chunks != 11 || s.Items != 1050 {
		t.Fatalf("snapshot = %+v, want 2 calls, 11 chunks, 1050 items", s)
	}
}

// axpyArgs and axpyRange are a solver-sized sweep in the closure-free form
// the hot kernels use.
type axpyArgs struct {
	alpha float64
	x, y  []float64
}

func axpyRange(a axpyArgs, lo, hi int) {
	x, y := a.x[lo:hi], a.y[lo:hi]
	for i := range x {
		y[i] += a.alpha * x[i]
	}
}

func sumRange(a axpyArgs, lo, hi int) float64 {
	var acc float64
	for _, v := range a.x[lo:hi] {
		acc += v
	}
	return acc
}

// TestAccountingIsPayForUse pins the observed/unobserved contract on the
// inline and the fan-out path alike: an engine nobody has looked at counts
// nothing (its first Snapshot is zero), and from that first Snapshot on the
// deltas are exact.
func TestAccountingIsPayForUse(t *testing.T) {
	const calls, n = 50, 1000
	x, y := make([]float64, n), make([]float64, n)
	for _, tc := range []struct {
		name   string
		e      *Engine
		chunks int64 // per call
	}{
		{"inline", New(WithWorkers(1)), 1},
		{"one-chunk", New(WithWorkers(4)), 1},
		{"fan-out", New(WithWorkers(4), WithGrain(100)), 10},
	} {
		sweep := func() {
			for i := 0; i < calls; i++ {
				ForRange(tc.e, n, axpyArgs{2, x, y}, axpyRange)
				ReduceRange(tc.e, n, axpyArgs{x: x}, sumRange, func(a, b float64) float64 { return a + b })
			}
		}
		sweep()
		s0 := tc.e.Snapshot()
		if s0 != (Stats{}) {
			t.Errorf("%s: first snapshot of a never-observed engine = %+v, want zero", tc.name, s0)
		}
		sweep()
		s1 := tc.e.Snapshot()
		want := Stats{Calls: 2 * calls, Chunks: 2 * calls * tc.chunks, Items: 2 * calls * n}
		if s1.Nanos <= 0 {
			t.Errorf("%s: observed calls took %d ns", tc.name, s1.Nanos)
		}
		if s1.Nanos = 0; s1 != want {
			t.Errorf("%s: delta after the first snapshot = %+v, want %+v", tc.name, s1, want)
		}
	}
}

// TestSnapshotDeltasExactUnderConcurrency: two goroutines call an observed
// engine while a third snapshots it. Snapshots never go backwards and the
// delta across the whole run is every call, exactly. Run under -race.
func TestSnapshotDeltasExactUnderConcurrency(t *testing.T) {
	const callers, calls, n = 2, 2000, 256
	e := New(WithWorkers(1))
	s0 := e.Snapshot()
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x, y := make([]float64, n), make([]float64, n)
			for i := 0; i < calls; i++ {
				ForRange(e, n, axpyArgs{2, x, y}, axpyRange)
			}
		}()
	}
	stop := make(chan struct{})
	watched := make(chan struct{})
	go func() {
		defer close(watched)
		last := s0
		for {
			s := e.Snapshot()
			if s.Calls < last.Calls || s.Items < last.Items {
				t.Errorf("snapshot went backwards: %+v after %+v", s, last)
				return
			}
			last = s
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-watched
	s1 := e.Snapshot()
	if got := s1.Calls - s0.Calls; got != callers*calls {
		t.Errorf("Calls delta = %d, want %d", got, callers*calls)
	}
	if got := s1.Items - s0.Items; got != callers*calls*n {
		t.Errorf("Items delta = %d, want %d", got, callers*calls*n)
	}
}

// BenchmarkInlineCall is the engine's fixed cost around a solve_small-sized
// sweep (a 256-element axpy, ~0.1 us of arithmetic), alone and with every
// core calling the one shared engine as the rank goroutines do. unobserved
// is what a solve pays; observed is what it paid before accounting became
// pay-for-use — two clock reads and four atomic adds on a shared cache line.
// Printed, not gated.
func BenchmarkInlineCall(b *testing.B) {
	const n = 256
	for _, observed := range []bool{false, true} {
		name := "unobserved"
		if observed {
			name = "observed"
		}
		e := New(WithWorkers(1))
		if observed {
			e.Snapshot()
		}
		b.Run(name+"/serial", func(b *testing.B) {
			x, y := make([]float64, n), make([]float64, n)
			for i := 0; i < b.N; i++ {
				ForRange(e, n, axpyArgs{1e-9, x, y}, axpyRange)
			}
		})
		b.Run(name+"/parallel", func(b *testing.B) {
			b.RunParallel(func(pb *testing.PB) {
				x, y := make([]float64, n), make([]float64, n)
				for pb.Next() {
					ForRange(e, n, axpyArgs{1e-9, x, y}, axpyRange)
				}
			})
		})
	}
}

// The default engine is shared by every simulated MPI rank; hammer one
// engine from many goroutines so `go test -race` certifies it.
func TestConcurrentUseAcrossRanks(t *testing.T) {
	e := New(WithWorkers(3), WithGrain(64))
	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for iter := 0; iter < 20; iter++ {
				n := 1000 + rank*37 + iter
				got := ParallelReduce(e, n, func(lo, hi int) int { return hi - lo },
					func(a, b int) int { return a + b })
				if got != n {
					t.Errorf("rank %d: coverage %d, want %d", rank, got, n)
					return
				}
			}
		}(r)
	}
	wg.Wait()
}

func TestDefaultEngineKnobs(t *testing.T) {
	old := Default()
	defer SetDefault(old)
	SetDefaultWorkers(5)
	if w := Default().Workers(); w != 5 {
		t.Fatalf("SetDefaultWorkers(5): Workers() = %d", w)
	}
	SetDefaultWorkers(0)
	if w := Default().Workers(); w != 1 {
		t.Fatalf("SetDefaultWorkers(0) must clamp to 1, got %d", w)
	}
}

func TestEnvThreadsDefault(t *testing.T) {
	old, had := os.LookupEnv(EnvThreads)
	os.Setenv(EnvThreads, "6")
	defer func() {
		if had {
			os.Setenv(EnvThreads, old)
		} else {
			os.Unsetenv(EnvThreads)
		}
	}()
	if w := New().Workers(); w != 6 {
		t.Fatalf("ODINHPC_THREADS=6: New().Workers() = %d", w)
	}
	if w := New(WithWorkers(2)).Workers(); w != 2 {
		t.Fatalf("explicit WithWorkers must beat the env, got %d", w)
	}
}
