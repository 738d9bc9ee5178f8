// Package exec is the single intra-rank parallel execution engine under
// every element-wise kernel in the repository. The paper claims ODIN ufuncs
// and fused array expressions "parallelize trivially" (§III.D); this package
// is where that parallelism actually lives. Dense ufuncs and reductions,
// the fusion evaluator, CSR sparse matrix-vector products, and the local
// parts of tpetra Vector operations all route their hot loops through one
// Engine instead of each carrying a private serial `for` loop.
//
// Design constraints, in order:
//
//  1. One order at every pool size. Chunk boundaries are a pure function of
//     the problem size and the engine's grain — never of the worker count or
//     of scheduling. ParallelFor results are therefore bitwise identical for
//     every pool size. A reduction always folds those chunks and combines
//     the per-chunk partials in one fixed pairwise tree ordered by chunk
//     index, ((p0+p1)+(p2+p3))+..., at every pool size including 1, so its
//     result is bitwise the same run to run and for any ODINHPC_THREADS.
//  2. Pool size 1 runs on the caller. A one-worker engine (or a one-chunk
//     call) runs ParallelFor's body as one [0,n) span, and a reduction
//     chunk by chunk on the calling goroutine, combining as it goes with a
//     stack of at most one subtree per tree level: nothing is allocated and
//     no goroutine is woken. New, and so the default engine, takes
//     ODINHPC_THREADS workers, or GOMAXPROCS when it is unset — tests
//     included: a test that needs one worker builds its engine with
//     WithWorkers(1).
//  3. Panics propagate. A panic in a chunk body is re-raised on the calling
//     goroutine with its original value, so the dense layer's shape/index
//     panic messages reach the user intact. When several chunks panic, the
//     one with the lowest chunk index wins — again for determinism.
//
// Intra-rank worker parallelism composes with inter-rank parallelism: each
// simulated MPI rank (a goroutine under internal/comm) calls into the same
// process-wide default Engine, so P ranks x W workers coexist in one
// process. The engine holds no locks while chunk bodies run and is safe for
// concurrent use from any number of ranks.
package exec

import (
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"odinhpc/internal/trace"
)

// DefaultGrain is the minimum number of items per chunk. Element-wise work
// items cost nanoseconds; a few thousand of them amortize the scheduling
// cost of a chunk while still leaving enough chunks to balance load.
const DefaultGrain = 4096

// maxChunks bounds the chunk count for huge inputs so that per-chunk
// bookkeeping (reduce partials, stats) stays O(1)-ish in n. It is a fixed
// constant — never derived from the worker count — to keep chunk boundaries
// deterministic.
const maxChunks = 256

// EnvThreads is the environment variable consulted for the default pool
// size when no explicit option is given ("ODIN_NUM_THREADS" analog).
const EnvThreads = "ODINHPC_THREADS"

// Stats is a cumulative snapshot of an engine's activity.
type Stats struct {
	Calls  int64 // engine invocations
	Chunks int64 // chunks executed
	Items  int64 // items covered
	Nanos  int64 // summed wall time of calls
}

// Engine is a chunked worker pool. Its configuration is immutable after
// construction and it is safe for concurrent use; the zero value is not
// useful — construct with New.
//
// Call accounting is pay-for-use, like internal/trace: it costs two clock
// reads and four atomic adds on a cache line every rank shares, which around
// a 256-element sweep is several times the sweep. So a call is timed and
// counted only while somebody can see the result — a trace session is
// active, or Snapshot has been called. An engine nobody has looked at
// reports zero; from the first Snapshot on, every call is counted and
// snapshot deltas are exact.
type Engine struct {
	workers int
	grain   int

	watched atomic.Bool // set by the first Snapshot, never cleared
	calls   atomic.Int64
	chunks  atomic.Int64
	items   atomic.Int64
	nanos   atomic.Int64
}

// Option configures an Engine at construction.
type Option func(*Engine)

// WithWorkers fixes the pool size. Values below 1 are clamped to 1.
func WithWorkers(n int) Option {
	return func(e *Engine) {
		if n < 1 {
			n = 1
		}
		e.workers = n
	}
}

// WithGrain sets the minimum chunk size in items. Values below 1 are
// clamped to 1. The grain participates in chunk-boundary determinism: two
// engines with the same grain chunk identically regardless of pool size.
// Test seam: forces chunk boundaries in the pool-equivalence suites.
func WithGrain(n int) Option {
	return func(e *Engine) {
		if n < 1 {
			n = 1
		}
		e.grain = n
	}
}

// New returns an engine. Without WithWorkers the pool size comes from
// ODINHPC_THREADS if set, else runtime.GOMAXPROCS(0).
func New(opts ...Option) *Engine {
	e := &Engine{workers: defaultWorkers(), grain: DefaultGrain}
	for _, o := range opts {
		o(e)
	}
	return e
}

func defaultWorkers() int {
	if n, ok := EnvWorkers(); ok {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// EnvWorkers returns the pool size ODINHPC_THREADS asks for, and whether it
// is set to a positive integer.
func EnvWorkers() (int, bool) {
	n, err := strconv.Atoi(os.Getenv(EnvThreads))
	return n, err == nil && n >= 1
}

// Workers returns the pool size.
func (e *Engine) Workers() int { return e.workers }

// Snapshot returns the cumulative instrumentation counters. The first call
// turns accounting on (see Engine): calls that began before it are not in
// any snapshot, every later call is in the next one.
func (e *Engine) Snapshot() Stats {
	e.watched.Store(true)
	return Stats{
		Calls:  e.calls.Load(),
		Chunks: e.chunks.Load(),
		Items:  e.items.Load(),
		Nanos:  e.nanos.Load(),
	}
}

// chunking returns the chunk size and count for n items. It depends only on
// n and the grain — never on the worker count — so chunk boundaries are
// identical for every pool size.
func (e *Engine) chunking(n int) (size, count int) {
	size = e.grain
	if c := (n + size - 1) / size; c > maxChunks {
		size = (n + maxChunks - 1) / maxChunks
	}
	count = (n + size - 1) / size
	return size, count
}

// inline reports whether a call over n items runs on the calling goroutine
// alone — ParallelFor as one span, a reduction chunk by chunk: a one-worker
// engine, or a single chunk (chunking gives count 1 exactly when n fits the
// grain).
func (e *Engine) inline(n int) bool { return e.workers == 1 || n <= e.grain }

// begin opens one call's accounting: the start time when the call is
// observed, the zero Time — one load of a flag nobody writes, no clock read
// — when it is not. The one rule for the inline and the fan-out path.
func (e *Engine) begin(s *trace.Session) time.Time {
	if s == nil && !e.watched.Load() {
		return time.Time{}
	}
	return time.Now()
}

// record closes what begin opened: it updates the counters, or does nothing
// for an unobserved call.
func (e *Engine) record(n, chunks int, start time.Time) {
	if start.IsZero() {
		return
	}
	ns := time.Since(start).Nanoseconds()
	e.calls.Add(1)
	e.chunks.Add(int64(chunks))
	e.items.Add(int64(n))
	e.nanos.Add(ns)
}

// chunkPanic carries a chunk body's panic value back to the caller.
type chunkPanic struct {
	chunk int
	val   any
}

// runChunks executes body(w, c) for every chunk index in [0, count) on up
// to e.workers goroutines (the caller participates as worker 0). Chunks are
// claimed dynamically — assignment never affects results because outputs
// are keyed by chunk index; the worker id is passed through purely for
// instrumentation (the trace layer's per-worker sub-lanes). The
// lowest-chunk panic, if any, is re-raised on the calling goroutine with
// its original value.
func (e *Engine) runChunks(count int, body func(w, c int)) {
	workers := e.workers
	if workers > count {
		workers = count
	}
	var next atomic.Int64
	var mu sync.Mutex
	var caught *chunkPanic
	work := func(w int) {
		for {
			c := int(next.Add(1)) - 1
			if c >= count {
				return
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						mu.Lock()
						if caught == nil || c < caught.chunk {
							caught = &chunkPanic{chunk: c, val: r}
						}
						mu.Unlock()
					}
				}()
				body(w, c)
			}()
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for i := 1; i < workers; i++ {
		go func(w int) {
			defer wg.Done()
			work(w)
		}(i)
	}
	work(0)
	wg.Wait()
	if caught != nil {
		panic(caught.val)
	}
}

// traceChunk records one chunk execution on the trace layer's process lane
// (the engine is shared by every rank, so chunks carry worker attribution,
// not rank attribution; rank-attributed spans come from the layers calling
// into the engine). s is non-nil by contract; the caller already holds the
// single-atomic-load disabled check.
func traceChunk(s *trace.Session, kind string, w, lo, hi int, t0 int64) {
	s.Emit(trace.Event{Kind: trace.KindChunk, Rank: -1, Worker: int32(w),
		Peer: -1, Tag: -1, Start: t0, Dur: s.Now() - t0,
		A: int64(lo), B: int64(hi), Label: kind})
}

// ParallelFor runs body over the half-open spans that partition [0, n).
// With one worker (or one chunk) it is exactly `body(0, n)`; otherwise the
// spans execute concurrently. Spans are disjoint, so body may write to
// span-indexed outputs without synchronization. Results must not depend on
// span execution order.
func (e *Engine) ParallelFor(n int, body func(lo, hi int)) {
	ForRange(e, n, body, func(body func(lo, hi int), lo, hi int) { body(lo, hi) })
}

// ForRange is ParallelFor for a kernel written as a top-level range function
// over an operand value: it runs body(a, lo, hi) over the spans that
// partition [0, n). A func literal handed to ParallelFor is heap-allocated
// at the call site whether or not the engine goes parallel — it may reach
// another goroutine, so it escapes. A top-level function and a by-value
// operand struct need no closure: the inline case (one worker or one chunk —
// every call of a one-worker engine) allocates nothing, and the one literal
// that binds a to body is built here, on the parallel branch only. Kernels
// under a solver iteration use this form; keep a small (it is copied into
// that literal).
//
// ForRange is a free function because Go methods cannot introduce type
// parameters.
func ForRange[A any](e *Engine, n int, a A, body func(a A, lo, hi int)) {
	if n <= 0 {
		return
	}
	s := trace.Active()
	start := e.begin(s)
	if e.inline(n) {
		if s != nil {
			t0 := s.Now()
			body(a, 0, n)
			traceChunk(s, "for", 0, 0, n, t0)
		} else {
			body(a, 0, n)
		}
		e.record(n, 1, start)
		return
	}
	size, count := e.chunking(n)
	e.runChunks(count, func(w, c int) {
		lo := c * size
		hi := lo + size
		if hi > n {
			hi = n
		}
		if s := trace.Active(); s != nil {
			t0 := s.Now()
			body(a, lo, hi)
			traceChunk(s, "for", w, lo, hi, t0)
			return
		}
		body(a, lo, hi)
	})
	e.record(n, count, start)
}

// ParallelReduce folds the chunks that partition [0, n) with fold and merges
// the per-chunk partials with combine in a fixed pairwise tree ordered by
// chunk index — the same chunks and the same tree at every pool size, so the
// result does not depend on the worker count (rule 1). With one chunk it is
// exactly `fold(0, n)`. For n <= 0 it returns fold(0, 0), so folds must
// tolerate an empty span (reductions without an identity, such as Min,
// should reject empty input before calling).
//
// ParallelReduce is a free function because Go methods cannot introduce
// type parameters.
func ParallelReduce[R any](e *Engine, n int, fold func(lo, hi int) R, combine func(a, b R) R) R {
	return ReduceRange(e, n, fold, func(fold func(lo, hi int) R, lo, hi int) R { return fold(lo, hi) }, combine)
}

// ReduceRange is ParallelReduce for a fold written as a top-level range
// function over an operand value, as ForRange is ParallelFor's: fold(a, lo,
// hi) over the chunks, the same combine tree, no closure and no allocation
// in the inline case — which folds the chunks one after another on the
// caller and counts as one call.
func ReduceRange[A, R any](e *Engine, n int, a A, fold func(a A, lo, hi int) R, combine func(x, y R) R) R {
	if n <= 0 {
		return fold(a, 0, 0)
	}
	s := trace.Active()
	start := e.begin(s)
	size, count := e.chunking(n)
	var t chunkTree[R]
	if e.inline(n) {
		for lo := 0; lo < n; lo += size {
			hi := min(lo+size, n)
			if s != nil {
				t0 := s.Now()
				t.push(fold(a, lo, hi), combine)
				traceChunk(s, "reduce", 0, lo, hi, t0)
			} else {
				t.push(fold(a, lo, hi), combine)
			}
		}
		e.record(n, count, start)
		return t.result(combine)
	}
	partials := make([]R, count)
	// The literal captures an operand over 128 bytes by reference, moving it
	// to the heap where it is declared: declared here, only this branch pays.
	arg := a
	e.runChunks(count, func(w, c int) {
		lo := c * size
		hi := min(lo+size, n)
		if s := trace.Active(); s != nil {
			t0 := s.Now()
			partials[c] = fold(arg, lo, hi)
			traceChunk(s, "reduce", w, lo, hi, t0)
			return
		}
		partials[c] = fold(arg, lo, hi)
	})
	for _, p := range partials {
		t.push(p, combine)
	}
	e.record(n, count, start)
	return t.result(combine)
}

// treeDepth bounds chunkTree's stack: with at most maxChunks = 2^8 partials
// the counter holds at most one subtree per level 0..7 plus the one being
// pushed.
const treeDepth = 9

// chunkTree combines partials pushed in chunk-index order into the pairwise
// tree ((p0+p1)+(p2+p3))+... — at each level pair neighbours left to right,
// an unpaired last subtree moving up unchanged. It is a binary counter:
// pushing the k-th partial merges the top of the stack trailing-zeros(k)
// times, and result folds what is left from the right. Held by value on the
// caller's stack, it lets the inline path reduce without a partials slice.
type chunkTree[R any] struct {
	stack  [treeDepth]R
	sp     int // subtrees on the stack
	pushed int
}

func (t *chunkTree[R]) push(p R, combine func(x, y R) R) {
	t.stack[t.sp] = p
	t.sp++
	t.pushed++
	for k := t.pushed; k&1 == 0; k >>= 1 {
		t.sp--
		t.stack[t.sp-1] = combine(t.stack[t.sp-1], t.stack[t.sp])
	}
}

func (t *chunkTree[R]) result(combine func(x, y R) R) R {
	for t.sp > 1 {
		t.sp--
		t.stack[t.sp-1] = combine(t.stack[t.sp-1], t.stack[t.sp])
	}
	return t.stack[0]
}

// defaultEngine is the process-wide engine every kernel layer uses unless
// handed an explicit one.
var defaultEngine atomic.Pointer[Engine]

func init() {
	defaultEngine.Store(New())
}

// Default returns the process-wide engine.
func Default() *Engine { return defaultEngine.Load() }

// SetDefault replaces the process-wide engine. It panics on nil.
func SetDefault(e *Engine) {
	if e == nil {
		panic("exec: SetDefault(nil)")
	}
	defaultEngine.Store(e)
}

// SetDefaultWorkers replaces the process-wide engine with a fresh one of n
// workers (n < 1 is clamped to 1), preserving no counters. It is the knob
// command-line tools plumb their -threads flag to.
func SetDefaultWorkers(n int) {
	SetDefault(New(WithWorkers(n)))
}
