package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"odinhpc/internal/comm"
	"odinhpc/internal/core"
	"odinhpc/internal/distmap"
	"odinhpc/internal/exec"
	"odinhpc/internal/fusion"
	"odinhpc/internal/galeri"
	"odinhpc/internal/serve"
	"odinhpc/internal/solvers"
	"odinhpc/internal/sparse"
	"odinhpc/internal/tpetra"
)

// probeSizes are the sample counts of the traced round. They bound the
// trace files; each is still large enough for a median.
type probeSizes struct {
	minTraced, maxTraced int // jobs traced down both paths: at least, at most
	replicaSolves        int // each records one span per Apply per rank
	replicaExprs         int
	microCalls           int // calls per micro-loop
}

var fullProbe = probeSizes{minTraced: 30, maxTraced: 3000, replicaSolves: 50, replicaExprs: 1000, microCalls: 2000}

const coldEntries = 8 // distinct fingerprints in the cold sweep

// do runs fn on the warm group, as serve's handlers do.
func (s *server) do(fn serve.JobFunc) (any, error) { return s.sched.Do("bench", fn) }

// micro measures one call of a layer's public function on a warm group:
// prep builds the operands on every rank (untimed, in its own job) and
// returns the call; a second job runs it n times on every rank at once, as
// a solve would. It returns rank 0's time per call and the process-wide
// allocations per call (both ranks; the job's own dispatch is under 1/n).
func (s *server) micro(n int, prep func(c *comm.Comm, st *serve.RankState) func()) (us, allocs float64, err error) {
	calls := make([]func(), ranks)
	if _, err = s.do(func(c *comm.Comm, st *serve.RankState) (any, error) {
		calls[c.Rank()] = prep(c, st)
		return nil, nil
	}); err != nil {
		return 0, 0, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	out, err := s.do(func(c *comm.Comm, st *serve.RankState) (any, error) {
		call := calls[c.Rank()]
		c.Barrier()
		t0 := time.Now()
		for i := 0; i < n; i++ {
			call()
		}
		return time.Since(t0), nil
	})
	if err != nil {
		return 0, 0, err
	}
	runtime.ReadMemStats(&m1)
	return float64(out.(time.Duration)) / 1e3 / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n), nil
}

// timedOp is a tpetra.Operator that records when each Apply ran.
type timedOp struct {
	a     *tpetra.CrsMatrix
	t     *tracer
	spans [][2]int64
}

func (o *timedOp) Map() *distmap.Map { return o.a.Map() }

func (o *timedOp) Apply(x, y *tpetra.Vector) {
	s := o.t.now()
	o.a.Apply(x, y)
	o.spans = append(o.spans, [2]int64{s, o.t.now()})
}

// rowFunc is the galeri generator of a solve workload's matrix.
func rowFunc(q *serve.SolveRequest) (n int, f galeri.RowFunc) {
	if q.Kind == "laplace3d" {
		return q.NX * q.NY * q.NZ, galeri.Laplace3DRow(q.NX, q.NY, q.NZ)
	}
	return q.N, galeri.Laplace1DRow(q.N)
}

func us(ns float64) float64 { return ns / 1e3 }

// tracedRound is the one extra round that yields the per-layer metrics. It
// times calls into each layer's public functions from outside (spans inside
// the program are a later change): the HTTP path with spans, the real job
// body under a per-rank wrapper, a no-op job, the codec stand-alone, a
// replica job rebuilt from public API with a timing operator, micro-loops
// on job-sized operands, and a cold sweep. Nothing measured here feeds an
// end-to-end metric.
func tracedRound(r *result, tr *tracer, ps probeSizes) (m metrics, attempted, failed int, err error) {
	w := r.w
	m = metrics{}
	check := func(ok bool) {
		attempted++
		if !ok {
			failed++
		}
	}

	srv, _, ok := w.setUp()
	defer srv.sched.Stop()
	check(ok)
	for i := 0; i < (r.jobs+9)/10; i++ {
		check(w.ok(srv.post(w)))
	}

	// The traffic counters are read in jobs of their own: the group runs one
	// job at a time and waits for every rank, so no message of the traced
	// jobs is in flight when a snapshot is taken.
	snapshot := func() (comm.StatsSnapshot, error) {
		out, err := srv.do(func(c *comm.Comm, _ *serve.RankState) (any, error) {
			if c.Rank() == 0 {
				return c.Stats(), nil
			}
			return nil, nil
		})
		if err != nil {
			return comm.StatsSnapshot{}, err
		}
		return out.(comm.StatsSnapshot), nil
	}
	// The real job body, as the handler builds it, under a wrapper that
	// notes when each rank started and ended.
	job := jobOf(w)
	var at [ranks][2]int64
	wrapped := func(c *comm.Comm, st *serve.RankState) (any, error) {
		k := c.Rank()
		at[k][0] = tr.now()
		out, err := job(c, st)
		at[k][1] = tr.now()
		return out, err
	}

	// Each traced job runs twice, back to back, so that both see the same
	// host: once down the HTTP path (job > client.build, serve.http) and once
	// through Scheduler.Do under the wrapper (serve.do > serve.job_body per
	// rank).
	n := min(max(r.jobs, ps.minTraced), ps.maxTraced)
	var httpNs, jobNs, bodyNs, skewNs []float64
	hits0, miss0 := fusion.PlanCacheStats()
	exec0 := exec.Default().Snapshot()
	s0, err := snapshot()
	if err != nil {
		return nil, 0, 0, err
	}
	runtime.GC()
	for j := 0; j < n; j++ {
		root := tr.id()
		t0 := tr.now()
		req := httptest.NewRequest(http.MethodPost, w.path, bytes.NewReader(w.body))
		rec := httptest.NewRecorder()
		t1 := tr.now()
		srv.h.ServeHTTP(rec, req)
		t2 := tr.now()
		tr.put(span{Parent: root, Name: "client.build", Start: t0, End: t1, Job: j})
		tr.put(span{Parent: root, Name: "serve.http", Start: t1, End: t2, Job: j})
		t3 := tr.now()
		tr.put(span{ID: root, Name: "job", Start: t0, End: t3, Job: j})
		httpNs, jobNs = append(httpNs, float64(t2-t1)), append(jobNs, float64(t3-t0))
		check(w.ok(rec))

		root = tr.id()
		t0 = tr.now()
		out, err := srv.do(wrapped)
		t1 = tr.now()
		if err != nil {
			return nil, 0, 0, err
		}
		tr.put(span{ID: root, Name: "serve.do", Start: t0, End: t1, Job: j})
		lo, hi := at[0][1], at[0][1]
		for k := range at { // the ranks are idle between jobs, so the client may write their lanes
			tr.put(span{Parent: root, Name: "serve.job_body", Start: at[k][0], End: at[k][1], Job: j, Lane: 1 + k})
			lo, hi = min(lo, at[k][1]), max(hi, at[k][1])
		}
		bodyNs, skewNs = append(bodyNs, float64(at[0][1]-at[0][0])), append(skewNs, float64(hi-lo))
		check(bytes.HasPrefix(mustJSON(out), w.prefix))
	}
	s1, err := snapshot()
	if err != nil {
		return nil, 0, 0, err
	}
	hits1, miss1 := fusion.PlanCacheStats()
	exec1 := exec.Default().Snapshot()
	bodies := float64(2 * n) // the job body ran once per path
	httpUs, bodyUs := us(median(httpNs)), us(median(bodyNs))
	m.set("serve.http_us", httpUs)
	m.set("serve.job_body_us", bodyUs)
	m.set("serve.rank_skew_us", us(median(skewNs)))
	m.set("comm.msgs_per_job", float64(s1.TotalMsgs()-s0.TotalMsgs())/bodies)
	m.set("comm.kb_per_job", float64(s1.TotalBytes()-s0.TotalBytes())/1024/bodies)
	m.set("exec.calls_per_job", float64(exec1.Calls-exec0.Calls)/bodies)
	m.set("exec.busy_us_per_job", us(float64(exec1.Nanos-exec0.Nanos))/bodies)
	m.set("fusion.plan_hits_per_job", float64(hits1-hits0)/bodies)
	m.set("fusion.plan_misses_per_job", float64(miss1-miss0)/bodies)
	// Raw against raw: the untraced figure is reported divided by the host's slowdown.
	m.set("trace.overhead_share", median(jobNs)/1e6/midmean(rawP50(r.rounds))-1)

	// Admission, lane broadcast and the wait for both ranks, with no body.
	noop := func(*comm.Comm, *serve.RankState) (any, error) { return nil, nil }
	dispNs := make([]float64, 0, ps.microCalls)
	for i := 0; i < ps.microCalls; i++ {
		t0 := time.Now()
		if _, err := srv.do(noop); err != nil {
			return nil, 0, 0, err
		}
		dispNs = append(dispNs, float64(time.Since(t0)))
	}
	dispatchUs := us(median(dispNs))
	m.set("serve.dispatch_us", dispatchUs)

	codecUs, parseUs := codecProbe(w, ps.microCalls)
	m.set("serve.codec_us", codecUs)
	m.set("serve.expr_parse_us", parseUs)
	m.set("harness.client_us", clientProbe(w, ps.microCalls))
	m.set("trace.unattributed_share", unattributed(httpUs, codecUs, dispatchUs, bodyUs))

	if w.solve != nil {
		err = solveLayers(w, srv, tr, ps, m)
	} else {
		err = exprLayers(r, srv, tr, ps, m, httpUs)
	}
	if err != nil {
		return nil, 0, 0, err
	}

	if err := commLayers(srv, ps, m); err != nil {
		return nil, 0, 0, err
	}

	coldMs, cacheKB, nCold, err := coldSweep(w)
	attempted += nCold
	if err != nil {
		return nil, 0, 0, err
	}
	m.set("serve.cold_job_ms", coldMs)
	m.set("serve.cache_kb_per_entry", cacheKB)

	// Collector activity over the untraced timed sections.
	var cycles, pause float64
	for _, x := range r.rounds {
		cycles += float64(x.gcCycles)
		pause += float64(x.gcPauseNs)
	}
	jobs, _, _, _, _ := totals(r.rounds)
	m.set("runtime.gc_cycles_per_kjob", 1000*cycles/float64(jobs))
	m.set("runtime.gc_pause_us_per_job", us(pause)/float64(jobs))
	m.fillAbsent()
	return m, attempted, failed, nil
}

// pingTag marks the micro-loop's point-to-point messages.
const pingTag = 77

// ringExchange sends buf to the next rank and receives the previous rank's:
// with two ranks, a swap with the other one.
func ringExchange(c *comm.Comm, buf []float64) {
	p, r := c.Size(), c.Rank()
	c.SendRecv((r+1)%p, buf, (r+p-1)%p, pingTag)
}

// commLayers times comm on its own, at the two message sizes the solves
// use: an 8-byte scalar allreduce, and an exchange of 8 bytes and of 8 KiB
// between the two ranks.
func commLayers(srv *server, ps probeSizes, m metrics) error {
	exchange := func(words int) func(c *comm.Comm, _ *serve.RankState) func() {
		return func(c *comm.Comm, _ *serve.RankState) func() {
			buf := make([]float64, words)
			return func() { ringExchange(c, buf) }
		}
	}
	arUs, arAllocs, err := srv.micro(ps.microCalls, func(c *comm.Comm, _ *serve.RankState) func() {
		return func() { comm.AllreduceScalar(c, 1.0, comm.OpSum) }
	})
	if err != nil {
		return err
	}
	sr8, _, err := srv.micro(ps.microCalls, exchange(1))
	if err != nil {
		return err
	}
	sr8k, _, err := srv.micro(ps.microCalls, exchange(1024))
	if err != nil {
		return err
	}
	m.set("comm.allreduce_scalar_us", arUs)
	m.set("comm.allreduce_scalar_allocs", arAllocs)
	m.set("comm.sendrecv_8b_us", sr8)
	m.set("comm.sendrecv_8k_us", sr8k)
	return nil
}

// jobOf is the workload's real job body, as serve's handler builds it.
func jobOf(w *workload) serve.JobFunc {
	if w.solve != nil {
		return w.solve.Job()
	}
	return w.expr.Job()
}

// codecProbe times, stand-alone on the client goroutine, what the handler
// does around the job: decode the body, validate it (for /v1/expr that is
// serve's expression parser), encode the answer. It returns the medians of
// the whole and of the validation alone.
func codecProbe(w *workload, calls int) (codecUs, validateUs float64) {
	var resp any = &serve.SolveResponse{Converged: true, Iterations: w.wantIters, Residual: 1e-9, XNorm: 1e3, N: 512, Millis: 1.234}
	if w.expr != nil {
		resp = &serve.ExprResponse{Sum: 1.2345e5, Mean: 0.94, N: w.expr.N, Vars: w.vars, Millis: 1.234}
	}
	all, val := make([]float64, 0, calls), make([]float64, 0, calls)
	var buf bytes.Buffer
	for i := 0; i < calls; i++ {
		var req interface{ Validate() error } = new(serve.SolveRequest)
		if w.expr != nil {
			req = new(serve.ExprRequest)
		}
		buf.Reset()
		t0 := time.Now()
		dec := json.NewDecoder(bytes.NewReader(w.body))
		dec.DisallowUnknownFields()
		errD := dec.Decode(req)
		t1 := time.Now()
		errV := req.Validate()
		t2 := time.Now()
		errE := json.NewEncoder(&buf).Encode(resp)
		t3 := time.Now()
		if errD != nil || errV != nil || errE != nil {
			panic(fmt.Sprint("codec probe: ", errD, errV, errE)) // the body was generated and validated by this program
		}
		all, val = append(all, float64(t3.Sub(t0))), append(val, float64(t2.Sub(t1)))
	}
	if w.expr == nil {
		return us(median(all)), 0
	}
	return us(median(all)), us(median(val))
}

// clientProbe times the client's own share of a latency: building the
// request and the recorder and calling a handler that does nothing.
func clientProbe(w *workload, calls int) float64 {
	empty := http.HandlerFunc(func(http.ResponseWriter, *http.Request) {})
	ns := make([]float64, 0, calls)
	for i := 0; i < calls; i++ {
		t0 := time.Now()
		req := httptest.NewRequest(http.MethodPost, w.path, bytes.NewReader(w.body))
		empty.ServeHTTP(httptest.NewRecorder(), req)
		ns = append(ns, float64(time.Since(t0)))
	}
	return us(median(ns))
}

// solveLayers rebuilds the solve from public API (galeri assembly cached
// per rank, solvers.CG over a timing operator) and times tpetra, sparse and
// the solver's own share on the job's operands.
func solveLayers(w *workload, srv *server, tr *tracer, ps probeSizes, m metrics) error {
	q := w.solve
	n, rows := rowFunc(q)
	var mats [ranks]*tpetra.CrsMatrix
	var ops [ranks]*timedOp
	if _, err := srv.do(func(c *comm.Comm, _ *serve.RankState) (any, error) {
		k := c.Rank()
		mats[k] = galeri.BuildDist(c, distmap.NewBlock(n, c.Size()), rows)
		ops[k] = &timedOp{a: mats[k], t: tr}
		return nil, nil
	}); err != nil {
		return err
	}

	// Replica solves: solvers.cg > tpetra.apply spans on every rank's lane.
	var cgAt [ranks][2]int64
	replica := func(c *comm.Comm, _ *serve.RankState) (any, error) {
		k := c.Rank()
		m := mats[k].Map()
		b, x := tpetra.NewVector(c, m), tpetra.NewVector(c, m)
		b.PutScalar(1)
		ops[k].spans = ops[k].spans[:0]
		cgAt[k][0] = tr.now()
		res, err := solvers.CG(ops[k], b, x, solvers.Options{MaxIter: q.MaxIter, Tol: q.Tol})
		cgAt[k][1] = tr.now()
		return res, err
	}
	var cgNs, applyNs, applySum []float64
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for j := 0; j < ps.replicaSolves; j++ {
		out, err := srv.do(replica)
		if err != nil {
			return err
		}
		if res := out.(solvers.Result); !res.Converged || res.Iterations != w.wantIters {
			return fmt.Errorf("replica solve: %v, want %d iterations", res, w.wantIters)
		}
		for k := range ops {
			root := tr.id()
			tr.put(span{ID: root, Name: "solvers.cg", Start: cgAt[k][0], End: cgAt[k][1], Job: j, Lane: 1 + k})
			for _, s := range ops[k].spans {
				tr.put(span{Parent: root, Name: "tpetra.apply", Start: s[0], End: s[1], Job: j, Lane: 1 + k})
			}
		}
		var sum float64
		for _, s := range ops[0].spans {
			applyNs = append(applyNs, float64(s[1]-s[0]))
			sum += float64(s[1] - s[0])
		}
		cgNs, applySum = append(cgNs, float64(cgAt[0][1]-cgAt[0][0])), append(applySum, sum)
	}
	runtime.ReadMemStats(&m1)
	iters := float64(w.wantIters)
	cgUs, applyUs := us(median(cgNs)), us(median(applyNs))
	selfUs := (cgUs - us(median(applySum))) / iters
	m.set("solvers.cg_us", cgUs)
	m.set("solvers.iterations", iters)
	m.set("solvers.self_us_per_iter", selfUs)
	// Process-wide: both ranks, the span records and the job dispatch included.
	m.set("solvers.allocs_per_iter", float64(m1.Mallocs-m0.Mallocs)/float64(ps.replicaSolves)/iters)
	m.set("tpetra.apply_us", applyUs)
	m.set("tpetra.apply_calls", float64(len(ops[0].spans)))

	// Micro-loops on the job's operands.
	vectors := func(c *comm.Comm) (a *tpetra.CrsMatrix, x, y *tpetra.Vector) {
		a = mats[c.Rank()]
		x, y = tpetra.NewVector(c, a.Map()), tpetra.NewVector(c, a.Map())
		x.PutScalar(1)
		return
	}
	_, applyAllocs, err := srv.micro(ps.microCalls, func(c *comm.Comm, _ *serve.RankState) func() {
		a, x, y := vectors(c)
		return func() { a.Apply(x, y) }
	})
	if err != nil {
		return err
	}
	dotUs, dotAllocs, err := srv.micro(ps.microCalls, func(c *comm.Comm, _ *serve.RankState) func() {
		_, x, y := vectors(c)
		return func() { x.Dot(y) }
	})
	if err != nil {
		return err
	}
	axpyUs, _, err := srv.micro(ps.microCalls, func(c *comm.Comm, _ *serve.RankState) func() {
		_, x, y := vectors(c)
		return func() { y.Axpy(1e-9, x) }
	})
	if err != nil {
		return err
	}
	// The local SpMV alone, on the owned-rows x owned-columns block: a proxy
	// for the kernel inside Apply that leaves the ghost columns out.
	var block [ranks]*sparse.CSR
	var format [ranks]sparse.Format
	spmvUs, _, err := srv.micro(ps.microCalls, func(c *comm.Comm, _ *serve.RankState) func() {
		a, x, y := vectors(c)
		blk := a.LocalDiagonalBlock()
		block[c.Rank()], format[c.Rank()] = blk, a.SpmvFormat()
		op := sparse.AutoOperator(blk)
		return func() { op.MulVec(x.Data, y.Data) }
	})
	if err != nil {
		return err
	}
	m.set("tpetra.apply_allocs", applyAllocs)
	m.set("tpetra.dot_us", dotUs)
	m.set("tpetra.dot_allocs", dotAllocs)
	m.set("tpetra.axpy_us", axpyUs)
	m.set("tpetra.halo_us", applyUs-spmvUs)
	m.set("sparse.spmv_us", spmvUs)
	m.set("sparse.format", float64(format[0])) // 0 = csr, 1 = sell: the format of the distributed matrix the job applies
	blk := block[0]
	flops := 2 * float64(blk.NNZ())
	// Computed from array sizes (CSR: 8-byte values and column indices, row
	// pointers, x read once, y written once); cache misses are not in it.
	moved := float64(16*blk.NNZ() + 8*(blk.Rows+1) + 8*blk.Cols + 8*blk.Rows)
	m.set("sparse.spmv_gflops", flops/(spmvUs*1e3))
	m.set("sparse.bytes_per_flop_computed", moved/flops)
	// Does the sum of the micro-loop costs explain the solve measured in
	// place? One iteration is one Apply, three reductions and three sweeps.
	m.set("solvers.unattributed_share", unattributed(cgUs, iters*applyUs, iters*3*dotUs, iters*3*axpyUs))

	// Cold assembly, split at FillComplete.
	out, err := srv.do(func(c *comm.Comm, _ *serve.RankState) (any, error) {
		var asm, fill []float64
		rm, me := distmap.NewBlock(n, c.Size()), c.Rank()
		for rep := 0; rep < 3; rep++ {
			c.Barrier()
			t0 := time.Now()
			a := tpetra.NewCrsMatrix(c, rm)
			for l := 0; l < rm.LocalCount(me); l++ {
				g := rm.LocalToGlobal(me, l)
				cols, vals := rows(g)
				for k := range cols {
					a.InsertGlobal(g, cols[k], vals[k])
				}
			}
			t1 := time.Now()
			a.FillComplete()
			asm, fill = append(asm, t1.Sub(t0).Seconds()*1e3), append(fill, time.Since(t1).Seconds()*1e3)
		}
		return [2]float64{median(asm), median(fill)}, nil
	})
	if err != nil {
		return err
	}
	m.set("tpetra.assemble_ms", out.([2]float64)[0])
	m.set("tpetra.fillcomplete_ms", out.([2]float64)[1])

	return nil
}

// exprLayers rebuilds the expression job from public API (core.FromFunc
// leaves cached per rank, fusion.Analyze, fusion.SumEval) and times the
// plan lookup and the fused sweep apart.
func exprLayers(r *result, srv *server, tr *tracer, ps probeSizes, m metrics, httpUs float64) error {
	w := r.w
	var leaves [ranks][]*core.DistArray[float64]
	if _, err := srv.do(func(c *comm.Comm, st *serve.RankState) (any, error) {
		for _, name := range w.vars {
			name := name
			leaves[c.Rank()] = append(leaves[c.Rank()], core.FromFunc(st.Ctx, []int{w.expr.N}, func(g []int) float64 {
				return varFill(name, g[0])
			}))
		}
		return nil, nil
	}); err != nil {
		return err
	}
	type timing struct {
		analyze, sum [2]int64
		instrs, regs int
		value        float64
	}
	var at [ranks]timing
	replica := func(c *comm.Comm, _ *serve.RankState) (any, error) {
		t := &at[c.Rank()]
		var l []*fusion.Expr
		for _, a := range leaves[c.Rank()] {
			l = append(l, fusion.Var(a))
		}
		e := w.build(l)
		t.analyze[0] = tr.now()
		plan := fusion.Analyze(e)
		t.analyze[1] = tr.now()
		t.instrs, t.regs = plan.Program()
		t.sum[0] = tr.now()
		t.value = fusion.SumEval(e)
		t.sum[1] = tr.now()
		return nil, nil
	}
	// The served sum, to hold the replica's against.
	var ref serve.ExprResponse
	if err := json.Unmarshal(srv.post(w).Body.Bytes(), &ref); err != nil {
		return err
	}
	n := min(r.jobs, ps.replicaExprs)
	var lookupNs, sumNs []float64
	for j := 0; j < n; j++ {
		root := tr.id()
		t0 := tr.now()
		if _, err := srv.do(replica); err != nil {
			return err
		}
		tr.put(span{ID: root, Name: "replica.do", Start: t0, End: tr.now(), Job: j})
		for k := range at {
			tr.put(span{Parent: root, Name: "fusion.analyze", Start: at[k].analyze[0], End: at[k].analyze[1], Job: j, Lane: 1 + k})
			tr.put(span{Parent: root, Name: "fusion.sumeval", Start: at[k].sum[0], End: at[k].sum[1], Job: j, Lane: 1 + k})
		}
		if at[0].value != ref.Sum {
			return fmt.Errorf("replica sum %v is not the served sum %v", at[0].value, ref.Sum)
		}
		lookupNs = append(lookupNs, float64(at[0].analyze[1]-at[0].analyze[0]))
		sumNs = append(sumNs, float64(at[0].sum[1]-at[0].sum[0]))
	}
	sumUs := us(median(sumNs))
	m.set("fusion.sumeval_us", sumUs)
	m.set("fusion.sumeval_share", sumUs/httpUs)
	m.set("fusion.plan_lookup_us", us(median(lookupNs)))
	// Computed: the bytes of the leaves one sweep reads, over its time.
	m.set("fusion.vm_mb_per_s", float64(8*w.expr.N*len(w.vars))/sumUs)
	m.set("fusion.instrs", float64(at[0].instrs))
	m.set("fusion.regs", float64(at[0].regs))

	return nil
}

// coldSweep posts eight requests with distinct fingerprints to a fresh
// scheduler: the median first-request time, and how much live heap each
// entry of the warm caches keeps.
func coldSweep(w *workload) (coldMs, cacheKB float64, attempted int, err error) {
	fusion.ResetPlanCache()
	srv := startServer(ranks)
	defer srv.sched.Stop()
	heap := func() float64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc)
	}
	h0 := heap()
	var ms []float64
	for k := 1; k <= coldEntries; k++ {
		v := *w
		if w.solve != nil {
			q := *w.solve
			if q.Kind == "laplace3d" {
				q.NZ += k
			} else {
				q.N += 2 * k // even n keeps laplace1d converging at n/2 iterations
			}
			v.body = mustJSON(q)
		} else {
			v.body = mustJSON(serve.ExprRequest{Expr: w.expr.Expr, N: w.expr.N + 64*k})
		}
		t0 := time.Now()
		rec := srv.post(&v)
		ms = append(ms, time.Since(t0).Seconds()*1e3)
		attempted++
		if rec.Code != http.StatusOK {
			return 0, 0, attempted, fmt.Errorf("cold sweep: HTTP %d: %s", rec.Code, rec.Body)
		}
	}
	return median(ms), (heap() - h0) / 1024 / coldEntries, attempted, nil
}
