package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"odinhpc/internal/comm"
	"odinhpc/internal/comm/alloctest"
	"odinhpc/internal/exec"
	"odinhpc/internal/trace"
)

func newTestServer(t *testing.T, opts Options) (*httptest.Server, *Scheduler) {
	t.Helper()
	sched := NewScheduler(opts)
	ts := httptest.NewServer(NewServer(sched).Handler())
	t.Cleanup(func() {
		ts.Close()
		sched.Stop()
	})
	return ts, sched
}

func postJSON(t *testing.T, url, tenant string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// TestHTTPSolveAndExpr drives both job endpoints end to end over real HTTP
// and checks the stats endpoint reflects them.
func TestHTTPSolveAndExpr(t *testing.T) {
	ts, _ := newTestServer(t, Options{Groups: 2, Ranks: 2})

	resp, body := postJSON(t, ts.URL+"/v1/solve", "alice",
		&SolveRequest{Kind: "laplace1d", N: 64})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: %d %s", resp.StatusCode, body)
	}
	var sres SolveResponse
	if err := json.Unmarshal(body, &sres); err != nil {
		t.Fatal(err)
	}
	if !sres.Converged || sres.N != 64 || sres.XNorm <= 0 {
		t.Errorf("solve response %+v", sres)
	}

	resp, body = postJSON(t, ts.URL+"/v1/expr", "bob",
		&ExprRequest{Expr: "sqrt(x*x + y*y)", N: 128})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("expr: %d %s", resp.StatusCode, body)
	}
	var eres ExprResponse
	if err := json.Unmarshal(body, &eres); err != nil {
		t.Fatal(err)
	}
	if eres.N != 128 || len(eres.Vars) != 2 || eres.Sum <= 0 {
		t.Errorf("expr response %+v", eres)
	}

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var snap StatsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap.Completed != 2 || snap.Failed != 0 || snap.Groups != 2 || snap.Ranks != 2 {
		t.Errorf("stats %+v", snap)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: %d", resp.StatusCode)
	}
}

// TestHTTPSolveIsPoolIndependent: a tenant's answer does not depend on the
// exec pool its server runs with. /v1/solve with cg and bicgstab on the two
// benchmark matrices returns the same bytes up to the timing field at pools
// 1, 2, 4 and 7 — at the default grain and at one that splits even the
// small matrix's local rows into chunks.
func TestHTTPSolveIsPoolIndependent(t *testing.T) {
	old := exec.Default()
	defer exec.SetDefault(old)
	ts, _ := newTestServer(t, Options{Groups: 1, Ranks: 2})
	var reqs []*SolveRequest
	for _, solver := range []string{"cg", "bicgstab"} {
		reqs = append(reqs,
			&SolveRequest{Kind: "laplace1d", N: 512, Tol: 1e-10, Solver: solver},
			&SolveRequest{Kind: "laplace3d", NX: 32, NY: 32, NZ: 32, Tol: 1e-8, Solver: solver})
	}
	for _, grain := range []int{exec.DefaultGrain, 64} {
		answers := make([][]byte, len(reqs)) // at pool 1, up to "millis"
		for _, pool := range []int{1, 2, 4, 7} {
			exec.SetDefault(exec.New(exec.WithWorkers(pool), exec.WithGrain(grain)))
			for i, req := range reqs {
				resp, body := postJSON(t, ts.URL+"/v1/solve", "t", req)
				cut := bytes.Index(body, []byte(`"millis"`))
				if resp.StatusCode != http.StatusOK || cut < 0 {
					t.Fatalf("grain %d pool %d: %s %s: %d %s", grain, pool, req.Solver, req.Kind, resp.StatusCode, body)
				}
				if pool == 1 {
					answers[i] = body[:cut]
				} else if !bytes.Equal(body[:cut], answers[i]) {
					t.Errorf("grain %d: %s %s at pool %d answers %s, at pool 1 %s", grain, req.Solver, req.Kind, pool, body[:cut], answers[i])
				}
			}
		}
	}
}

// TestHTTPBadRequests pins the 400 surface: malformed JSON, unknown fields,
// failed validation, and unparseable expressions.
func TestHTTPBadRequests(t *testing.T) {
	ts, _ := newTestServer(t, Options{Groups: 1, Ranks: 1})

	for _, tc := range []struct {
		path string
		body string
	}{
		{"/v1/solve", `{"kind": "laplace1d"`},            // truncated JSON
		{"/v1/solve", `{"kind": "laplace1d", "np": 4}`},  // unknown field
		{"/v1/solve", `{"kind": "warp", "n": 8}`},        // bad kind
		{"/v1/expr", `{"expr": "foo(x)", "n": 8}`},       // unknown function
		{"/v1/expr", `{"expr": "x", "n": 0}`},            // bad n
		{"/v1/solve", `{"kind":"laplace1d","n":4} junk`}, // trailing data
		// Grids whose unknown count wraps the int range: 2^63 to a negative
		// count (once a 500 from the map constructor), 2^64 to 0 (once a 200
		// "converged" answer with n = 0), (2^32+1)(2^32-1) to -1.
		{"/v1/solve", `{"kind":"laplace3d","nx":2097152,"ny":2097152,"nz":2097152}`},
		{"/v1/solve", `{"kind":"laplace2d","nx":4294967296,"ny":4294967296}`},
		{"/v1/solve", `{"kind":"laplace2d","nx":4294967297,"ny":4294967295}`},
	} {
		resp, err := http.Post(ts.URL+tc.path, "application/json", bytes.NewReader([]byte(tc.body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s %s: status %d, want 400", tc.path, tc.body, resp.StatusCode)
		}
	}
}

// TestHTTPBreakdownIs422: a posted matrix the method cannot solve — an
// indefinite diagonal under cg (<p, Ap> = 0 at the first step), a skew matrix
// under bicgstab (<rhat, v> = 0) — is the client's input, not a server fault:
// 422 with the breakdown kind, the group keeps its session, and the next
// solve on it succeeds.
func TestHTTPBreakdownIs422(t *testing.T) {
	ts, sched := newTestServer(t, Options{Groups: 1, Ranks: 2})

	for _, req := range []*SolveRequest{
		{Kind: "coo", N: 2, Solver: "cg", Entries: []COOEntry{{0, 0, 1}, {1, 1, -1}}},
		{Kind: "coo", N: 2, Solver: "bicgstab", Entries: []COOEntry{{0, 1, 1}, {1, 0, -1}}},
	} {
		resp, body := postJSON(t, ts.URL+"/v1/solve", "alice", req)
		var eb errorBody
		if err := json.Unmarshal(body, &eb); err != nil {
			t.Fatalf("%s: body %q: %v", req.Solver, body, err)
		}
		if resp.StatusCode != http.StatusUnprocessableEntity || eb.Kind != kindSolverBreakdown ||
			!strings.Contains(eb.Error, "breakdown") {
			t.Errorf("%s: status %d, body %+v; want 422 with kind %q", req.Solver, resp.StatusCode, eb, kindSolverBreakdown)
		}
	}
	resp, body := postJSON(t, ts.URL+"/v1/solve", "alice", &SolveRequest{Kind: "laplace1d", N: 64})
	if resp.StatusCode != http.StatusOK {
		t.Errorf("solve after the breakdowns: %d %s", resp.StatusCode, body)
	}
	if snap := sched.Snapshot(); snap.GroupRestarts != 0 || snap.Failed != 2 || snap.Completed != 1 {
		t.Errorf("stats after two breakdowns and a solve: %+v; want 2 failed, 1 completed, no group restart", snap)
	}
}

// TestHTTPOverloadIs429 wedges the single group and fills the queue, then
// expects 429 + Retry-After from the admission layer.
func TestHTTPOverloadIs429(t *testing.T) {
	ts, sched := newTestServer(t, Options{Groups: 1, Ranks: 1, QueueDepth: 1})

	started := make(chan struct{})
	unblock := make(chan struct{})
	blocker, err := sched.Submit("x", func(c *comm.Comm, st *RankState) (any, error) {
		close(started)
		<-unblock
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := sched.Submit("x", func(c *comm.Comm, st *RankState) (any, error) { return nil, nil }); err != nil {
		t.Fatalf("queue slot rejected: %v", err)
	}

	resp, body := postJSON(t, ts.URL+"/v1/solve", "alice",
		&SolveRequest{Kind: "laplace1d", N: 8})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overloaded solve: %d %s, want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	close(unblock)
	if _, err := blocker.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestHTTPQuotaIs429 pins the per-tenant path through HTTP: a rate-limited
// tenant gets 429 with a Retry-After derived from the bucket, while another
// tenant sails through.
func TestHTTPQuotaIs429(t *testing.T) {
	ts, _ := newTestServer(t, Options{Groups: 1, Ranks: 1, QueueDepth: 8,
		Quotas: NewQuotas(0, 0.001, 1)}) // 1 job per ~17min: first admits, second rejects

	resp, body := postJSON(t, ts.URL+"/v1/expr", "alice", &ExprRequest{Expr: "x", N: 8})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first request: %d %s", resp.StatusCode, body)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/expr", "alice", &ExprRequest{Expr: "x", N: 8})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("quota 429 without Retry-After")
	}
	resp, body = postJSON(t, ts.URL+"/v1/expr", "bob", &ExprRequest{Expr: "x", N: 8})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bob throttled by alice's bucket: %d %s", resp.StatusCode, body)
	}
}

// TestHTTPConcurrentClients hammers the server from many goroutines over
// real sockets — the HTTP-layer companion of TestServeConcurrentMixedJobs.
// The clients alternate one repeated body per endpoint with bodies no
// client sent before, so the validated-request cache takes hits and inserts
// at once (the race detector's serve pass runs this).
func TestHTTPConcurrentClients(t *testing.T) {
	ts, _ := newTestServer(t, Options{Groups: 2, Ranks: 2, QueueDepth: 64})

	const J = 32
	var wg sync.WaitGroup
	errs := make([]string, J)
	for i := 0; i < J; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var payload []byte
			var path string
			var expr *ExprRequest
			switch i % 4 {
			case 0:
				path = "/v1/solve"
				payload, _ = json.Marshal(&SolveRequest{Kind: "laplace1d", N: 48})
			case 1:
				path = "/v1/solve"
				payload, _ = json.Marshal(&SolveRequest{Kind: "laplace1d", N: 48 + i})
			case 2:
				path, expr = "/v1/expr", &ExprRequest{Expr: "x*y + 1", N: 64}
			default:
				path, expr = "/v1/expr", &ExprRequest{Expr: fmt.Sprintf("x*y + %d", i), N: 64}
			}
			if expr != nil {
				payload, _ = json.Marshal(expr)
			}
			resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(payload))
			if err != nil {
				errs[i] = err.Error()
				return
			}
			var buf bytes.Buffer
			_, _ = buf.ReadFrom(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[i] = buf.String()
				return
			}
			if expr != nil {
				var res ExprResponse
				if err := expr.Validate(); err != nil {
					errs[i] = err.Error()
				} else if err := json.Unmarshal(buf.Bytes(), &res); err != nil {
					errs[i] = err.Error()
				} else if err := checkExpr(&res, exprReference(expr)); err != nil {
					errs[i] = err.Error()
				}
			}
		}(i)
	}
	wg.Wait()
	for i, e := range errs {
		if e != "" {
			t.Errorf("client %d: %s", i, e)
		}
	}
}

// serveBody posts body to path straight through h, no socket.
func serveBody(h http.Handler, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	return rec
}

// TestHTTPNonFiniteAnswerIsNot200: an answer JSON cannot carry is an error
// with a JSON body, never a 200. A posted diagonal of 1e-300 solves to
// x = 1e300, whose norm overflows to +Inf; the solve job reports it as a
// non-finite result (once it answered 200 with an empty body, because the
// encoder failed after the status was written). A value that fails to
// encode at all answers a JSON 500.
func TestHTTPNonFiniteAnswerIsNot200(t *testing.T) {
	s := NewScheduler(Options{Groups: 1, Ranks: 2})
	defer s.Stop()
	h := NewServer(s).Handler()
	rec := serveBody(h, "/v1/solve", `{"kind":"coo","n":4,"entries":[`+
		`{"row":0,"col":0,"val":1e-300},{"row":1,"col":1,"val":1e-300},`+
		`{"row":2,"col":2,"val":1e-300},{"row":3,"col":3,"val":1e-300}]}`)
	var eb errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || rec.Code != http.StatusInternalServerError ||
		!strings.Contains(eb.Error, errNonFinite.Error()) {
		t.Errorf("solve to ||x|| = +Inf: status %d, body %q (%v); want 500 naming the non-finite value", rec.Code, rec.Body, err)
	}

	rec = httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, math.Inf(1))
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || rec.Code != http.StatusInternalServerError || eb.Error == "" {
		t.Errorf("encoding +Inf: status %d, body %q (%v); want a JSON 500", rec.Code, rec.Body, err)
	}
}

// TestHTTPRejectedBodyIsNotCached: a body that fails validation answers 400
// every time it is posted, and the cache never holds it.
func TestHTTPRejectedBodyIsNotCached(t *testing.T) {
	s := NewScheduler(Options{Groups: 1, Ranks: 1})
	defer s.Stop()
	srv := NewServer(s)
	for _, tc := range []struct{ path, body string }{
		{"/v1/solve", `{"kind": "warp", "n": 8}`},
		{"/v1/expr", `{"expr": "foo(x)", "n": 8}`},
		{"/v1/expr", `{"expr": "x", "n": 8} junk`},
	} {
		for i := 0; i < 2; i++ {
			if rec := serveBody(srv.Handler(), tc.path, tc.body); rec.Code != http.StatusBadRequest {
				t.Errorf("POST %s %s, time %d: status %d, want 400", tc.path, tc.body, i+1, rec.Code)
			}
		}
	}
	if n, m := len(srv.solves.jobs), len(srv.expressions.jobs); n != 0 || m != 0 {
		t.Errorf("the caches hold %d solve and %d expr bodies after only rejected ones, want none", n, m)
	}
}

// TestHTTPWhitespaceBodiesAnswerAlike: two bodies that differ only in
// whitespace are two cache entries with one answer, up to the timing field.
func TestHTTPWhitespaceBodiesAnswerAlike(t *testing.T) {
	s := NewScheduler(Options{Groups: 1, Ranks: 2})
	defer s.Stop()
	srv := NewServer(s)
	for _, tc := range []struct{ path, a, b string }{
		{"/v1/expr", `{"expr":"x*y + 1","n":64}`, " {\n  \"expr\" : \"x*y + 1\",\t\"n\": 64 }\n"},
		{"/v1/solve", `{"kind":"laplace1d","n":48}`, `{ "kind": "laplace1d", "n": 48 }`},
	} {
		var answers [2][]byte
		for k, body := range []string{tc.a, tc.b, tc.a, tc.b} {
			rec := serveBody(srv.Handler(), tc.path, body)
			cut := bytes.Index(rec.Body.Bytes(), []byte(`"millis"`))
			if rec.Code != http.StatusOK || cut < 0 {
				t.Fatalf("POST %s %q: %d %s", tc.path, body, rec.Code, rec.Body)
			}
			if answers[k%2] == nil {
				answers[k%2] = rec.Body.Bytes()[:cut]
			}
			if !bytes.Equal(rec.Body.Bytes()[:cut], answers[0]) {
				t.Errorf("POST %s %q answers %s, %q answered %s", tc.path, body, rec.Body.Bytes()[:cut], tc.a, answers[0])
			}
		}
	}
	if n, m := len(srv.solves.jobs), len(srv.expressions.jobs); n != 2 || m != 2 {
		t.Errorf("the caches hold %d solve and %d expr bodies, want 2 each", n, m)
	}
}

// TestHTTPJobCacheIsBounded posts planCap+1 distinct expr bodies through one
// server: the cache fills to planCap, the next insert drops it whole, and
// every answer is right — a body dropped from the cache is validated anew,
// one still in it is served from it.
func TestHTTPJobCacheIsBounded(t *testing.T) {
	const n = 48
	s := NewScheduler(Options{Groups: 1, Ranks: 2})
	defer s.Stop()
	srv := NewServer(s)
	var sumX float64
	for g := 0; g < n; g++ {
		sumX += varFill("x", g)
	}
	post := func(i int) {
		t.Helper()
		rec := serveBody(srv.Handler(), "/v1/expr", fmt.Sprintf(`{"expr":"x + %d","n":%d}`, i, n))
		var res ExprResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &res); rec.Code != http.StatusOK || err != nil {
			t.Fatalf("source %d: %d %s", i, rec.Code, rec.Body)
		}
		if err := checkExpr(&res, sumX+float64(i*n)); err != nil {
			t.Fatalf("source %d: %v", i, err)
		}
	}
	for i := 0; i < planCap; i++ {
		post(i)
	}
	if got := len(srv.expressions.jobs); got != planCap {
		t.Fatalf("after %d distinct bodies the cache holds %d, want %d", planCap, got, planCap)
	}
	post(planCap)
	if got := len(srv.expressions.jobs); got != 1 {
		t.Fatalf("after %d distinct bodies the cache holds %d, want 1: dropped whole, then the new body", planCap+1, got)
	}
	post(0)
	post(planCap)
	if got := len(srv.expressions.jobs); got != 2 {
		t.Errorf("the cache holds %d bodies, want 2", got)
	}
}

// TestHTTPBodyCap: a valid body padded with whitespace to exactly the 4 MiB
// cap is answered, not rejected for size, and not cached (it is over
// maxExprLen); one byte more is a 400 with net/http's "request body too
// large" text.
func TestHTTPBodyCap(t *testing.T) {
	s := NewScheduler(Options{Groups: 1, Ranks: 1})
	defer s.Stop()
	srv := NewServer(s)
	valid := `{"expr":"x","n":8}`
	body := valid + strings.Repeat(" ", maxBody-len(valid))
	if rec := serveBody(srv.Handler(), "/v1/expr", body); rec.Code != http.StatusOK {
		t.Errorf("a %d-byte body: %d %s, want 200", len(body), rec.Code, rec.Body)
	}
	if got := len(srv.expressions.jobs); got != 0 {
		t.Errorf("the cache holds %d bodies after one over maxExprLen, want none", got)
	}
	rec := serveBody(srv.Handler(), "/v1/expr", body+" ")
	var eb errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || rec.Code != http.StatusBadRequest ||
		!strings.Contains(eb.Error, "request body too large") {
		t.Errorf("a %d-byte body: status %d, body %q; want 400, request body too large", len(body)+1, rec.Code, rec.Body)
	}
}

// TestWarmHTTPRequestAllocs pins serve's share of one warm request at zero
// objects. Each of the four bench workloads' bodies is posted through
// NewServer(...).Handler().ServeHTTP with httptest's request and recorder
// (serveBody), on a two-rank group and a one-worker engine, the
// configuration the benchmark measures. The harness's own objects are
// measured through the same serveBody against a handler that writes the
// same header and a body of the same length; the difference is serve's
// share. A repeated body is a probe of the server's validated-request
// cache, the job record and its completion signal come from a pool, rank 0
// answers into the record and the encoder does not escape writeJSON, so
// the share must be exactly 0. (The one object writeJSON's line for the
// Content-Type header allocates is the recorder's fresh header map taking
// its first key: the baseline pays it too.)
func TestWarmHTTPRequestAllocs(t *testing.T) {
	if alloctest.RaceEnabled || trace.Active() != nil {
		t.Skip("allocation counts are not exact under the race detector or a trace session")
	}
	defer exec.SetDefault(exec.Default())
	exec.SetDefault(exec.New(exec.WithWorkers(1)))
	s := NewScheduler(Options{Groups: 1, Ranks: 2, Comm: comm.Config{Transport: "inproc"}})
	defer s.Stop()
	h := NewServer(s).Handler()
	for _, tc := range []struct {
		name, path, body string
		runs             int
	}{
		{"dispatch_tiny", "/v1/expr", `{"expr":"x0001+y0001","n":64}`, 2000},
		{"expr_fused", "/v1/expr", `{"expr":"sqrt(x0001*x0001+y0001*y0001)+exp(-x0001)*sin(y0001)","n":131072}`, 100},
		{"solve_small", "/v1/solve", `{"kind":"laplace1d","n":512,"tol":1e-10}`, 100},
		{"solve_large", "/v1/solve", `{"kind":"laplace3d","nx":32,"ny":32,"nz":32,"tol":1e-8}`, 20},
	} {
		post := func(h http.Handler) *httptest.ResponseRecorder {
			rec := serveBody(h, tc.path, tc.body)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: %d %s", tc.name, rec.Code, rec.Body)
			}
			return rec
		}
		answer := post(h).Body.Bytes() // assembles the matrix or prepares the plan, and caches the body
		baseline := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.Header()["Content-Type"] = jsonContentType
			w.WriteHeader(http.StatusOK)
			_, _ = w.Write(answer)
		})
		harness := testing.AllocsPerRun(tc.runs, func() { post(baseline) })
		got := testing.AllocsPerRun(tc.runs, func() { post(h) })
		if share := got - harness; share != 0 {
			t.Errorf("%s: a warm request allocates %v objects process-wide, the harness alone %v: serve's share is %v, want 0",
				tc.name, got, harness, share)
		}
		t.Logf("%s: %v objects a request, %v of them the harness's", tc.name, got, harness)
	}
}
