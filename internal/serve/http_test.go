package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"odinhpc/internal/comm"
	"odinhpc/internal/exec"
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
			if i%2 == 0 {
				path = "/v1/solve"
				payload, _ = json.Marshal(&SolveRequest{Kind: "laplace1d", N: 48})
			} else {
				path = "/v1/expr"
				payload, _ = json.Marshal(&ExprRequest{Expr: "x*y + 1", N: 64})
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
