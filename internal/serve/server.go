package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"odinhpc/internal/solvers"
)

// Server is the HTTP/JSON front of a Scheduler.
//
//	POST /v1/solve  — SolveRequest  → SolveResponse
//	POST /v1/expr   — ExprRequest   → ExprResponse
//	GET  /v1/stats  — StatsSnapshot
//	GET  /healthz   — 200 once the group pool is up
//
// The tenant is the X-Tenant header ("anon" when absent). Admission-control
// and quota rejections return 429 with Retry-After; validation failures
// return 400; a solve the posted problem breaks down returns 422; other job
// failures return 500. All bodies are JSON.
//
// Each job endpoint keeps the bodies this server has accepted, byte for
// byte, with the job each validated to (jobCache): a repeated body is one
// map probe, not a decode, a parse and a validation.
type Server struct {
	sched       *Scheduler
	mux         *http.ServeMux
	solves      jobCache
	expressions jobCache
}

// NewServer wires the handlers around a running scheduler.
func NewServer(s *Scheduler) *Server {
	srv := &Server{sched: s, mux: http.NewServeMux()}
	srv.mux.HandleFunc("POST /v1/solve", jobHandler[SolveRequest](s, &srv.solves))
	srv.mux.HandleFunc("POST /v1/expr", jobHandler[ExprRequest](s, &srv.expressions))
	srv.mux.HandleFunc("GET /v1/stats", srv.handleStats)
	srv.mux.HandleFunc("GET /healthz", srv.handleHealth)
	return srv
}

// Handler returns the root handler for an http.Server.
func (s *Server) Handler() http.Handler { return s.mux }

// errorBody is the JSON error envelope. Kind names the class of a failure a
// client can act on without parsing the message.
type errorBody struct {
	Error string `json:"error"`
	Kind  string `json:"kind,omitempty"`
}

// kindSolverBreakdown is errorBody.Kind for a solve that ended in
// solvers.ErrBreakdown.
const kindSolverBreakdown = "solver_breakdown"

// jsonContentType is every response's Content-Type value, shared so that
// setting it allocates nothing; nothing appends to a response header value.
var jsonContentType = []string{"application/json"}

// buffer is a pooled request-body or response buffer. lim caps a body read
// into it; it lives here so that reading a body allocates nothing.
type buffer struct {
	bytes.Buffer
	lim io.LimitedReader
}

var buffers = sync.Pool{New: func() any { return new(buffer) }}

func getBuffer() *buffer {
	b := buffers.Get().(*buffer)
	b.Reset()
	return b
}

// putBuffer returns b to the pool unless it grew past 64 KiB: one outsized
// body or response is not held for the life of the process.
func putBuffer(b *buffer) {
	if b.Cap() <= 64<<10 {
		buffers.Put(b)
	}
}

// writeJSON encodes v in full before it sets the status, so a value that
// does not encode (a NaN or an infinity) answers a JSON 500, never a 2xx
// with a truncated or empty body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	b := getBuffer()
	defer putBuffer(b)
	if err := json.NewEncoder(b).Encode(v); err != nil {
		status = http.StatusInternalServerError
		b.Reset()
		_ = json.NewEncoder(b).Encode(errorBody{Error: "serve: encoding the response: " + err.Error()})
	}
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	_, _ = w.Write(b.Bytes())
}

// writeError maps typed errors onto statuses: overload and quota → 429 (with
// Retry-After when the quota knows one), validation → 400, shutdown → 503,
// anything else → 500. A Krylov breakdown → 422: the request was well formed
// and the server did its job, but the posted matrix is not one the chosen
// method can solve (not SPD for cg, a zero or non-finite recurrence scalar) —
// the client's input, so not a 5xx that monitoring counts as a server fault.
func writeError(w http.ResponseWriter, err error) {
	var (
		over *OverloadError
		qe   *QuotaError
		br   *BadRequestError
	)
	switch {
	case errors.As(err, &over):
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: err.Error()})
	case errors.As(err, &qe):
		retry := qe.RetryAfter
		if retry <= 0 {
			retry = time.Second
		}
		w.Header().Set("Retry-After", strconv.Itoa(int(retry.Seconds()+1)))
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: err.Error()})
	case errors.As(err, &br):
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
	case errors.Is(err, ErrStopped):
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
	case errors.Is(err, solvers.ErrBreakdown):
		writeJSON(w, http.StatusUnprocessableEntity, errorBody{Error: err.Error(), Kind: kindSolverBreakdown})
	default:
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
	}
}

func tenantOf(r *http.Request) string {
	if t := r.Header.Get("X-Tenant"); t != "" {
		return t
	}
	return "anon"
}

// maxBody caps a request body.
const maxBody = 1 << 22

// readBody reads r's body into b, one byte past maxBody at most; a longer
// body is a bad request with net/http's "request body too large" text.
func (b *buffer) readBody(r *http.Request) ([]byte, error) {
	b.lim = io.LimitedReader{R: r.Body, N: maxBody + 1}
	_, err := b.ReadFrom(&b.lim)
	b.lim.R = nil
	if err != nil {
		return nil, badReq("%v", err)
	}
	if b.Len() > maxBody {
		return nil, badReq("%v", &http.MaxBytesError{Limit: maxBody})
	}
	return b.Bytes(), nil
}

// decode parses a JSON body, rejecting trailing garbage and unknown fields
// so a typo'd request fails loudly instead of solving the default problem.
func decode(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badReq("%v", err)
	}
	if dec.More() {
		return badReq("trailing data after JSON body")
	}
	return nil
}

// jobCache maps request bodies, byte for byte, to the jobs they validated
// to. Only a body that validated is inserted, and only one of at most
// maxExprLen bytes; at planCap entries the whole map is dropped, the policy
// of RankState.plans. Each Server has its own, so a fresh server starts
// cold.
type jobCache struct {
	mu   sync.RWMutex
	jobs map[string]JobFunc
}

func (c *jobCache) get(body []byte) JobFunc {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.jobs[string(body)]
}

func (c *jobCache) put(body []byte, fn JobFunc) {
	if len(body) > maxExprLen {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.jobs == nil || len(c.jobs) >= planCap {
		c.jobs = make(map[string]JobFunc)
	}
	c.jobs[string(body)] = fn
}

// jobRequest is a job endpoint's body type, R, through its pointer.
type jobRequest[R any] interface {
	*R
	Validate() error
	Job() JobFunc
}

// jobHandler is both job endpoints' one handler body: read the body, take
// its job from the cache or decode, validate and build it (caching it),
// run it, encode rank 0's answer straight from the job record and put the
// record back.
func jobHandler[R any, P jobRequest[R]](sched *Scheduler, cache *jobCache) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		b := getBuffer()
		defer putBuffer(b)
		raw, err := b.readBody(r)
		if err != nil {
			writeError(w, err)
			return
		}
		fn := cache.get(raw)
		if fn == nil {
			req := P(new(R))
			if err := decode(raw, req); err != nil {
				writeError(w, err)
				return
			}
			if err := req.Validate(); err != nil {
				writeError(w, err)
				return
			}
			fn = req.Job()
			cache.put(raw, fn)
		}
		p, err := sched.Submit(tenantOf(r), fn)
		if err != nil {
			writeError(w, err)
			return
		}
		if out, err := p.Wait(); err != nil {
			writeError(w, err)
		} else {
			writeJSON(w, http.StatusOK, out)
		}
		putJob((*job)(p))
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.sched.Snapshot())
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	fmt.Fprintln(w, "ok")
}
