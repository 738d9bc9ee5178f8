package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
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
type Server struct {
	sched *Scheduler
	mux   *http.ServeMux
}

// NewServer wires the handlers around a running scheduler.
func NewServer(s *Scheduler) *Server {
	srv := &Server{sched: s, mux: http.NewServeMux()}
	srv.mux.HandleFunc("POST /v1/solve", srv.handleSolve)
	srv.mux.HandleFunc("POST /v1/expr", srv.handleExpr)
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

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
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

// decode parses a JSON body, rejecting trailing garbage and unknown fields
// so a typo'd request fails loudly instead of solving the default problem.
func decode(r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<22))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badReq("%v", err)
	}
	if dec.More() {
		return badReq("trailing data after JSON body")
	}
	return nil
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	var req SolveRequest
	if err := decode(r, &req); err != nil {
		writeError(w, err)
		return
	}
	if err := req.Validate(); err != nil {
		writeError(w, err)
		return
	}
	out, err := s.sched.Do(tenantOf(r), req.Job())
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleExpr(w http.ResponseWriter, r *http.Request) {
	var req ExprRequest
	if err := decode(r, &req); err != nil {
		writeError(w, err)
		return
	}
	if err := req.Validate(); err != nil {
		writeError(w, err)
		return
	}
	out, err := s.sched.Do(tenantOf(r), req.Job())
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.sched.Snapshot())
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	fmt.Fprintln(w, "ok")
}
