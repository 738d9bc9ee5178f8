package serve

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"odinhpc/internal/comm"
	"odinhpc/internal/distmap"
	"odinhpc/internal/galeri"
	"odinhpc/internal/solvers"
	"odinhpc/internal/tpetra"
)

// Protective caps: one bad request must not wedge a shared group for
// everyone (jobs run one at a time per group).
const (
	maxSolveN   = 1 << 20 // global unknowns
	maxCOO      = 1 << 16 // posted triplets
	maxIterCap  = 10000
	maxExprLen  = 4096 // expression source bytes
	maxExprN    = 1 << 22
	maxExprVars = 8
)

// BadRequestError marks a request rejected by validation, before any group
// time is spent. HTTP maps it to 400.
type BadRequestError struct{ Msg string }

func (e *BadRequestError) Error() string { return "serve: bad request: " + e.Msg }

func badReq(format string, args ...any) error {
	return &BadRequestError{Msg: fmt.Sprintf(format, args...)}
}

// errNonFinite marks a job whose answer is not finite. JSON has no NaN or
// infinity, so such an answer is an error, never a response.
var errNonFinite = errors.New("non-finite value")

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// COOEntry is one posted matrix triplet.
type COOEntry struct {
	Row int     `json:"row"`
	Col int     `json:"col"`
	Val float64 `json:"val"`
}

// SolveRequest is POST /v1/solve: an iterative solve of a galeri-generated
// or posted matrix on a warm rank group.
type SolveRequest struct {
	Kind    string     `json:"kind"`         // laplace1d | laplace2d | laplace3d | tridiag | coo
	N       int        `json:"n,omitempty"`  // unknowns (laplace1d, tridiag, coo)
	NX      int        `json:"nx,omitempty"` // grid dims (laplace2d/3d)
	NY      int        `json:"ny,omitempty"`
	NZ      int        `json:"nz,omitempty"`
	Entries []COOEntry `json:"entries,omitempty"` // kind=coo triplets (symmetrized use is caller's business)
	Solver  string     `json:"solver,omitempty"`  // cg (default) | bicgstab
	MaxIter int        `json:"max_iter,omitempty"`
	Tol     float64    `json:"tol,omitempty"`
	RHS     string     `json:"rhs,omitempty"` // ones (default) | index

	// key is the fingerprint, set by Validate: a validated request is
	// immutable and shared read-only by every rank and every job it runs.
	key string
}

// SolveResponse is the solve job result.
type SolveResponse struct {
	Converged  bool    `json:"converged"`
	Iterations int     `json:"iterations"`
	Residual   float64 `json:"residual"`
	XNorm      float64 `json:"x_norm"`
	N          int     `json:"n"`
	Millis     float64 `json:"millis"`
}

// dims returns the request kind's grid dimensions, the unused ones 1;
// their product is the global unknown count.
func (r *SolveRequest) dims() [3]int {
	switch r.Kind {
	case "laplace2d":
		return [3]int{r.NX, r.NY, 1}
	case "laplace3d":
		return [3]int{r.NX, r.NY, r.NZ}
	default:
		return [3]int{r.N, 1, 1}
	}
}

// size returns the global unknown count for the request kind, or false
// when it is over maxSolveN. Each dimension and partial product is held to
// the cap before the next multiplication, so a count that would wrap the
// int range (to a small or negative number) is refused, not solved.
func (r *SolveRequest) size() (int, bool) {
	n := 1
	for _, d := range r.dims() {
		if d > maxSolveN/n {
			return 0, false
		}
		n *= d
	}
	return n, true
}

// Validate normalizes defaults, rejects out-of-cap or malformed specs, and
// computes the fingerprint the ranks key their warm matrices by.
func (r *SolveRequest) Validate() error {
	switch r.Kind {
	case "laplace1d", "tridiag", "coo":
		if r.N <= 0 {
			return badReq("kind %q needs n > 0", r.Kind)
		}
	case "laplace2d":
		if r.NX <= 0 || r.NY <= 0 {
			return badReq("laplace2d needs nx, ny > 0")
		}
	case "laplace3d":
		if r.NX <= 0 || r.NY <= 0 || r.NZ <= 0 {
			return badReq("laplace3d needs nx, ny, nz > 0")
		}
	default:
		return badReq("unknown matrix kind %q", r.Kind)
	}
	if _, ok := r.size(); !ok {
		return badReq("dimensions %v: unknowns over the %d cap", r.dims(), maxSolveN)
	}
	if r.Kind == "coo" {
		if len(r.Entries) == 0 {
			return badReq("kind coo needs entries")
		}
		if len(r.Entries) > maxCOO {
			return badReq("%d entries over the %d cap", len(r.Entries), maxCOO)
		}
		for _, e := range r.Entries {
			if e.Row < 0 || e.Row >= r.N || e.Col < 0 || e.Col >= r.N {
				return badReq("entry (%d,%d) outside %d x %d", e.Row, e.Col, r.N, r.N)
			}
		}
	}
	switch r.Solver {
	case "":
		r.Solver = "cg"
	case "cg", "bicgstab":
	default:
		return badReq("unknown solver %q", r.Solver)
	}
	if r.MaxIter < 0 || r.MaxIter > maxIterCap {
		return badReq("max_iter %d outside [0,%d]", r.MaxIter, maxIterCap)
	}
	switch r.RHS {
	case "":
		r.RHS = "ones"
	case "ones", "index":
	default:
		return badReq("unknown rhs %q", r.RHS)
	}
	r.key = r.fingerprint()
	return nil
}

// fingerprint keys the warm matrix cache by everything that shapes the
// assembled matrix (solver/rhs/tol do not). A posted matrix enters it as a
// 64-bit hash of its entries, which two entry lists can share: matrix
// compares the entries themselves before it serves a warm coo matrix.
func (r *SolveRequest) fingerprint() string {
	h := fnv.New64a()
	for _, e := range r.Entries {
		fmt.Fprintf(h, "%d,%d,%g;", e.Row, e.Col, e.Val)
	}
	return fmt.Sprintf("%s/n=%d/%dx%dx%d/coo=%x", r.Kind, r.N, r.NX, r.NY, r.NZ, h.Sum64())
}

// warmMatrix is one cached solve spec on a rank: the assembled matrix, the
// right-hand sides built on its map so far, by rhs kind, and what every job
// of the spec solves into — x and the solver's work vectors. For kind coo
// it also keeps the posted entries its key hashes.
type warmMatrix struct {
	a       *tpetra.CrsMatrix
	rhs     map[string]*tpetra.Vector
	x       *tpetra.Vector
	ws      solvers.Workspace
	entries []COOEntry
}

// sameEntries reports whether two entry lists are the same bit for bit,
// values compared by their bits so -0 and 0 differ and a NaN matches itself.
func sameEntries(a, b []COOEntry) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if a[k].Row != b[k].Row || a[k].Col != b[k].Col || math.Float64bits(a[k].Val) != math.Float64bits(b[k].Val) {
			return false
		}
	}
	return true
}

// matrix returns the rank's warm assembled matrix for the spec, building it
// (collectively) on first use. The plan compiled inside FillComplete is
// thereby reused across every request with the same fingerprint. A coo
// entry whose kept entries are not the request's — their hashes collided —
// is rebuilt from the request; every rank of the group holds the same
// entries, so all of them take the same branch.
func (r *SolveRequest) matrix(c *comm.Comm, st *RankState) *warmMatrix {
	if w, ok := st.matrices[r.key]; ok && (r.Kind != "coo" || sameEntries(w.entries, r.Entries)) {
		return w
	}
	n, _ := r.size() // within the cap: Validate checked
	m := distmap.NewBlock(n, c.Size())
	var a *tpetra.CrsMatrix
	switch r.Kind {
	case "laplace1d":
		a = galeri.Laplace1DDist(c, m)
	case "laplace2d":
		a = galeri.Laplace2DDist(c, m, r.NX, r.NY)
	case "laplace3d":
		a = galeri.Laplace3DDist(c, m, r.NX, r.NY, r.NZ)
	case "tridiag":
		a = galeri.TridiagDist(c, m, -1, 2.5, -1)
	case "coo":
		a = tpetra.NewCrsMatrix(c, m)
		me := c.Rank()
		for _, e := range r.Entries {
			if m.Owner(e.Row) == me {
				a.InsertGlobal(e.Row, e.Col, e.Val)
			}
		}
		a.FillComplete()
	}
	w := &warmMatrix{a: a, rhs: make(map[string]*tpetra.Vector), x: tpetra.NewVector(c, m)}
	if r.Kind == "coo" {
		w.entries = append([]COOEntry(nil), r.Entries...)
	}
	st.matrices[r.key] = w
	return w
}

// rhsVector returns the warm right-hand side of the given kind on the
// matrix's map, filling it on first use. The solvers only read b, so one
// vector serves every job of the spec.
func (w *warmMatrix) rhsVector(c *comm.Comm, kind string) *tpetra.Vector {
	if b, ok := w.rhs[kind]; ok {
		return b
	}
	m := w.a.Map()
	b := tpetra.NewVector(c, m)
	switch kind {
	case "index":
		n := float64(m.NumGlobal())
		b.FillFromGlobal(func(g int) float64 { return float64(g)/n - 0.5 })
	default:
		b.PutScalar(1)
	}
	w.rhs[kind] = b
	return b
}

// Job builds the per-rank body for a validated solve request. A warm job
// allocates nothing: it solves from a zeroed x into the warm entry's x and
// work vectors (solvers.Workspace), which the group's one-job-at-a-time
// order keeps to one solve at a time, and rank 0 writes the response into
// the job record.
func (r *SolveRequest) Job() JobFunc {
	return func(c *comm.Comm, st *RankState) (any, error) {
		t0 := time.Now()
		warm := r.matrix(c, st)
		a, b, x := warm.a, warm.rhsVector(c, r.RHS), warm.x
		m := a.Map()
		clear(x.Data)
		opt := solvers.Options{MaxIter: r.MaxIter, Tol: r.Tol}
		var (
			res solvers.Result
			err error
		)
		if r.Solver == "bicgstab" {
			res, err = warm.ws.BiCGSTAB(a, b, x, opt)
		} else {
			res, err = warm.ws.CG(a, b, x, opt)
		}
		if err != nil {
			return nil, fmt.Errorf("%s on %s: %w", r.Solver, r.Kind, err)
		}
		xNorm := x.Norm2()
		if !finite(res.Residual) || !finite(xNorm) {
			return nil, fmt.Errorf("%s on %s: residual %g, ||x|| %g: %w", r.Solver, r.Kind, res.Residual, xNorm, errNonFinite)
		}
		if c.Rank() != 0 {
			return nil, nil
		}
		resp := &st.answer.solve
		*resp = SolveResponse{
			Converged:  res.Converged,
			Iterations: res.Iterations,
			Residual:   res.Residual,
			XNorm:      xNorm,
			N:          m.NumGlobal(),
			Millis:     float64(time.Since(t0).Microseconds()) / 1000,
		}
		return resp, nil
	}
}
