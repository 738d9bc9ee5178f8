package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"

	"odinhpc/internal/fusion"
	"odinhpc/internal/serve"
)

// workload is one request shape, posted over and over by the closed-loop
// client. The served program sees only path and body; everything else here
// is what the harness needs to verify answers and to rebuild the same job
// from public API for the per-layer probes.
type workload struct {
	name string
	path string
	body []byte

	solve      *serve.SolveRequest // decoded body of a /v1/solve workload
	wantIters  int                 // CG iterations this request takes; any change is a correctness event
	spmvFormat string              // the local SpMV format of its matrix, for the header

	expr  *serve.ExprRequest                     // decoded body of a /v1/expr workload
	vars  []string                               // its variable names, sorted
	build func(leaf []*fusion.Expr) *fusion.Expr // the same expression on fusion's builders, leaves in vars order

	// prefix is the response body up to its "millis" field, taken from the
	// reference response once that is verified in full. Every later response
	// of the run must start with it: answers are bit-identical across jobs,
	// rounds and fresh schedulers.
	prefix []byte
}

// tolJitter spreads the seed over five tolerances 1% apart. The iteration
// counts do not change across them (tests pin this), so every seed does the
// same work: the driver takes the spread across seeds as noise, and a seed
// that resized the problem would be counted against the benchmark.
func tolJitter(base float64, seed int64) float64 {
	return base * (1 + 0.01*float64(((seed-1)%5+5)%5))
}

// newWorkloads generates the four request bodies from the seed.
func newWorkloads(seed int64) []*workload {
	// Variable names carry the seed: serve fills an array from a hash of its
	// name, so each seed sweeps different data of the same size.
	x, y := fmt.Sprintf("x%04x", seed&0xffff), fmt.Sprintf("y%04x", seed&0xffff)
	ws := []*workload{
		{
			name: "solve_small", path: "/v1/solve", wantIters: 256,
			body: mustJSON(serve.SolveRequest{Kind: "laplace1d", N: 512, Tol: tolJitter(1e-10, seed)}),
		},
		{
			name: "solve_large", path: "/v1/solve", wantIters: 79,
			body: mustJSON(serve.SolveRequest{Kind: "laplace3d", NX: 32, NY: 32, NZ: 32, Tol: tolJitter(1e-8, seed)}),
		},
		{
			name: "expr_fused", path: "/v1/expr",
			body: mustJSON(serve.ExprRequest{Expr: fmt.Sprintf("sqrt(%[1]s*%[1]s+%[2]s*%[2]s)+exp(-%[1]s)*sin(%[2]s)", x, y), N: 131072}),
			build: func(l []*fusion.Expr) *fusion.Expr {
				return fusion.Sqrt(l[0].Mul(l[0]).Add(l[1].Mul(l[1]))).Add(fusion.Exp(fusion.Neg(l[0])).Mul(fusion.Sin(l[1])))
			},
		},
		{
			name: "dispatch_tiny", path: "/v1/expr",
			body:  mustJSON(serve.ExprRequest{Expr: x + "+" + y, N: 64}),
			build: func(l []*fusion.Expr) *fusion.Expr { return l[0].Add(l[1]) },
		},
	}
	for _, w := range ws {
		if w.path == "/v1/solve" {
			w.solve = new(serve.SolveRequest)
			mustDecode(w.body, w.solve)
		} else {
			w.expr = new(serve.ExprRequest)
			mustDecode(w.body, w.expr)
			w.vars = []string{x, y}
		}
	}
	return ws
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// mustDecode decodes and validates a body the way serve's handlers do. The
// bodies are generated above, so a failure is a bug in this file.
func mustDecode(body []byte, req interface{ Validate() error }) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		panic(err)
	}
	if err := req.Validate(); err != nil {
		panic(err)
	}
}

// varFill is serve's array fill, restated: the replica expression job has
// to sweep the same data as the served one, and checks that it did by
// comparing sums bit for bit.
func varFill(name string, g int) float64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	seed := float64(h.Sum64()%1000) / 1000
	return 0.5 + 0.4*math.Sin(seed*7+float64(g)*3)
}

// responsePrefix cuts a response body before its "millis" field, the only
// part that differs between two correct answers to one request.
func responsePrefix(body []byte) ([]byte, error) {
	i := bytes.Index(body, []byte(`"millis"`))
	if i < 0 {
		return nil, fmt.Errorf("response has no millis field: %s", body)
	}
	return append([]byte(nil), body[:i]...), nil
}

// verifyFull checks one response in full. refSum is the sum the same
// expression request gave on a one-rank scheduler (unused for solves).
func (w *workload) verifyFull(body []byte, refSum float64) error {
	if w.solve != nil {
		var r serve.SolveResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		switch {
		case !r.Converged:
			return fmt.Errorf("%s: not converged after %d iterations", w.name, r.Iterations)
		case r.Iterations != w.wantIters:
			return fmt.Errorf("%s: %d iterations, want %d", w.name, r.Iterations, w.wantIters)
		case !(r.Residual <= w.solve.Tol):
			return fmt.Errorf("%s: residual %g over tol %g", w.name, r.Residual, w.solve.Tol)
		}
		return nil
	}
	var r serve.ExprResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return err
	}
	if !(math.Abs(r.Sum-refSum) <= 1e-10*math.Abs(refSum)) {
		return fmt.Errorf("%s: sum %v differs from the one-rank sum %v", w.name, r.Sum, refSum)
	}
	return nil
}
