// Package eigen implements the eigensolver layer of the Trilinos analog
// (Anasazi, paper Table I): power iteration, shifted inverse iteration, and
// a Lanczos method with full reorthogonalization for symmetric operators,
// backed by a dense symmetric-tridiagonal QL eigenvalue kernel.
package eigen

import (
	"errors"
	"fmt"
	"math"

	"odinhpc/internal/tpetra"
)

// errNoConvergence is returned when an iteration hits its budget before the
// requested tolerance.
var errNoConvergence = errors.New("eigen: iteration did not converge")

// Options configures the iterative eigensolvers.
type Options struct {
	MaxIter int     // default 1000
	Tol     float64 // eigenvalue change / residual tolerance, default 1e-10
	Seed    int64   // starting-vector seed (default 1)
}

func (o Options) withDefaults() Options {
	if o.MaxIter <= 0 {
		o.MaxIter = 1000
	}
	if o.Tol <= 0 {
		o.Tol = 1e-10
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// eigenpair reports a single converged eigenpair.
type eigenpair struct {
	Value      float64
	Vector     *tpetra.Vector
	Iterations int
	Residual   float64 // ||A v - lambda v||
}

// powerMethod computes the dominant eigenpair of a by power iteration.
// Collective.
func powerMethod(a tpetra.Operator, model *tpetra.Vector, opt Options) (eigenpair, error) {
	opt = opt.withDefaults()
	c := model.Comm()
	v := tpetra.NewVector(c, a.Map())
	v.Randomize(opt.Seed)
	n := v.Norm2()
	if n == 0 {
		return eigenpair{}, fmt.Errorf("eigen: zero starting vector")
	}
	v.Scale(1 / n)
	w := tpetra.NewVector(c, a.Map())
	lambda := 0.0
	for k := 1; k <= opt.MaxIter; k++ {
		a.Apply(v, w)
		// Rayleigh quotient (v normalized).
		newLambda := v.Dot(w)
		// Residual ||Av - lambda v||.
		r := w.Clone()
		r.Axpy(-newLambda, v)
		resid := r.Norm2()
		wn := w.Norm2()
		if wn == 0 {
			return eigenpair{}, fmt.Errorf("eigen: operator annihilated the iterate")
		}
		v.CopyFrom(w)
		v.Scale(1 / wn)
		if math.Abs(newLambda-lambda) <= opt.Tol*math.Abs(newLambda) && resid <= opt.Tol*math.Abs(newLambda)*10 {
			return eigenpair{Value: newLambda, Vector: v, Iterations: k, Residual: resid}, nil
		}
		lambda = newLambda
	}
	return eigenpair{Value: lambda, Vector: v, Iterations: opt.MaxIter}, errNoConvergence
}

// linearSolver abstracts the inner solve of inverse iteration, decoupling
// this package from a specific solver choice.
type linearSolver func(b, x *tpetra.Vector) error

// inverseIteration computes the eigenvalue of a closest to shift by inverse
// iteration, using solve to apply (A - shift I)^{-1}. The operator passed in
// must already be shifted; solve receives the current iterate as the
// right-hand side. Collective.
func inverseIteration(a tpetra.Operator, shift float64, solve linearSolver, model *tpetra.Vector, opt Options) (eigenpair, error) {
	opt = opt.withDefaults()
	c := model.Comm()
	v := tpetra.NewVector(c, a.Map())
	v.Randomize(opt.Seed)
	v.Scale(1 / v.Norm2())
	w := tpetra.NewVector(c, a.Map())
	av := tpetra.NewVector(c, a.Map())
	lambda := shift
	for k := 1; k <= opt.MaxIter; k++ {
		if err := solve(v, w); err != nil {
			return eigenpair{}, fmt.Errorf("eigen: inner solve failed: %w", err)
		}
		wn := w.Norm2()
		if wn == 0 {
			return eigenpair{}, fmt.Errorf("eigen: inverse iteration broke down")
		}
		w.Scale(1 / wn)
		v.CopyFrom(w)
		// Rayleigh quotient with the original operator.
		a.Apply(v, av)
		newLambda := v.Dot(av)
		r := av.Clone()
		r.Axpy(-newLambda, v)
		resid := r.Norm2()
		if math.Abs(newLambda-lambda) <= opt.Tol*math.Max(1, math.Abs(newLambda)) {
			return eigenpair{Value: newLambda, Vector: v, Iterations: k, Residual: resid}, nil
		}
		lambda = newLambda
	}
	return eigenpair{Value: lambda, Vector: v, Iterations: opt.MaxIter}, errNoConvergence
}

// Lanczos runs k steps of the symmetric Lanczos process with full
// reorthogonalization and returns the Ritz values (approximate eigenvalues)
// in ascending order. For k >= n it returns the full spectrum to tridiagonal
// accuracy. Collective.
func Lanczos(a tpetra.Operator, model *tpetra.Vector, k int, opt Options) ([]float64, error) {
	opt = opt.withDefaults()
	if k < 1 {
		return nil, fmt.Errorf("eigen: Lanczos needs k >= 1, got %d", k)
	}
	n := a.Map().NumGlobal()
	if k > n {
		k = n
	}
	c := model.Comm()
	q := make([]*tpetra.Vector, 0, k+1)
	v := tpetra.NewVector(c, a.Map())
	v.Randomize(opt.Seed)
	v.Scale(1 / v.Norm2())
	q = append(q, v)
	alphas := make([]float64, 0, k)
	betas := make([]float64, 0, k) // betas[j] couples q_j and q_{j+1}
	w := tpetra.NewVector(c, a.Map())
	for j := 0; j < k; j++ {
		a.Apply(q[j], w)
		if j > 0 {
			w.Axpy(-betas[j-1], q[j-1])
		}
		alpha := q[j].Dot(w)
		w.Axpy(-alpha, q[j])
		// Full reorthogonalization for numerical robustness.
		for _, qi := range q {
			w.Axpy(-w.Dot(qi), qi)
		}
		alphas = append(alphas, alpha)
		beta := w.Norm2()
		if beta <= 1e-14 || j == k-1 {
			break // invariant subspace found or budget reached
		}
		betas = append(betas, beta)
		nq := w.Clone()
		nq.Scale(1 / beta)
		q = append(q, nq)
	}
	vals := make([]float64, len(alphas))
	copy(vals, alphas)
	off := make([]float64, len(alphas))
	copy(off[1:], betas)
	if err := tqli(vals, off); err != nil {
		return nil, err
	}
	sortFloats(vals)
	return vals, nil
}

// SpectralBounds estimates (lambda_min, lambda_max) of a symmetric operator
// from a k-step Lanczos run — the input the Chebyshev preconditioner needs.
func SpectralBounds(a tpetra.Operator, model *tpetra.Vector, k int) (lo, hi float64, err error) {
	vals, err := Lanczos(a, model, k, Options{})
	if err != nil {
		return 0, 0, err
	}
	return vals[0], vals[len(vals)-1], nil
}

// tqli computes all eigenvalues of a symmetric tridiagonal matrix with
// diagonal d and sub-diagonal e (e[0] unused), by the implicit-shift QL
// algorithm. d is overwritten with the eigenvalues (unsorted).
func tqli(d, e []float64) error {
	n := len(d)
	if n == 0 {
		return nil
	}
	// Shift the off-diagonal for the standard indexing.
	e = append(e[1:], 0)
	for l := 0; l < n; l++ {
		for iter := 0; ; iter++ {
			if iter > 50 {
				return fmt.Errorf("eigen: tqli failed to converge at row %d", l)
			}
			var m int
			for m = l; m < n-1; m++ {
				dd := math.Abs(d[m]) + math.Abs(d[m+1])
				if math.Abs(e[m]) <= 1e-18*dd || e[m] == 0 {
					break
				}
			}
			if m == l {
				break
			}
			g := (d[l+1] - d[l]) / (2 * e[l])
			r := math.Hypot(g, 1)
			g = d[m] - d[l] + e[l]/(g+math.Copysign(r, g))
			s, cc := 1.0, 1.0
			p := 0.0
			for i := m - 1; i >= l; i-- {
				f := s * e[i]
				b := cc * e[i]
				r = math.Hypot(f, g)
				e[i+1] = r
				if r == 0 {
					d[i+1] -= p
					e[m] = 0
					break
				}
				s = f / r
				cc = g / r
				g = d[i+1] - p
				r = (d[i]-g)*s + 2*cc*b
				p = s * r
				d[i+1] = g + p
				g = cc*r - b
			}
			if r == 0 && m-1 >= l {
				continue
			}
			d[l] -= p
			e[l] = g
			e[m] = 0
		}
	}
	return nil
}

func sortFloats(v []float64) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}
