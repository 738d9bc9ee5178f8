// Package eigen implements the eigensolver layer of the Trilinos analog
// (Anasazi, paper Table I): a Lanczos method with full reorthogonalization
// for symmetric operators, backed by a dense symmetric-tridiagonal QL
// eigenvalue kernel.
package eigen

import (
	"fmt"
	"math"

	"odinhpc/internal/tpetra"
)

// Options configures Lanczos.
type Options struct {
	Seed int64 // starting-vector seed (default 1)
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
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
// from a k-step Lanczos run.
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
