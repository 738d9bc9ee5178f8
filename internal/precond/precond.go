// Package precond implements the algebraic preconditioners of the Trilinos
// analog: point and block Jacobi, SSOR, ILU(0) (Ifpack, paper Table I), a
// Chebyshev polynomial preconditioner, and a smoothed-aggregation algebraic
// multigrid (the ML analog). Distributed preconditioners follow Ifpack's
// design: a one-level additive Schwarz decomposition whose subdomain solves
// run on each rank's local diagonal block.
package precond

import (
	"fmt"
	"math"

	"odinhpc/internal/sparse"
	"odinhpc/internal/tpetra"
)

// Jacobi is the point-Jacobi (diagonal scaling) preconditioner.
type Jacobi struct {
	inv *tpetra.Vector
}

// NewJacobi builds a Jacobi preconditioner from the matrix diagonal. It
// returns an error if the diagonal contains zeros.
func NewJacobi(a *tpetra.CrsMatrix) (*Jacobi, error) {
	d := a.Diagonal()
	for _, v := range d.Data {
		if v == 0 {
			return nil, fmt.Errorf("precond: Jacobi requires a non-zero diagonal")
		}
	}
	inv := tpetra.NewVector(d.Comm(), d.Map())
	inv.Reciprocal(d)
	return &Jacobi{inv: inv}, nil
}

// ApplyInverse computes z = D^{-1} r.
func (j *Jacobi) ApplyInverse(r, z *tpetra.Vector) {
	z.ElementWiseMultiply(j.inv, r)
}

// LocalSolver approximately solves the local diagonal block system
// B z = r for the per-rank slices of a distributed residual.
type LocalSolver interface {
	LocalSolve(r, z []float64)
}

// AdditiveSchwarz is the one-level additive Schwarz preconditioner with
// zero overlap: each rank solves its own diagonal block with the configured
// LocalSolver and contributions are combined additively. This is how
// Ifpack's ILU/IC/exact-LU preconditioners operate in parallel.
type AdditiveSchwarz struct {
	local LocalSolver
	n     int
}

// NewAdditiveSchwarz extracts the local diagonal block of a and builds the
// subdomain solver with factory.
func NewAdditiveSchwarz(a *tpetra.CrsMatrix, factory func(block *sparse.CSR) (LocalSolver, error)) (*AdditiveSchwarz, error) {
	block := a.LocalDiagonalBlock()
	ls, err := factory(block)
	if err != nil {
		return nil, err
	}
	return &AdditiveSchwarz{local: ls, n: block.Rows}, nil
}

// ApplyInverse solves each local block independently: z_local = B^{-1} r_local.
func (s *AdditiveSchwarz) ApplyInverse(r, z *tpetra.Vector) {
	if len(r.Data) != s.n || len(z.Data) != s.n {
		panic("precond: AdditiveSchwarz local size mismatch")
	}
	s.local.LocalSolve(r.Data, z.Data)
}

// iluSolver adapts sparse.ILUFactor to LocalSolver.
type iluSolver struct{ f *sparse.ILUFactor }

func (s iluSolver) LocalSolve(r, z []float64) { s.f.Solve(r, z) }

// NewILU0 builds the Ifpack-style parallel ILU(0): additive Schwarz with a
// zero-fill incomplete factorization of each local block.
func NewILU0(a *tpetra.CrsMatrix) (*AdditiveSchwarz, error) {
	return NewAdditiveSchwarz(a, func(block *sparse.CSR) (LocalSolver, error) {
		f, err := sparse.ILU0(block)
		if err != nil {
			return nil, err
		}
		return iluSolver{f}, nil
	})
}

// luSolver adapts sparse.LUFactor to LocalSolver.
type luSolver struct{ f *sparse.LUFactor }

func (s luSolver) LocalSolve(r, z []float64) { copy(z, s.f.Solve(r)) }

// NewBlockJacobi builds block-Jacobi preconditioning: an exact sparse LU of
// each rank's diagonal block (additive Schwarz with exact subdomain solves).
func NewBlockJacobi(a *tpetra.CrsMatrix) (*AdditiveSchwarz, error) {
	return NewAdditiveSchwarz(a, func(block *sparse.CSR) (LocalSolver, error) {
		f, err := sparse.FactorLU(block)
		if err != nil {
			return nil, err
		}
		return luSolver{f}, nil
	})
}

// ssorSolver runs symmetric SOR sweeps on the local block.
type ssorSolver struct {
	block  *sparse.CSR
	omega  float64
	sweeps int
}

func (s ssorSolver) LocalSolve(r, z []float64) {
	n := s.block.Rows
	for i := range z {
		z[i] = 0
	}
	for sweep := 0; sweep < s.sweeps; sweep++ {
		// Forward SOR.
		for i := 0; i < n; i++ {
			acc := r[i]
			var diag float64
			for k := s.block.RowPtr[i]; k < s.block.RowPtr[i+1]; k++ {
				j := s.block.ColIdx[k]
				if j == i {
					diag = s.block.Val[k]
				} else {
					acc -= s.block.Val[k] * z[j]
				}
			}
			if diag != 0 {
				z[i] += s.omega * (acc/diag - z[i])
			}
		}
		// Backward SOR.
		for i := n - 1; i >= 0; i-- {
			acc := r[i]
			var diag float64
			for k := s.block.RowPtr[i]; k < s.block.RowPtr[i+1]; k++ {
				j := s.block.ColIdx[k]
				if j == i {
					diag = s.block.Val[k]
				} else {
					acc -= s.block.Val[k] * z[j]
				}
			}
			if diag != 0 {
				z[i] += s.omega * (acc/diag - z[i])
			}
		}
	}
}

// NewSSOR builds the processor-local symmetric SOR preconditioner with
// relaxation factor omega in (0, 2) and the given sweep count.
func NewSSOR(a *tpetra.CrsMatrix, omega float64, sweeps int) (*AdditiveSchwarz, error) {
	if omega <= 0 || omega >= 2 {
		return nil, fmt.Errorf("precond: SSOR omega must lie in (0,2), got %g", omega)
	}
	if sweeps <= 0 {
		return nil, fmt.Errorf("precond: SSOR needs sweeps >= 1, got %d", sweeps)
	}
	return NewAdditiveSchwarz(a, func(block *sparse.CSR) (LocalSolver, error) {
		return ssorSolver{block: block, omega: omega, sweeps: sweeps}, nil
	})
}

// chebyshev is the polynomial preconditioner: z = p_k(A) r where p_k is the
// degree-k Chebyshev polynomial minimizing the residual over the eigenvalue
// interval [lMin, lMax]. Unlike the Schwarz family it applies the full
// distributed operator, so its quality does not degrade with rank count.
type chebyshev struct {
	a          tpetra.Operator
	degree     int
	lMin, lMax float64
	d          *tpetra.Vector // scratch
	tmp        *tpetra.Vector
}

// newChebyshev builds a Chebyshev preconditioner of the given degree using
// the eigenvalue bounds [lMin, lMax] (see estimateMaxEigen for estimating
// lMax; Ifpack's default lMin = lMax/30 works well for Laplacians).
func newChebyshev(a tpetra.Operator, comm *tpetra.Vector, degree int, lMin, lMax float64) (*chebyshev, error) {
	if degree < 1 {
		return nil, fmt.Errorf("precond: Chebyshev degree must be >= 1, got %d", degree)
	}
	if lMin <= 0 || lMax <= lMin {
		return nil, fmt.Errorf("precond: Chebyshev needs 0 < lMin < lMax, got [%g, %g]", lMin, lMax)
	}
	return &chebyshev{
		a:      a,
		degree: degree,
		lMin:   lMin,
		lMax:   lMax,
		d:      tpetra.NewVector(comm.Comm(), a.Map()),
		tmp:    tpetra.NewVector(comm.Comm(), a.Map()),
	}, nil
}

// ApplyInverse runs the Chebyshev iteration for A z = r with z0 = 0.
func (ch *chebyshev) ApplyInverse(r, z *tpetra.Vector) {
	theta := (ch.lMax + ch.lMin) / 2
	delta := (ch.lMax - ch.lMin) / 2
	z.PutScalar(0)
	// First step: d = r / theta.
	ch.d.CopyFrom(r)
	ch.d.Scale(1 / theta)
	z.Axpy(1, ch.d)
	alpha := delta / theta
	rhoPrev := 1 / alpha
	res := ch.tmp // recomputed residual r - A z
	for k := 1; k < ch.degree; k++ {
		// res = r - A z
		ch.a.Apply(z, res)
		res.Update(1, r, -1)
		rho := 1 / (2/alpha - rhoPrev)
		// d = rho*rhoPrev*d + (2*rho/delta) * res
		ch.d.Scale(rho * rhoPrev)
		ch.d.Axpy(2*rho/delta, res)
		z.Axpy(1, ch.d)
		rhoPrev = rho
	}
}

// estimateMaxEigen runs p power-method iterations on A to estimate its
// largest eigenvalue, with a 10% safety margin as Ifpack applies.
func estimateMaxEigen(a tpetra.Operator, model *tpetra.Vector, iters int) float64 {
	v := model.Clone()
	v.FillFromGlobal(func(g int) float64 { return math.Sin(float64(g)*0.7) + 1.1 })
	n := v.Norm2()
	if n == 0 {
		return 1
	}
	v.Scale(1 / n)
	w := model.Clone()
	lambda := 1.0
	for k := 0; k < iters; k++ {
		a.Apply(v, w)
		lambda = w.Norm2()
		if lambda == 0 {
			return 1
		}
		v.CopyFrom(w)
		v.Scale(1 / lambda)
	}
	return 1.1 * lambda
}
