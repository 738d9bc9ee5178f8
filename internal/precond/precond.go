// Package precond implements the algebraic preconditioners of the Trilinos
// analog: point and block Jacobi, SSOR, ILU(0) (Ifpack, paper Table I), and
// a smoothed-aggregation algebraic multigrid (the ML analog). Distributed
// preconditioners follow Ifpack's design: a one-level additive Schwarz
// decomposition whose subdomain solves run on each rank's local diagonal
// block.
package precond

import (
	"fmt"

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
