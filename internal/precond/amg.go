package precond

import (
	"fmt"
	"math"

	"odinhpc/internal/sparse"
	"odinhpc/internal/tpetra"
)

// AMG is a serial smoothed-aggregation algebraic multigrid solver — the ML
// analog (paper Table I: "ML — multi-level (algebraic multigrid)
// preconditioners"). In parallel it is deployed as the subdomain solver of
// an additive Schwarz preconditioner (NewAMG), mirroring how ML-style
// preconditioners compose in Ifpack-like stacks.
type AMG struct {
	levels []amgLevel
	coarse *sparse.LUFactor
	opts   AMGOptions
}

type amgLevel struct {
	a    *sparse.CSR
	p    *sparse.CSR // prolongator: coarse -> fine
	r    *sparse.CSR // restriction: P^T
	diag []float64
	// SpMV operators per the sparse-format auto-selector (SELL-C-sigma on
	// even-rowed stencil hierarchies, CSR otherwise). Bitwise-identical to
	// applying the CSR members directly; Gauss-Seidel keeps CSR row access.
	aop sparse.Operator
	pop sparse.Operator
	rop sparse.Operator
}

// AMGOptions configures the hierarchy construction and cycling.
type AMGOptions struct {
	Theta       float64 // strength-of-connection drop tolerance (default 0.08)
	JacobiOmega float64 // prolongator-smoothing and smoother weight (default 2/3)
	PreSweeps   int     // pre-smoothing sweeps (default 1)
	PostSweeps  int     // post-smoothing sweeps (default 1)
	CoarseSize  int     // direct-solve threshold (default 16)
	MaxLevels   int     // hierarchy depth cap (default 20)
}

func (o AMGOptions) withDefaults() AMGOptions {
	if o.Theta <= 0 {
		o.Theta = 0.08
	}
	if o.JacobiOmega <= 0 {
		o.JacobiOmega = 2.0 / 3.0
	}
	if o.PreSweeps <= 0 {
		o.PreSweeps = 1
	}
	if o.PostSweeps <= 0 {
		o.PostSweeps = 1
	}
	if o.CoarseSize <= 0 {
		o.CoarseSize = 16
	}
	if o.MaxLevels <= 0 {
		o.MaxLevels = 20
	}
	return o
}

// NewSerialAMG builds a smoothed-aggregation hierarchy for the square
// matrix a.
func NewSerialAMG(a *sparse.CSR, opts AMGOptions) (*AMG, error) {
	if a.Rows != a.Cols {
		panic(fmt.Sprintf("precond: AMG requires a square matrix, got %dx%d", a.Rows, a.Cols))
	}
	opts = opts.withDefaults()
	amg := &AMG{opts: opts}
	cur := a
	for level := 0; cur.Rows > opts.CoarseSize && level < opts.MaxLevels; level++ {
		agg, nAgg := aggregate(cur, opts.Theta)
		if nAgg == 0 || nAgg >= cur.Rows {
			break // aggregation stalled; stop coarsening
		}
		p := smoothedProlongator(cur, agg, nAgg, opts.JacobiOmega)
		r := p.Transpose()
		ac := r.MatMul(cur).MatMul(p)
		amg.levels = append(amg.levels, amgLevel{
			a: cur, p: p, r: r, diag: cur.Diag(),
			aop: sparse.AutoOperator(cur), pop: sparse.AutoOperator(p), rop: sparse.AutoOperator(r),
		})
		cur = ac
	}
	lu, err := sparse.FactorLU(cur)
	if err != nil {
		return nil, fmt.Errorf("precond: AMG coarse solve: %w", err)
	}
	amg.coarse = lu
	amg.levels = append(amg.levels, amgLevel{a: cur, diag: cur.Diag(), aop: sparse.AutoOperator(cur)})
	return amg, nil
}

// NumLevels returns the depth of the hierarchy including the coarse level.
func (m *AMG) NumLevels() int { return len(m.levels) }

// LocalSolve runs one V-cycle for A z = r (z overwritten), satisfying the
// LocalSolver interface so an AMG can serve as a Schwarz subdomain solver.
func (m *AMG) LocalSolve(r, z []float64) {
	for i := range z {
		z[i] = 0
	}
	m.vcycle(0, r, z)
}

func (m *AMG) vcycle(level int, r, z []float64) {
	l := m.levels[level]
	if level == len(m.levels)-1 {
		copy(z, m.coarse.Solve(r))
		return
	}
	// Pre-smooth with forward Gauss-Seidel on the residual equation.
	m.smooth(l, r, z, m.opts.PreSweeps, false)
	// Coarse-grid correction.
	res := make([]float64, l.a.Rows)
	l.aop.MulVec(z, res)
	for i := range res {
		res[i] = r[i] - res[i]
	}
	rc := make([]float64, l.r.Rows)
	l.rop.MulVec(res, rc)
	zc := make([]float64, l.r.Rows)
	m.vcycle(level+1, rc, zc)
	corr := make([]float64, l.a.Rows)
	l.pop.MulVec(zc, corr)
	for i := range z {
		z[i] += corr[i]
	}
	// Post-smooth backward, making the V-cycle a symmetric operator (so it
	// is admissible as a CG preconditioner).
	m.smooth(l, r, z, m.opts.PostSweeps, true)
}

// smooth performs Gauss-Seidel sweeps on A z = r, forward or backward.
func (m *AMG) smooth(l amgLevel, r, z []float64, sweeps int, backward bool) {
	a := l.a
	n := a.Rows
	for s := 0; s < sweeps; s++ {
		if backward {
			for i := n - 1; i >= 0; i-- {
				gsRow(a, l.diag, r, z, i)
			}
		} else {
			for i := 0; i < n; i++ {
				gsRow(a, l.diag, r, z, i)
			}
		}
	}
}

func gsRow(a *sparse.CSR, diag, r, z []float64, i int) {
	if diag[i] == 0 {
		return
	}
	acc := r[i]
	for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
		j := a.ColIdx[k]
		if j != i {
			acc -= a.Val[k] * z[j]
		}
	}
	z[i] = acc / diag[i]
}

// aggregate performs greedy root-based aggregation on the strength graph:
// entry (i,j) is strong if |a_ij| > theta * sqrt(|a_ii a_jj|). Returns the
// aggregate id per row and the aggregate count.
func aggregate(a *sparse.CSR, theta float64) ([]int, int) {
	n := a.Rows
	diag := a.Diag()
	strong := func(i, k int) bool {
		j := a.ColIdx[k]
		v := a.Val[k]
		t := theta * sqrtAbs(diag[i]*diag[j])
		return abs(v) > t
	}
	agg := make([]int, n)
	for i := range agg {
		agg[i] = -1
	}
	nAgg := 0
	// Phase 1: roots with all-unaggregated strong neighborhoods.
	for i := 0; i < n; i++ {
		if agg[i] != -1 {
			continue
		}
		free := true
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if a.ColIdx[k] != i && strong(i, k) && agg[a.ColIdx[k]] != -1 {
				free = false
				break
			}
		}
		if !free {
			continue
		}
		agg[i] = nAgg
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if a.ColIdx[k] != i && strong(i, k) {
				agg[a.ColIdx[k]] = nAgg
			}
		}
		nAgg++
	}
	// Phase 2: attach leftovers to a strongly connected aggregate.
	for i := 0; i < n; i++ {
		if agg[i] != -1 {
			continue
		}
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			j := a.ColIdx[k]
			if j != i && strong(i, k) && agg[j] != -1 {
				agg[i] = agg[j]
				break
			}
		}
	}
	// Phase 3: isolated points become singleton aggregates.
	for i := 0; i < n; i++ {
		if agg[i] == -1 {
			agg[i] = nAgg
			nAgg++
		}
	}
	return agg, nAgg
}

// smoothedProlongator builds P = (I - omega D^{-1} A) P0 where P0 is the
// piecewise-constant tentative prolongator over the aggregates.
func smoothedProlongator(a *sparse.CSR, agg []int, nAgg int, omega float64) *sparse.CSR {
	n := a.Rows
	// Tentative prolongator (normalized columns: 1/sqrt(size)).
	sizes := make([]int, nAgg)
	for _, g := range agg {
		sizes[g]++
	}
	p0 := sparse.NewCOO(n, nAgg)
	p0.Reserve(n)
	for i, g := range agg {
		p0.Add(i, g, 1/sqrtAbs(float64(sizes[g])))
	}
	pt := p0.ToCSR()
	// Jacobi smoothing: P = P0 - omega D^{-1} A P0.
	diag := a.Diag()
	ap := a.MatMul(pt)
	out := sparse.NewCOO(n, nAgg)
	for i := 0; i < n; i++ {
		cols, vals := pt.Row(i)
		for k, j := range cols {
			out.Add(i, j, vals[k])
		}
		if diag[i] == 0 {
			continue
		}
		cols, vals = ap.Row(i)
		for k, j := range cols {
			out.Add(i, j, -omega*vals[k]/diag[i])
		}
	}
	return out.ToCSR()
}

// NewAMG builds the distributed AMG preconditioner: additive Schwarz with a
// serial smoothed-aggregation V-cycle on each rank's diagonal block.
func NewAMG(a *tpetra.CrsMatrix, opts AMGOptions) (*AdditiveSchwarz, error) {
	return NewAdditiveSchwarz(a, func(block *sparse.CSR) (LocalSolver, error) {
		return NewSerialAMG(block, opts)
	})
}

func abs(v float64) float64 { return math.Abs(v) }

func sqrtAbs(v float64) float64 { return math.Sqrt(math.Abs(v)) }
