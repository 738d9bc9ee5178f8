package sparse

import (
	"fmt"
	"math"
	"sort"
)

// ILU0 computes the zero-fill incomplete LU factorization of a square CSR
// matrix: L and U share A's sparsity pattern, L has unit diagonal (not
// stored), and the factors are packed into a single matrix with the same
// pattern as A. It returns an error if a zero pivot is met.
func ILU0(a *CSR) (*ILUFactor, error) {
	if a.Rows != a.Cols {
		panic(fmt.Sprintf("sparse: ILU0 requires a square matrix, got %dx%d", a.Rows, a.Cols))
	}
	n := a.Rows
	lu := a.Clone()
	diagPos := make([]int, n)
	for i := 0; i < n; i++ {
		diagPos[i] = -1
		for k := lu.RowPtr[i]; k < lu.RowPtr[i+1]; k++ {
			if lu.ColIdx[k] == i {
				diagPos[i] = k
				break
			}
		}
		if diagPos[i] == -1 {
			return nil, fmt.Errorf("sparse: ILU0 needs a stored diagonal; row %d has none", i)
		}
	}
	// IKJ variant restricted to the pattern of A.
	colPos := make([]int, n) // scatter: column -> position in current row (+1), 0 = absent
	for i := 0; i < n; i++ {
		for k := lu.RowPtr[i]; k < lu.RowPtr[i+1]; k++ {
			colPos[lu.ColIdx[k]] = k + 1
		}
		for k := lu.RowPtr[i]; k < lu.RowPtr[i+1]; k++ {
			j := lu.ColIdx[k]
			if j >= i {
				break
			}
			piv := lu.Val[diagPos[j]]
			if piv == 0 {
				clearScatter(lu, colPos, i)
				return nil, fmt.Errorf("sparse: ILU0 zero pivot at row %d", j)
			}
			lij := lu.Val[k] / piv
			lu.Val[k] = lij
			for p := diagPos[j] + 1; p < lu.RowPtr[j+1]; p++ {
				if q := colPos[lu.ColIdx[p]]; q != 0 {
					lu.Val[q-1] -= lij * lu.Val[p]
				}
			}
		}
		if lu.Val[diagPos[i]] == 0 {
			clearScatter(lu, colPos, i)
			return nil, fmt.Errorf("sparse: ILU0 zero pivot at row %d", i)
		}
		clearScatter(lu, colPos, i)
	}
	return &ILUFactor{lu: lu, diagPos: diagPos}, nil
}

func clearScatter(lu *CSR, colPos []int, i int) {
	for k := lu.RowPtr[i]; k < lu.RowPtr[i+1]; k++ {
		colPos[lu.ColIdx[k]] = 0
	}
}

// ILUFactor holds a packed incomplete LU factorization.
type ILUFactor struct {
	lu      *CSR
	diagPos []int
}

// Solve applies (LU)^{-1} to b, writing the result into x (which may alias b).
func (f *ILUFactor) Solve(b, x []float64) {
	n := f.lu.Rows
	if len(b) != n || len(x) != n {
		panic("sparse: ILUFactor.Solve dimension mismatch")
	}
	// Forward: L y = b with unit diagonal.
	for i := 0; i < n; i++ {
		s := b[i]
		for k := f.lu.RowPtr[i]; k < f.lu.RowPtr[i+1]; k++ {
			j := f.lu.ColIdx[k]
			if j >= i {
				break
			}
			s -= f.lu.Val[k] * x[j]
		}
		x[i] = s
	}
	// Backward: U x = y.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for k := f.lu.RowPtr[i+1] - 1; k >= f.lu.RowPtr[i]; k-- {
			j := f.lu.ColIdx[k]
			if j <= i {
				break
			}
			s -= f.lu.Val[k] * x[j]
		}
		x[i] = s / f.lu.Val[f.diagPos[i]]
	}
}

// LUFactor holds a complete sparse LU factorization with partial pivoting,
// stored row-wise with fill-in. It is the kernel behind the Amesos-analog
// direct solver.
type LUFactor struct {
	n     int
	perm  []int   // row permutation: factor row i came from A row perm[i]
	lCols [][]int // strictly-lower entries per factor row
	lVals [][]float64
	uCols [][]int // upper (including diagonal first) per factor row
	uVals [][]float64
}

// FactorLU computes a sparse LU factorization of a square CSR matrix using
// row-wise elimination with partial pivoting and dynamic fill.
func FactorLU(a *CSR) (*LUFactor, error) {
	if a.Rows != a.Cols {
		panic(fmt.Sprintf("sparse: FactorLU requires a square matrix, got %dx%d", a.Rows, a.Cols))
	}
	n := a.Rows
	// Active rows held as sparse maps; simple and robust for the moderate
	// sizes the direct solver targets (coarse grids, gathered systems).
	rows := make([]map[int]float64, n)
	for i := 0; i < n; i++ {
		rows[i] = make(map[int]float64, a.RowNNZ(i))
		cols, vals := a.Row(i)
		for k, j := range cols {
			rows[i][j] = vals[k]
		}
	}
	remaining := make([]int, n) // original row indices still unfactored
	for i := range remaining {
		remaining[i] = i
	}
	f := &LUFactor{
		n: n, perm: make([]int, n),
		lCols: make([][]int, n), lVals: make([][]float64, n),
		uCols: make([][]int, n), uVals: make([][]float64, n),
	}
	lFromOrig := make([]map[int]float64, n) // multipliers accumulated per original row
	for i := range lFromOrig {
		lFromOrig[i] = make(map[int]float64)
	}
	for k := 0; k < n; k++ {
		// Pivot: remaining row with largest |entry| in column k.
		best, bestAbs := -1, 0.0
		for pos, orig := range remaining {
			if v, ok := rows[orig][k]; ok {
				if av := math.Abs(v); av > bestAbs {
					best, bestAbs = pos, av
				}
			}
		}
		if best == -1 || bestAbs == 0 {
			return nil, fmt.Errorf("sparse: FactorLU singular at column %d", k)
		}
		pivOrig := remaining[best]
		remaining = append(remaining[:best], remaining[best+1:]...)
		f.perm[k] = pivOrig
		// Record U row k (sorted columns >= k).
		pivRow := rows[pivOrig]
		ucols := make([]int, 0, len(pivRow))
		for j := range pivRow {
			ucols = append(ucols, j)
		}
		sort.Ints(ucols)
		for _, j := range ucols {
			f.uCols[k] = append(f.uCols[k], j)
			f.uVals[k] = append(f.uVals[k], pivRow[j])
		}
		// Record L row k (multipliers previously accumulated for pivOrig).
		lrow := lFromOrig[pivOrig]
		lcols := make([]int, 0, len(lrow))
		for j := range lrow {
			lcols = append(lcols, j)
		}
		sort.Ints(lcols)
		for _, j := range lcols {
			f.lCols[k] = append(f.lCols[k], j)
			f.lVals[k] = append(f.lVals[k], lrow[j])
		}
		// Eliminate column k from all remaining rows.
		piv := pivRow[k]
		for _, orig := range remaining {
			v, ok := rows[orig][k]
			if !ok || v == 0 {
				continue
			}
			mult := v / piv
			lFromOrig[orig][k] = mult
			delete(rows[orig], k)
			for j, pv := range pivRow {
				if j == k {
					continue
				}
				rows[orig][j] -= mult * pv
			}
		}
	}
	return f, nil
}

// Solve solves A x = b and returns a fresh solution vector.
func (f *LUFactor) Solve(b []float64) []float64 {
	if len(b) != f.n {
		panic(fmt.Sprintf("sparse: LUFactor.Solve length %d, want %d", len(b), f.n))
	}
	// Forward: L y = P b (unit diagonal L).
	y := make([]float64, f.n)
	for i := 0; i < f.n; i++ {
		s := b[f.perm[i]]
		for k, j := range f.lCols[i] {
			s -= f.lVals[i][k] * y[j]
		}
		y[i] = s
	}
	// Backward: U x = y; U rows are sorted with the diagonal first entry >= i.
	x := make([]float64, f.n)
	for i := f.n - 1; i >= 0; i-- {
		s := y[i]
		var diag float64
		for k, j := range f.uCols[i] {
			switch {
			case j == i:
				diag = f.uVals[i][k]
			case j > i:
				s -= f.uVals[i][k] * x[j]
			}
		}
		x[i] = s / diag
	}
	return x
}
