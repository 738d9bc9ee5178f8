// Package sparse implements serial sparse matrix kernels in compressed
// sparse row (CSR) form: construction via COO triplets, sparse
// matrix-vector products, transposition, and the incomplete and complete
// factorizations used by the preconditioner and direct-solver packages.
package sparse

import (
	"fmt"
	"math"
	"sort"

	"odinhpc/internal/exec"
)

// COO is a coordinate-format triplet builder. Duplicate entries are summed
// when converting to CSR, matching the usual finite-element assembly
// semantics.
type COO struct {
	rows, cols int
	i, j       []int
	v          []float64
}

// NewCOO returns an empty builder for a rows x cols matrix.
func NewCOO(rows, cols int) *COO {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("sparse: negative dimensions %dx%d", rows, cols))
	}
	return &COO{rows: rows, cols: cols}
}

// Add appends the triplet (i, j, v). Zero values are kept so that explicit
// zeros can establish sparsity patterns for ILU.
func (c *COO) Add(i, j int, v float64) {
	if i < 0 || i >= c.rows || j < 0 || j >= c.cols {
		panic(fmt.Sprintf("sparse: entry (%d,%d) outside %dx%d", i, j, c.rows, c.cols))
	}
	c.i = append(c.i, i)
	c.j = append(c.j, j)
	c.v = append(c.v, v)
}

// NNZ returns the number of triplets added so far (before deduplication).
func (c *COO) NNZ() int { return len(c.v) }

// ToCSR converts the triplets to CSR form, sorting column indices within
// each row and summing duplicates.
func (c *COO) ToCSR() *CSR {
	// Pass 1: bucket entries by row.
	counts := make([]int, c.rows+1)
	for _, i := range c.i {
		counts[i+1]++
	}
	for r := 0; r < c.rows; r++ {
		counts[r+1] += counts[r]
	}
	cols := make([]int, len(c.v))
	vals := make([]float64, len(c.v))
	next := make([]int, c.rows)
	copy(next, counts[:c.rows])
	for k := range c.v {
		p := next[c.i[k]]
		cols[p] = c.j[k]
		vals[p] = c.v[k]
		next[c.i[k]]++
	}
	// Pass 2: sort each row by column and merge duplicates in place. The
	// output arrays are sized for the no-duplicate case up front so the
	// append loop never reallocates.
	m := &CSR{Rows: c.rows, Cols: c.cols, RowPtr: make([]int, c.rows+1)}
	m.ColIdx = make([]int, 0, len(c.v))
	m.Val = make([]float64, 0, len(c.v))
	for r := 0; r < c.rows; r++ {
		lo, hi := counts[r], counts[r+1]
		sortRowPairs(cols[lo:hi], vals[lo:hi])
		for k := lo; k < hi; k++ {
			n := len(m.ColIdx)
			if n > m.RowPtr[r] && m.ColIdx[n-1] == cols[k] {
				m.Val[n-1] += vals[k]
				continue
			}
			m.ColIdx = append(m.ColIdx, cols[k])
			m.Val = append(m.Val, vals[k])
		}
		m.RowPtr[r+1] = len(m.ColIdx)
	}
	return m
}

// sortRowPairs sorts the parallel cols/vals slices by ascending column
// without allocating — sort.Sort(rowSorter{...}) boxed an interface per row,
// which dominated ToCSR's allocation profile for assembly-heavy callers.
// Insertion sort handles the short rows typical of stencils; longer rows
// take a median-of-three Hoare quicksort.
func sortRowPairs(cols []int, vals []float64) {
	n := len(cols)
	if n < 16 {
		for i := 1; i < n; i++ {
			col, val := cols[i], vals[i]
			j := i - 1
			for j >= 0 && cols[j] > col {
				cols[j+1], vals[j+1] = cols[j], vals[j]
				j--
			}
			cols[j+1], vals[j+1] = col, val
		}
		return
	}
	// Median-of-three pivot, moved to the middle slot.
	mid := n / 2
	if cols[mid] < cols[0] {
		cols[0], cols[mid] = cols[mid], cols[0]
		vals[0], vals[mid] = vals[mid], vals[0]
	}
	if cols[n-1] < cols[0] {
		cols[0], cols[n-1] = cols[n-1], cols[0]
		vals[0], vals[n-1] = vals[n-1], vals[0]
	}
	if cols[n-1] < cols[mid] {
		cols[mid], cols[n-1] = cols[n-1], cols[mid]
		vals[mid], vals[n-1] = vals[n-1], vals[mid]
	}
	p := cols[mid]
	i, j := -1, n
	for {
		for {
			i++
			if cols[i] >= p {
				break
			}
		}
		for {
			j--
			if cols[j] <= p {
				break
			}
		}
		if i >= j {
			break
		}
		cols[i], cols[j] = cols[j], cols[i]
		vals[i], vals[j] = vals[j], vals[i]
	}
	sortRowPairs(cols[:j+1], vals[:j+1])
	sortRowPairs(cols[j+1:], vals[j+1:])
}

// CSR is a compressed-sparse-row matrix. Within each row, column indices are
// strictly increasing. The zero value is an empty 0x0 matrix.
type CSR struct {
	Rows, Cols int
	RowPtr     []int // length Rows+1
	ColIdx     []int
	Val        []float64
}

// NewCSR wraps pre-built CSR arrays after validating their invariants.
func NewCSR(rows, cols int, rowPtr, colIdx []int, val []float64) (*CSR, error) {
	m := &CSR{Rows: rows, Cols: cols, RowPtr: rowPtr, ColIdx: colIdx, Val: val}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// Validate checks the CSR structural invariants.
func (m *CSR) Validate() error {
	if len(m.RowPtr) != m.Rows+1 {
		return fmt.Errorf("sparse: RowPtr length %d, want %d", len(m.RowPtr), m.Rows+1)
	}
	if len(m.ColIdx) != len(m.Val) {
		return fmt.Errorf("sparse: ColIdx/Val length mismatch %d vs %d", len(m.ColIdx), len(m.Val))
	}
	if m.RowPtr[0] != 0 || m.RowPtr[m.Rows] != len(m.ColIdx) {
		return fmt.Errorf("sparse: RowPtr endpoints %d..%d, want 0..%d", m.RowPtr[0], m.RowPtr[m.Rows], len(m.ColIdx))
	}
	for r := 0; r < m.Rows; r++ {
		if m.RowPtr[r] > m.RowPtr[r+1] {
			return fmt.Errorf("sparse: RowPtr decreases at row %d", r)
		}
		for k := m.RowPtr[r]; k < m.RowPtr[r+1]; k++ {
			if m.ColIdx[k] < 0 || m.ColIdx[k] >= m.Cols {
				return fmt.Errorf("sparse: column %d out of range in row %d", m.ColIdx[k], r)
			}
			if k > m.RowPtr[r] && m.ColIdx[k] <= m.ColIdx[k-1] {
				return fmt.Errorf("sparse: columns not strictly increasing in row %d", r)
			}
		}
	}
	return nil
}

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.Val) }

// At returns the value at (i, j), zero if not stored. O(log nnz(row)).
func (m *CSR) At(i, j int) float64 {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("sparse: At(%d,%d) outside %dx%d", i, j, m.Rows, m.Cols))
	}
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	k := lo + sort.SearchInts(m.ColIdx[lo:hi], j)
	if k < hi && m.ColIdx[k] == j {
		return m.Val[k]
	}
	return 0
}

// RowNNZ returns the number of stored entries in row i.
func (m *CSR) RowNNZ(i int) int { return m.RowPtr[i+1] - m.RowPtr[i] }

// Row returns the column indices and values of row i (aliasing internal
// storage; callers must not mutate the column indices).
func (m *CSR) Row(i int) (cols []int, vals []float64) {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	return m.ColIdx[lo:hi], m.Val[lo:hi]
}

// MulVec computes y = A*x. The output slice y must have length Rows. The
// product is row-parallel on the exec engine: each output element is owned
// by exactly one row span.
func (m *CSR) MulVec(x, y []float64) {
	if len(x) != m.Cols || len(y) != m.Rows {
		panic(fmt.Sprintf("sparse: MulVec dims A=%dx%d x=%d y=%d", m.Rows, m.Cols, len(x), len(y)))
	}
	exec.ForRange(exec.Default(), m.Rows, csrArgs{m: m, x: x, y: y}, csrMulRange)
}

// csrArgs is the operand set of the CSR row-range kernels, handed to the
// engine by value (exec.ForRange) so an inline SpMV allocates nothing.
type csrArgs struct {
	m     *CSR
	alpha float64
	x, y  []float64
}

func csrMulRange(a csrArgs, lo, hi int) {
	m, x, y := a.m, a.x, a.y
	for i := lo; i < hi; i++ {
		var acc float64
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			acc += m.Val[k] * x[m.ColIdx[k]]
		}
		y[i] = acc
	}
}

// MulVecAdd computes y += alpha * A*x. Row-parallel like MulVec.
func (m *CSR) MulVecAdd(alpha float64, x, y []float64) {
	if len(x) != m.Cols || len(y) != m.Rows {
		panic("sparse: MulVecAdd dimension mismatch")
	}
	exec.ForRange(exec.Default(), m.Rows, csrArgs{m: m, alpha: alpha, x: x, y: y}, csrMulAddRange)
}

func csrMulAddRange(a csrArgs, lo, hi int) {
	m, alpha, x, y := a.m, a.alpha, a.x, a.y
	for i := lo; i < hi; i++ {
		var acc float64
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			acc += m.Val[k] * x[m.ColIdx[k]]
		}
		y[i] += alpha * acc
	}
}

// MulVecTrans computes y = A^T*x; y must have length Cols. Rows scatter
// into shared output columns, so each row chunk scatters into its own
// partial output vector and the partials combine in the engine's
// chunk-index tree — the same sums at every pool size, no race on y.
func (m *CSR) MulVecTrans(x, y []float64) {
	if len(x) != m.Rows || len(y) != m.Cols {
		panic("sparse: MulVecTrans dimension mismatch")
	}
	out := exec.ParallelReduce(exec.Default(), m.Rows, func(lo, hi int) []float64 {
		acc := make([]float64, m.Cols) //lint:allow hotalloc One dense accumulator per chunk by design; amortized over the chunk's rows
		for i := lo; i < hi; i++ {
			xi := x[i]
			for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
				acc[m.ColIdx[k]] += m.Val[k] * xi
			}
		}
		return acc
	}, func(a, b []float64) []float64 {
		for j := range a {
			a[j] += b[j]
		}
		return a
	})
	copy(y, out)
}

// Transpose returns A^T as a new CSR matrix.
func (m *CSR) Transpose() *CSR {
	t := &CSR{Rows: m.Cols, Cols: m.Rows, RowPtr: make([]int, m.Cols+1)}
	t.ColIdx = make([]int, m.NNZ())
	t.Val = make([]float64, m.NNZ())
	// Count entries per column.
	for _, j := range m.ColIdx {
		t.RowPtr[j+1]++
	}
	for j := 0; j < m.Cols; j++ {
		t.RowPtr[j+1] += t.RowPtr[j]
	}
	next := make([]int, m.Cols)
	copy(next, t.RowPtr[:m.Cols])
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			j := m.ColIdx[k]
			p := next[j]
			t.ColIdx[p] = i
			t.Val[p] = m.Val[k]
			next[j]++
		}
	}
	return t
}

// Diag returns a copy of the main diagonal (length min(Rows, Cols)).
func (m *CSR) Diag() []float64 {
	n := m.Rows
	if m.Cols < n {
		n = m.Cols
	}
	d := make([]float64, n)
	for i := 0; i < n; i++ {
		d[i] = m.At(i, i)
	}
	return d
}

// Scale multiplies every stored entry by alpha, in place.
func (m *CSR) Scale(alpha float64) {
	for k := range m.Val {
		m.Val[k] *= alpha
	}
}

// Add returns A + B for matrices of identical shape.
func (m *CSR) Add(b *CSR) *CSR {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		panic(fmt.Sprintf("sparse: Add shape mismatch %dx%d vs %dx%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	coo := NewCOO(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		cols, vals := m.Row(i)
		for k, j := range cols {
			coo.Add(i, j, vals[k])
		}
		cols, vals = b.Row(i)
		for k, j := range cols {
			coo.Add(i, j, vals[k])
		}
	}
	return coo.ToCSR()
}

// MatMul returns the sparse product A*B.
func (m *CSR) MatMul(b *CSR) *CSR {
	if m.Cols != b.Rows {
		panic(fmt.Sprintf("sparse: MatMul dims %dx%d * %dx%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	out := &CSR{Rows: m.Rows, Cols: b.Cols, RowPtr: make([]int, m.Rows+1)}
	acc := make(map[int]float64)
	for i := 0; i < m.Rows; i++ {
		clear(acc)
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			aij := m.Val[k]
			j := m.ColIdx[k]
			for p := b.RowPtr[j]; p < b.RowPtr[j+1]; p++ {
				acc[b.ColIdx[p]] += aij * b.Val[p]
			}
		}
		cols := make([]int, 0, len(acc))
		for j := range acc {
			cols = append(cols, j)
		}
		sort.Ints(cols)
		for _, j := range cols {
			out.ColIdx = append(out.ColIdx, j)
			out.Val = append(out.Val, acc[j])
		}
		out.RowPtr[i+1] = len(out.ColIdx)
	}
	return out
}

// NormFrobenius returns the Frobenius norm of the stored entries.
func (m *CSR) NormFrobenius() float64 {
	var acc float64
	for _, v := range m.Val {
		acc += v * v
	}
	return math.Sqrt(acc)
}

// NormInf returns the maximum absolute row sum.
func (m *CSR) NormInf() float64 {
	var best float64
	for i := 0; i < m.Rows; i++ {
		var s float64
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			s += math.Abs(m.Val[k])
		}
		if s > best {
			best = s
		}
	}
	return best
}

// Equal reports whether two matrices have the same shape and entries
// (comparing stored structure exactly).
func (m *CSR) Equal(b *CSR) bool {
	if m.Rows != b.Rows || m.Cols != b.Cols || m.NNZ() != b.NNZ() {
		return false
	}
	for i := range m.RowPtr {
		if m.RowPtr[i] != b.RowPtr[i] {
			return false
		}
	}
	for k := range m.ColIdx {
		if m.ColIdx[k] != b.ColIdx[k] || m.Val[k] != b.Val[k] {
			return false
		}
	}
	return true
}

// Dense materializes the matrix as a row-major flat slice, for small tests.
func (m *CSR) Dense() []float64 {
	out := make([]float64, m.Rows*m.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			out[i*m.Cols+m.ColIdx[k]] = m.Val[k]
		}
	}
	return out
}

// Clone returns an independent deep copy.
func (m *CSR) Clone() *CSR {
	out := &CSR{
		Rows: m.Rows, Cols: m.Cols,
		RowPtr: make([]int, len(m.RowPtr)),
		ColIdx: make([]int, len(m.ColIdx)),
		Val:    make([]float64, len(m.Val)),
	}
	copy(out.RowPtr, m.RowPtr)
	copy(out.ColIdx, m.ColIdx)
	copy(out.Val, m.Val)
	return out
}

// SubMatrix extracts the square principal submatrix with the given sorted
// row/column global indices renumbered densely — used by block-Jacobi and
// additive Schwarz to pull out local diagonal blocks.
func (m *CSR) SubMatrix(keep []int) *CSR {
	pos := make(map[int]int, len(keep))
	for p, g := range keep {
		if p > 0 && keep[p] <= keep[p-1] {
			panic("sparse: SubMatrix requires sorted unique indices")
		}
		pos[g] = p
	}
	coo := NewCOO(len(keep), len(keep))
	for p, g := range keep {
		cols, vals := m.Row(g)
		for k, j := range cols {
			if q, ok := pos[j]; ok {
				coo.Add(p, q, vals[k])
			}
		}
	}
	return coo.ToCSR()
}

// Identity returns the n x n identity matrix in CSR form.
func Identity(n int) *CSR {
	m := &CSR{Rows: n, Cols: n, RowPtr: make([]int, n+1), ColIdx: make([]int, n), Val: make([]float64, n)}
	for i := 0; i < n; i++ {
		m.RowPtr[i+1] = i + 1
		m.ColIdx[i] = i
		m.Val[i] = 1
	}
	return m
}

func (m *CSR) String() string {
	return fmt.Sprintf("CSR{%dx%d, nnz=%d}", m.Rows, m.Cols, m.NNZ())
}
