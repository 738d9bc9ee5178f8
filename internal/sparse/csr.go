// Package sparse implements serial sparse matrix kernels in compressed
// sparse row (CSR) form: construction via COO triplets, sparse
// matrix-vector products, transposition, and the incomplete and complete
// factorizations used by the preconditioner and direct-solver packages.
package sparse

import (
	"fmt"
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
	if len(c.v) == cap(c.v) {
		c.grow(max(2*cap(c.v), 64))
	}
	c.i = append(c.i, i) // within capacity: the three slices share one
	c.j = append(c.j, j)
	c.v = append(c.v, v)
}

// Reserve makes room for n more triplets at once, so that the next n Adds
// never regrow the arrays. It changes no result. An assembly that counts
// its entries first reserves them exactly, which lets ToCSR keep the arrays.
func (c *COO) Reserve(n int) {
	if need := len(c.v) + n; need > cap(c.v) {
		c.grow(need)
	}
}

// grow moves the triplets into arrays of capacity n, all three together.
// Add doubles the capacity, so the copies of a whole assembly stay under its
// final arrays' bytes: append alone grows a large slice by about 1.25x a
// step, which copies several times that.
func (c *COO) grow(n int) {
	c.i = append(make([]int, 0, n), c.i...)
	c.j = append(make([]int, 0, n), c.j...)
	c.v = append(make([]float64, 0, n), c.v...)
}

// ToCSR converts the triplets to CSR form, sorting column indices within
// each row and summing duplicates, and empties the builder. It allocates
// the arrays it returns and nothing else: the merge compacts in place. When
// the rows were added in non-decreasing order into arrays with no spare
// capacity (an exact Reserve), bucketing by row would copy each entry to
// where it already is, so the CSR takes over the column and value arrays
// instead.
func (c *COO) ToCSR() *CSR {
	// Pass 1: count each row's entries one place up, so that the running
	// sum is the row pointer.
	rowPtr := make([]int, c.rows+1)
	ordered := true
	for k, i := range c.i {
		rowPtr[i+1]++
		ordered = ordered && (k == 0 || c.i[k-1] <= i)
	}
	for r := 0; r < c.rows; r++ {
		rowPtr[r+1] += rowPtr[r]
	}
	cols, vals := c.j, c.v
	if !ordered || cap(c.v) > len(c.v) || len(c.v) == 0 {
		// Bucket the entries by row, in insertion order, into fresh arrays
		// (empty, not nil, for no entries). rowPtr[r] is row r's fill
		// cursor, from its first slot to row r+1's first slot, then shifted
		// back.
		cols = make([]int, len(c.v))
		vals = make([]float64, len(c.v))
		for k, i := range c.i {
			p := rowPtr[i]
			cols[p], vals[p] = c.j[k], c.v[k]
			rowPtr[i]++
		}
		copy(rowPtr[1:], rowPtr[:c.rows])
		rowPtr[0] = 0
	}
	c.i, c.j, c.v = nil, nil, nil
	// Pass 2: sort each row by column and merge duplicates, writing behind
	// the read position, so the kept arrays are the ones filled above.
	n, lo := 0, 0
	for r := 0; r < c.rows; r++ {
		hi := rowPtr[r+1]
		sortRowPairs(cols[lo:hi], vals[lo:hi])
		start := n
		for k := lo; k < hi; k++ {
			if n > start && cols[n-1] == cols[k] {
				vals[n-1] += vals[k]
				continue
			}
			cols[n], vals[n] = cols[k], vals[k]
			n++
		}
		rowPtr[r+1] = n
		lo = hi
	}
	return &CSR{Rows: c.rows, Cols: c.cols, RowPtr: rowPtr, ColIdx: cols[:n], Val: vals[:n]}
}

// SortRows re-sorts each row's entries by column, in place — for a caller
// that renumbered ColIdx (tpetra's global-to-local column map), which keeps
// every row's columns distinct but not in order.
func (m *CSR) SortRows() {
	for r := 0; r < m.Rows; r++ {
		lo, hi := m.RowPtr[r], m.RowPtr[r+1]
		sortRowPairs(m.ColIdx[lo:hi], m.Val[lo:hi])
	}
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

// csrArgs is the operand set of the CSR row-range kernel, handed to the
// engine by value (exec.ForRange) so an inline SpMV allocates nothing.
type csrArgs struct {
	m    *CSR
	x, y []float64
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
// Test seam: the dense reference the sparse suites compare against.
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

func (m *CSR) String() string {
	return fmt.Sprintf("CSR{%dx%d, nnz=%d}", m.Rows, m.Cols, m.NNZ())
}
