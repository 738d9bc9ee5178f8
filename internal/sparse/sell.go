package sparse

import (
	"fmt"
	"math"
	"sort"

	"odinhpc/internal/cpuid"
	"odinhpc/internal/exec"
)

// This file implements SELL-C-sigma (sliced ELLPACK with row sorting), the
// SIMD-friendly sparse format of Kreutzer et al. used by Trilinos' Kokkos
// kernels for performance portability. Rows are reordered by descending
// length inside windows of sigma rows, grouped into slices of C rows, and
// each slice is padded to its longest row and stored column-major, so the
// inner SpMV loop walks C rows in lockstep over contiguous memory.
//
// Bitwise contract: every kernel — the Go loops and the AVX2 one in
// sell_amd64.s alike — accumulates each row's products in the same
// (ascending-column) order as the CSR kernels, a rounded multiply then a
// rounded add per entry (never a fused multiply-add), bounded by the true row
// length so padding is never touched. SELL results are therefore
// bit-for-bit identical to CSR on every input, which is what lets the
// solver and conformance suites run unchanged on either format. The one
// thing left open is which NaN a NaN result carries: Go does not specify
// the payload an operation on two NaNs returns, and compiled code orders
// the operands of a commutative add as it likes.

// sellMaxC bounds the slice height so kernels can keep their per-slice
// accumulators in a fixed-size stack array.
const sellMaxC = 32

// DefaultSellC is the default slice height (rows per slice).
const DefaultSellC = 8

// DefaultSellSigma is the default sorting-window size.
const DefaultSellSigma = 256

// SELL is a SELL-C-sigma matrix. Entry (p, j) — the j-th stored element of
// the row at sorted position p — lives at
//
//	slicePtr[s] + j*h + (p - s*c)
//
// where s = p/c is the slice index and h = min(c, rows-s*c) the slice
// height. Within a slice, rows are sorted by descending length (sigma is
// rounded up to a multiple of c so no slice straddles a sort window), and
// rowLen bounds each row's loop so padding (stored as explicit zeros) never
// enters an accumulation.
//
// The layout and the dimensions are unexported and fixed by FromCSR, which
// checks every column index against the column count: the SIMD kernel
// gathers from x without a bounds check, so nothing may change an index or
// the length MulVec accepts for x afterwards.
type SELL struct {
	rows, cols int
	c          int     // slice height
	sigma      int     // sort-window size (multiple of c)
	perm       []int   // perm[p] = original row stored at sorted position p
	invPerm    []int   // invPerm[original row] = sorted position
	slicePtr   []int   // per-slice offsets into colIdx/val; length numSlices+1
	rowLen     []int   // true nnz of the row at each sorted position
	colIdx     []int32 // column indices, column-major within each slice
	val        []float64
}

// NewSELL converts m with the default C and sigma.
func NewSELL(m *CSR) *SELL { return FromCSR(m, DefaultSellC, DefaultSellSigma) }

// FromCSR converts a CSR matrix to SELL-C-sigma. The slice height c must be
// in [1, 32]; sigma is rounded up to a multiple of c (sigma <= 0 selects the
// default). The input is not modified or aliased. A column index outside
// [0, Cols) panics here, naming its row, rather than at the first product.
func FromCSR(m *CSR, c, sigma int) *SELL {
	if c < 1 || c > sellMaxC {
		panic(fmt.Sprintf("sparse: SELL slice height %d outside [1,%d]", c, sellMaxC))
	}
	if m.Cols > math.MaxInt32 {
		panic(fmt.Sprintf("sparse: %d columns overflow SELL's int32 indices", m.Cols))
	}
	if sigma <= 0 {
		sigma = DefaultSellSigma
	}
	if r := sigma % c; r != 0 {
		sigma += c - r
	}
	s := &SELL{
		rows: m.Rows, cols: m.Cols, c: c, sigma: sigma,
		perm:    make([]int, m.Rows),
		invPerm: make([]int, m.Rows),
		rowLen:  make([]int, m.Rows),
	}
	for i := range s.perm {
		s.perm[i] = i
	}
	// Sort rows by descending length inside each sigma window. The sort is
	// stable so equal-length rows keep their original order and the layout
	// is deterministic.
	for lo := 0; lo < m.Rows; lo += sigma {
		hi := lo + sigma
		if hi > m.Rows {
			hi = m.Rows
		}
		win := s.perm[lo:hi]
		sort.SliceStable(win, func(a, b int) bool {
			return m.RowNNZ(win[a]) > m.RowNNZ(win[b])
		})
	}
	for p, orig := range s.perm {
		s.invPerm[orig] = p
		s.rowLen[p] = m.RowNNZ(orig)
	}
	ns := (m.Rows + c - 1) / c
	s.slicePtr = make([]int, ns+1)
	for sl := 0; sl < ns; sl++ {
		lo := sl * c
		h := c
		if m.Rows-lo < h {
			h = m.Rows - lo
		}
		w := s.rowLen[lo] // rows are descending within the slice
		s.slicePtr[sl+1] = s.slicePtr[sl] + w*h
	}
	s.colIdx = make([]int32, s.slicePtr[ns])
	s.val = make([]float64, s.slicePtr[ns])
	for sl := 0; sl < ns; sl++ {
		lo := sl * c
		h := c
		if m.Rows-lo < h {
			h = m.Rows - lo
		}
		base := s.slicePtr[sl]
		for r := 0; r < h; r++ {
			orig := s.perm[lo+r]
			k0 := m.RowPtr[orig]
			for j := 0; j < s.rowLen[lo+r]; j++ {
				col := m.ColIdx[k0+j]
				if col < 0 || col >= m.Cols {
					panic(fmt.Sprintf("sparse: FromCSR: row %d has column index %d outside [0,%d)", orig, col, m.Cols))
				}
				s.colIdx[base+j*h+r] = int32(col)
				s.val[base+j*h+r] = m.Val[k0+j]
			}
		}
	}
	return s
}

// NNZ returns the number of true (non-padding) entries.
func (m *SELL) NNZ() int {
	n := 0
	for _, l := range m.rowLen {
		n += l
	}
	return n
}

// PaddedNNZ returns the number of stored slots including padding.
func (m *SELL) PaddedNNZ() int { return len(m.val) }

// numSlices returns the slice count.
func (m *SELL) numSlices() int { return (m.rows + m.c - 1) / m.c }

// MulVec computes y = A*x, slice-parallel on the exec engine: each slice's
// output rows are owned by exactly one span. Per row, products accumulate
// in ascending-column order, bit-for-bit matching CSR.MulVec.
func (m *SELL) MulVec(x, y []float64) {
	if len(x) != m.cols || len(y) != m.rows {
		panic(fmt.Sprintf("sparse: MulVec dims A=%dx%d x=%d y=%d", m.rows, m.cols, len(x), len(y)))
	}
	exec.ForRange(exec.Default(), m.numSlices(), sellArgs{m: m, x: x, y: y}, sellRange)
}

// MulVecAdd computes y += alpha * A*x, slice-parallel like MulVec and
// bitwise identical to CSR.MulVecAdd.
func (m *SELL) MulVecAdd(alpha float64, x, y []float64) {
	if len(x) != m.cols || len(y) != m.rows {
		panic("sparse: MulVecAdd dimension mismatch")
	}
	exec.ForRange(exec.Default(), m.numSlices(), sellArgs{m: m, add: true, alpha: alpha, x: x, y: y}, sellRange)
}

// sellArgs is the operand set of the SELL slice-range kernel, handed to the
// engine by value (exec.ForRange) so an inline SpMV allocates nothing. add
// selects y += alpha*A*x over y = A*x.
type sellArgs struct {
	m     *SELL
	add   bool
	alpha float64
	x, y  []float64
}

// put delivers one finished row sum to the output row it belongs to.
func (a *sellArgs) put(row int, sum float64) {
	if a.add {
		a.y[row] += a.alpha * sum
	} else {
		a.y[row] = sum
	}
}

// sellSIMD selects the AVX2 uniform-slice kernel in sellRange. It is set
// once, here, from the CPU; the package's tests clear it to run the Go loop
// on the same host.
var sellSIMD = cpuid.AVX2()

// sellRange is the one slice kernel under MulVec and MulVecAdd: for each
// slice in [slo, shi) it forms the per-row dot products (rows in
// ascending-column order, bit-for-bit matching CSR) and puts them at
// y[perm[..]]. A full-height C = 8 slice whose eight rows all have one
// length w > 0 — every interior slice of a stencil matrix after the sigma
// sort — goes to the AVX2 kernel where the CPU has it (sellSIMD): it holds
// no padding, so the unchecked gathers read only true entries, and each lane
// multiplies then adds in ascending-column order like the loops below. It
// fills acc, and the tail loop has nothing left to do. Otherwise a
// full-height slice runs the columns where all eight rows are active through
// an unrolled loop with one scalar accumulator per row; when the slice is
// uniform that loop is the whole slice and the eight registers go straight
// to y, and only a ragged slice spills them to acc and enters the tail loop.
func sellRange(a sellArgs, slo, shi int) {
	m, x := a.m, a.x
	var acc [sellMaxC]float64
	for s := slo; s < shi; s++ {
		lo := s * m.c
		h := m.c
		if m.rows-lo < h {
			h = m.rows - lo
		}
		base := m.slicePtr[s]
		w := (m.slicePtr[s+1] - base) / h
		perm := m.perm[lo : lo+h]
		j := 0
		if h == 8 && w > 0 && sellSIMD && m.rowLen[lo+7] == w {
			sellUniform8(&m.val[base], &m.colIdx[base], w, &x[0], (*[8]float64)(acc[:]))
			j = w
		} else if h == 8 {
			// Rows are descending within the slice, so every row is active
			// while j is below the last (shortest) row's length.
			wMin := m.rowLen[lo+7]
			var a0, a1, a2, a3, a4, a5, a6, a7 float64
			for ; j < wMin; j++ {
				off := base + j*8
				v := m.val[off : off+8 : off+8]
				c := m.colIdx[off : off+8 : off+8]
				a0 += v[0] * x[c[0]]
				a1 += v[1] * x[c[1]]
				a2 += v[2] * x[c[2]]
				a3 += v[3] * x[c[3]]
				a4 += v[4] * x[c[4]]
				a5 += v[5] * x[c[5]]
				a6 += v[6] * x[c[6]]
				a7 += v[7] * x[c[7]]
			}
			if wMin == w {
				a.put(perm[0], a0)
				a.put(perm[1], a1)
				a.put(perm[2], a2)
				a.put(perm[3], a3)
				a.put(perm[4], a4)
				a.put(perm[5], a5)
				a.put(perm[6], a6)
				a.put(perm[7], a7)
				continue
			}
			acc[0], acc[1], acc[2], acc[3] = a0, a1, a2, a3
			acc[4], acc[5], acc[6], acc[7] = a4, a5, a6, a7
		} else {
			for r := 0; r < h; r++ {
				acc[r] = 0
			}
		}
		// cnt = rows of this slice still active at column position j; row
		// lengths are descending so it only ever shrinks.
		cnt := h
		for ; j < w; j++ {
			for cnt > 0 && m.rowLen[lo+cnt-1] <= j {
				cnt--
			}
			off := base + j*h
			vals := m.val[off : off+cnt]
			cols := m.colIdx[off : off+cnt]
			for r := range vals {
				acc[r] += vals[r] * x[cols[r]]
			}
		}
		for r, row := range perm {
			a.put(row, acc[r])
		}
	}
}

// MulVecTrans computes y = A^T*x; y has one entry per column. To stay bitwise
// identical to CSR.MulVecTrans it scatters rows in original (CSR) order into
// per-span partial vectors over the same row chunks and reduction tree.
func (m *SELL) MulVecTrans(x, y []float64) {
	if len(x) != m.rows || len(y) != m.cols {
		panic("sparse: MulVecTrans dimension mismatch")
	}
	scatter := func(y []float64, i int) {
		xi := x[i]
		p := m.invPerm[i]
		s := p / m.c
		lo := s * m.c
		h := m.c
		if m.rows-lo < h {
			h = m.rows - lo
		}
		off := m.slicePtr[s] + (p - lo)
		for j := 0; j < m.rowLen[p]; j++ {
			y[m.colIdx[off+j*h]] += m.val[off+j*h] * xi
		}
	}
	out := exec.ParallelReduce(exec.Default(), m.rows, func(lo, hi int) []float64 {
		acc := make([]float64, m.cols) //lint:allow hotalloc One dense accumulator per chunk by design; amortized over the chunk's rows
		for i := lo; i < hi; i++ {
			scatter(acc, i)
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

// Scale multiplies every stored entry by alpha, in place. Padding slots are
// scaled too but never read, so a NaN/Inf alpha cannot leak into results.
func (m *SELL) Scale(alpha float64) {
	for k := range m.val {
		m.val[k] *= alpha
	}
}

func (m *SELL) String() string {
	return fmt.Sprintf("SELL{%dx%d, C=%d, sigma=%d, nnz=%d, padded=%d}", m.rows, m.cols, m.c, m.sigma, m.NNZ(), m.PaddedNNZ())
}

// Operator is the minimal SpMV surface shared by *CSR and *SELL, letting
// matrix consumers (tpetra, solvers, preconditioners) apply whichever
// format the auto-selector picked.
type Operator interface {
	MulVec(x, y []float64)
	MulVecAdd(alpha float64, x, y []float64)
	MulVecTrans(x, y []float64)
}

// Format identifies a sparse storage format for the SpMV fast path.
type Format int

const (
	// FormatCSR keeps the row-pointer format.
	FormatCSR Format = iota
	// FormatSELL converts to SELL-C-sigma for SpMV.
	FormatSELL
)

func (f Format) String() string {
	if f == FormatSELL {
		return "sell"
	}
	return "csr"
}

// ChooseFormat picks the SpMV format for m: SELL when the matrix is large
// enough to amortize slicing and its nnz/row distribution is even enough
// (low variance => low padding after the sigma sort) that the padded format
// stays compact. Banded and stencil matrices (Laplace, Poisson,
// convection-diffusion) qualify; tiny or wildly ragged matrices stay CSR.
func ChooseFormat(m *CSR) Format {
	if m.Rows < 4*DefaultSellC || m.NNZ() == 0 {
		return FormatCSR
	}
	// Padded size of the would-be SELL layout: per sigma window, sort row
	// lengths descending and charge each C-slice its max row length. This
	// prices the nnz/row variance directly — a CV of zero pads nothing.
	lens := make([]int, m.Rows)
	for i := range lens {
		lens[i] = m.RowNNZ(i)
	}
	padded := 0
	for lo := 0; lo < m.Rows; lo += DefaultSellSigma {
		hi := lo + DefaultSellSigma
		if hi > m.Rows {
			hi = m.Rows
		}
		win := lens[lo:hi]
		sort.Sort(sort.Reverse(sort.IntSlice(win)))
		for s := 0; s < len(win); s += DefaultSellC {
			h := DefaultSellC
			if len(win)-s < h {
				h = len(win) - s
			}
			padded += win[s] * h
		}
	}
	if float64(padded) > 1.25*float64(m.NNZ()) {
		return FormatCSR
	}
	return FormatSELL
}

// AutoOperator returns m itself or a fresh SELL conversion, per
// ChooseFormat. The returned operator is bitwise-equivalent to m either
// way.
func AutoOperator(m *CSR) Operator {
	if ChooseFormat(m) == FormatSELL {
		return NewSELL(m)
	}
	return m
}
