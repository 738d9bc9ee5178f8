package sparse

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"

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
// length so padding never enters a sum (the AVX2 kernel masks it out of a
// ragged slice's lanes). SELL results are therefore
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
// the row at sorted position p — belongs to slice s = p/c, at column
// position j of that slice. Within a slice, rows are sorted by descending
// length (sigma is rounded up to a multiple of c so no slice straddles a
// sort window), and rowLen bounds each row's loop so padding (stored as
// explicit zeros) never enters an accumulation.
//
// A slice's values start at val[valPtr[s]] and its indices at
// colIdx[colPtr[s]]; each slice's data follows the previous one's in both
// streams. Most slices store every position in full, column-major: slot
// j*h + r of each stream, h = min(c, rows-s*c) being the slice height.
// A uniform slice — C = 8, full height, all eight rows holding the same
// w > 0 entries, so no padding — stores its positions in order, each one
// compactly where it can: bit j of same[s] (j < 64) says the eight
// values at position j are bitwise equal (math.Float64bits, so -0 and 0,
// or two NaN payloads, never merge), and the value is stored once, not
// eight times; bit j of unit[s] says the eight column indices are c0,
// c0+1, ..., c0+7, and only c0 is stored. A stencil's interior slices
// hold a handful of distinct values on mostly consecutive columns, so
// this cuts the bytes an SpMV streams several times over, and the SIMD
// kernel loads x[c0:c0+8] and broadcasts the one value instead of
// gathering and loading eight. run[s] says the slice's rows are
// consecutive original rows (perm[lo+r] == perm[lo]+r), so its sums go to
// one contiguous stretch of y. None of this changes which value is summed
// in which order, only where it is read from or written to.
//
// The layout and the dimensions are unexported and fixed by FromCSR, which
// checks every column index against the column count: the SIMD kernel
// reads x without a bounds check, so nothing may change an index or the
// length MulVec accepts for x afterwards.
type SELL struct {
	rows, cols int
	c          int     // slice height
	sigma      int     // sort-window size (multiple of c)
	perm       []int   // perm[p] = original row stored at sorted position p
	valPtr     []int   // per-slice offsets into val; length numSlices+1
	colPtr     []int   // per-slice offsets into colIdx; length numSlices+1
	rowLen     []int   // true nnz of the row at each sorted position
	colIdx     []int32 // column indices: full or, in a uniform slice, one per unit position
	val        []float64
	unit       []uint64 // per uniform slice: bit j set if position j's indices are c0..c0+7, stored as c0
	same       []uint64 // per uniform slice: bit j set if position j's 8 values are bitwise equal, stored once
	run        []bool   // per slice: its rows are consecutive original rows
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
	if sigma <= 0 {
		sigma = DefaultSellSigma
	}
	if r := sigma % c; r != 0 {
		sigma += c - r
	}
	perm := make([]int, m.Rows)
	for lo := 0; lo < m.Rows; lo += sigma {
		orderWindow(m, perm[lo:min(lo+sigma, m.Rows)], lo)
	}
	return fromOrder(m, c, sigma, perm)
}

// fromOrder lays m out as SELL-C-sigma with its rows in perm's order, which
// orderWindow gave each sigma window; the SELL keeps perm.
func fromOrder(m *CSR, c, sigma int, perm []int) *SELL {
	if m.Cols > math.MaxInt32 {
		panic(fmt.Sprintf("sparse: %d columns overflow SELL's int32 indices", m.Cols))
	}
	s := &SELL{
		rows: m.Rows, cols: m.Cols, c: c, sigma: sigma,
		perm:   perm,
		rowLen: make([]int, m.Rows),
	}
	for p, orig := range s.perm {
		s.rowLen[p] = m.RowNNZ(orig)
	}
	// Pass 1 marks each slice and sizes its share of the two streams, so
	// that pass 2 fills them in place at their exact length. start holds
	// where the slice's rows begin in m.
	ns := s.numSlices()
	s.valPtr, s.colPtr = make([]int, ns+1), make([]int, ns+1)
	s.unit, s.same = make([]uint64, ns), make([]uint64, ns)
	s.run = make([]bool, ns)
	var start [sellMaxC]int
	for sl := 0; sl < ns; sl++ {
		lo := sl * c
		h := min(c, m.Rows-lo)
		w := s.rowLen[lo] // rows are descending within the slice
		s.run[sl] = true
		for r := 0; r < h; r++ {
			s.run[sl] = s.run[sl] && s.perm[lo+r] == s.perm[lo]+r
			start[r] = m.RowPtr[s.perm[lo+r]]
		}
		if s.uniform(sl) {
			for j := 0; j < min(w, 64); j++ {
				k0 := start[0] + j
				consecutive, equal := true, true
				for r := 1; r < 8; r++ {
					k := start[r] + j
					consecutive = consecutive && m.ColIdx[k] == m.ColIdx[k0]+r
					equal = equal && math.Float64bits(m.Val[k]) == math.Float64bits(m.Val[k0])
				}
				if consecutive {
					s.unit[sl] |= 1 << j
				}
				if equal {
					s.same[sl] |= 1 << j
				}
			}
		}
		s.valPtr[sl+1] = s.valPtr[sl] + w*h - bits.OnesCount64(s.same[sl])*(h-1)
		s.colPtr[sl+1] = s.colPtr[sl] + w*h - bits.OnesCount64(s.unit[sl])*(h-1)
	}
	// Pass 2: each slice column-major, a marked position as its first row's
	// entry, padding as zeros at column 0 (what make leaves). cnt is the
	// number of rows still active at position j.
	s.val, s.colIdx = make([]float64, s.valPtr[ns]), make([]int32, s.colPtr[ns])
	for sl := 0; sl < ns; sl++ {
		lo := sl * c
		h := min(c, m.Rows-lo)
		for r := 0; r < h; r++ {
			start[r] = m.RowPtr[s.perm[lo+r]]
		}
		vo, co, cnt := s.valPtr[sl], s.colPtr[sl], h
		for j := 0; j < s.rowLen[lo]; j++ {
			for s.rowLen[lo+cnt-1] <= j {
				cnt--
			}
			bit := uint64(1) << j // zero from position 64 on
			nv, nc := stored(s.same[sl]&bit != 0, h), stored(s.unit[sl]&bit != 0, h)
			for r, k := range start[:cnt] {
				col := m.ColIdx[k+j]
				if col < 0 || col >= m.Cols {
					panic(fmt.Sprintf("sparse: FromCSR: row %d has column index %d outside [0,%d)", s.perm[lo+r], col, m.Cols))
				}
				if r < nv {
					s.val[vo+r] = m.Val[k+j]
				}
				if r < nc {
					s.colIdx[co+r] = int32(col)
				}
			}
			vo, co = vo+nv, co+nc
		}
	}
	return s
}

// orderWindow fills win with the rows of m's sigma window from row lo, by
// descending length, equal lengths by index, without allocating. FromCSR
// lays out each window in this order, ChooseFormat prices the same layout,
// and AutoSELL does both from one ordering. Where the window's lengths span
// fewer than orderSpan values, as a stencil's do, a counting sort places
// each row at once; otherwise a stable sort orders the rows.
func orderWindow(m *CSR, win []int, lo int) {
	hi := lo + len(win)
	short, long := m.RowNNZ(lo), m.RowNNZ(lo)
	for r := lo + 1; r < hi; r++ {
		short, long = min(short, m.RowNNZ(r)), max(long, m.RowNNZ(r))
	}
	if long-short >= orderSpan {
		for k := range win {
			win[k] = lo + k
		}
		slices.SortStableFunc(win, func(a, b int) int { return cmp.Compare(m.RowNNZ(b), m.RowNNZ(a)) })
		return
	}
	// next[d] is where the next row of length long-d goes.
	var next [orderSpan + 1]int
	for r := lo; r < hi; r++ {
		next[long-m.RowNNZ(r)+1]++
	}
	for d := 1; d <= orderSpan; d++ {
		next[d] += next[d-1]
	}
	for r := lo; r < hi; r++ {
		d := long - m.RowNNZ(r)
		win[next[d]] = r
		next[d]++
	}
}

// orderSpan bounds the row-length range orderWindow counting-sorts.
const orderSpan = 32

// uniform reports whether slice s is stored compactly: C = 8, full height,
// and all eight rows w > 0 entries long, so it holds no padding.
func (m *SELL) uniform(s int) bool {
	lo := s * m.c
	return m.c == 8 && lo+8 <= m.rows && m.rowLen[lo] > 0 && m.rowLen[lo+7] == m.rowLen[lo]
}

// NNZ returns the number of true (non-padding) entries.
func (m *SELL) NNZ() int {
	n := 0
	for _, l := range m.rowLen {
		n += l
	}
	return n
}

// PaddedNNZ returns the number of slots of the padded layout: each slice's
// longest row length times its height, whether or not a uniform slice
// stores some positions compactly.
func (m *SELL) PaddedNNZ() int {
	n := 0
	for lo := 0; lo < m.rows; lo += m.c {
		n += m.rowLen[lo] * min(m.c, m.rows-lo)
	}
	return n
}

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

// sellArgs is the operand set of the SELL slice-range kernel, handed to the
// engine by value (exec.ForRange) so an inline SpMV allocates nothing.
type sellArgs struct {
	m    *SELL
	x, y []float64
}

// sellSIMD selects the AVX2 slice kernel in sellRange. It is set once, here,
// from the CPU; the package's tests clear it to run the Go loop on the same
// host.
var sellSIMD = cpuid.AVX2()

// sellRange is the one slice kernel under MulVec: for each slice in
// [slo, shi) it forms the per-row dot products (rows in ascending-column
// order, bit-for-bit matching CSR) and stores them at y[perm[..]] — or, for a
// run slice, at y[perm[lo]:perm[lo]+h] in one stretch. Where the CPU has AVX2
// (sellSIMD) and C = 8, one sellSlices8 call runs every full-height slice of
// the span — uniform, ragged and empty ones alike — and stores their sums;
// each lane multiplies then adds in ascending-column order like the loops
// below, which are the definition of the result and run only without AVX2,
// at C != 8, and for the short last slice. There a full-height C = 8 slice
// runs the positions where all eight rows are active through an unrolled
// loop with one scalar accumulator per row, reading a uniform slice's
// compact positions as the kernel does, and a ragged slice goes on into the
// tail loop.
func sellRange(a sellArgs, slo, shi int) {
	m, x := a.m, a.x
	if sellSIMD && m.c == 8 {
		if n := min(shi, m.rows/8) - slo; n > 0 {
			sellSlices8(m.val[m.valPtr[slo]:], m.colIdx[m.colPtr[slo]:], x, &a.y[0],
				&m.rowLen[8*slo], &m.perm[8*slo], &m.unit[slo], &m.same[slo], &m.run[slo], n)
			slo += n
		}
	}
	var acc [sellMaxC]float64
	for s := slo; s < shi; s++ {
		lo := s * m.c
		h := min(m.c, m.rows-lo)
		w := m.rowLen[lo] // rows are descending within the slice
		j := 0
		if h == 8 {
			// Every row is active while j is below the last (shortest) row's
			// length. Only a uniform slice has marks; a ragged one's positions
			// are all stored in full.
			wMin := m.rowLen[lo+7]
			vo, co := m.valPtr[s], m.colPtr[s]
			same, unit := m.same[s], m.unit[s]
			var a0, a1, a2, a3, a4, a5, a6, a7 float64
			for ; j < wMin; j++ {
				bit := uint64(1) << j // zero from position 64 on
				if same&unit&bit != 0 {
					// A stencil's common position: one value times eight
					// consecutive x entries.
					v, c0 := m.val[vo], int(m.colIdx[co])
					xs := x[c0 : c0+8 : c0+8]
					a0 += v * xs[0]
					a1 += v * xs[1]
					a2 += v * xs[2]
					a3 += v * xs[3]
					a4 += v * xs[4]
					a5 += v * xs[5]
					a6 += v * xs[6]
					a7 += v * xs[7]
					vo, co = vo+1, co+1
					continue
				}
				var v, xs [8]float64
				if same&bit != 0 {
					v0 := m.val[vo]
					v = [8]float64{v0, v0, v0, v0, v0, v0, v0, v0}
					vo++
				} else {
					v = [8]float64(m.val[vo : vo+8])
					vo += 8
				}
				if unit&bit != 0 {
					c0 := int(m.colIdx[co])
					xs = [8]float64(x[c0 : c0+8])
					co++
				} else {
					c := m.colIdx[co : co+8 : co+8]
					xs = [8]float64{x[c[0]], x[c[1]], x[c[2]], x[c[3]], x[c[4]], x[c[5]], x[c[6]], x[c[7]]}
					co += 8
				}
				a0 += v[0] * xs[0]
				a1 += v[1] * xs[1]
				a2 += v[2] * xs[2]
				a3 += v[3] * xs[3]
				a4 += v[4] * xs[4]
				a5 += v[5] * xs[5]
				a6 += v[6] * xs[6]
				a7 += v[7] * xs[7]
			}
			acc[0], acc[1], acc[2], acc[3] = a0, a1, a2, a3
			acc[4], acc[5], acc[6], acc[7] = a4, a5, a6, a7
		} else {
			clear(acc[:h])
		}
		// cnt = rows of this slice still active at column position j; row
		// lengths are descending so it only ever shrinks. A slice that gets
		// here past its first wMin positions is stored in full.
		cnt := h
		for ; j < w; j++ {
			for cnt > 0 && m.rowLen[lo+cnt-1] <= j {
				cnt--
			}
			vals := m.val[m.valPtr[s]+j*h:][:cnt]
			cols := m.colIdx[m.colPtr[s]+j*h:][:cnt]
			for r := range vals {
				acc[r] += vals[r] * x[cols[r]]
			}
		}
		if m.run[s] {
			copy(a.y[m.perm[lo]:], acc[:h])
			continue
		}
		for r, row := range m.perm[lo : lo+h] {
			a.y[row] = acc[r]
		}
	}
}

// ToCSR returns the CSR matrix m was converted from, exactly: FromCSR keeps
// every stored entry of a row — explicit zeros and NaN payloads included —
// in the row's order, and merges eight values only when their bits are
// equal, so FromCSR(csr, c, sigma).ToCSR() reproduces csr's RowPtr, ColIdx
// and Val bit for bit. The result shares no storage with m.
func (m *SELL) ToCSR() *CSR {
	out := &CSR{Rows: m.rows, Cols: m.cols, RowPtr: make([]int, m.rows+1)}
	for p, orig := range m.perm {
		out.RowPtr[orig+1] = m.rowLen[p]
	}
	for i := 0; i < m.rows; i++ {
		out.RowPtr[i+1] += out.RowPtr[i]
	}
	out.ColIdx = make([]int, out.RowPtr[m.rows])
	out.Val = make([]float64, out.RowPtr[m.rows])
	for s := 0; s < m.numSlices(); s++ {
		lo := s * m.c
		h := min(m.c, m.rows-lo)
		vo, co := m.valPtr[s], m.colPtr[s]
		for j := 0; j < m.rowLen[lo]; j++ {
			bit := uint64(1) << j
			same, unit := m.same[s]&bit != 0, m.unit[s]&bit != 0
			for r := 0; r < h && j < m.rowLen[lo+r]; r++ {
				k := out.RowPtr[m.perm[lo+r]] + j
				if same {
					out.Val[k] = m.val[vo]
				} else {
					out.Val[k] = m.val[vo+r]
				}
				if unit {
					out.ColIdx[k] = int(m.colIdx[co]) + r
				} else {
					out.ColIdx[k] = int(m.colIdx[co+r])
				}
			}
			vo, co = vo+stored(same, h), co+stored(unit, h)
		}
	}
	return out
}

// stored is how many entries a position of h rows takes in a stream: one
// where it is marked, else h.
func stored(marked bool, h int) int {
	if marked {
		return 1
	}
	return h
}

func (m *SELL) String() string {
	return fmt.Sprintf("SELL{%dx%d, C=%d, sigma=%d, nnz=%d, padded=%d}", m.rows, m.cols, m.c, m.sigma, m.NNZ(), m.PaddedNNZ())
}

// Operator is the minimal SpMV surface shared by *CSR and *SELL, letting
// matrix consumers (tpetra, solvers, preconditioners) apply whichever
// format the auto-selector picked.
type Operator interface {
	MulVec(x, y []float64)
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
// It allocates nothing; AutoSELL makes the same pick and builds the layout.
// Test seam: prices the layout without building it, for the format-pick tests.
func ChooseFormat(m *CSR) Format { return choose(m, nil) }

// choose is ChooseFormat. It orders each sigma window as FromCSR does
// (orderWindow), into perm when perm is not nil (m.Rows long) and else into
// one window on the stack, and charges each C-slice its first row's length.
// This prices the nnz/row variance directly — a CV of zero pads nothing.
func choose(m *CSR, perm []int) Format {
	if m.Rows < 4*DefaultSellC || m.NNZ() == 0 {
		return FormatCSR
	}
	var buf [DefaultSellSigma]int
	padded := 0
	for lo := 0; lo < m.Rows; lo += DefaultSellSigma {
		win := buf[:min(DefaultSellSigma, m.Rows-lo)]
		if perm != nil {
			win = perm[lo : lo+len(win)]
		}
		orderWindow(m, win, lo)
		for s := 0; s < len(win); s += DefaultSellC {
			padded += m.RowNNZ(win[s]) * min(DefaultSellC, len(win)-s)
		}
	}
	if float64(padded) > 1.25*float64(m.NNZ()) {
		return FormatCSR
	}
	return FormatSELL
}

// AutoSELL returns m converted to SELL-C-sigma at the default C and sigma
// when ChooseFormat picks SELL, else nil. One ordering of each sigma window
// both prices the padding and lays out the slices: the result is NewSELL(m)
// bit for bit.
func AutoSELL(m *CSR) *SELL {
	perm := make([]int, m.Rows)
	if choose(m, perm) != FormatSELL {
		return nil
	}
	return fromOrder(m, DefaultSellC, DefaultSellSigma, perm)
}

// AutoOperator returns m itself or a fresh SELL conversion, per
// ChooseFormat (AutoSELL). The returned operator is bitwise-equivalent to m
// either way.
func AutoOperator(m *CSR) Operator {
	if s := AutoSELL(m); s != nil {
		return s
	}
	return m
}
