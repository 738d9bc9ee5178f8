package sparse

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"odinhpc/internal/exec"
)

// bitsEqual reports bit-level equality of two float64 slices, except that
// any NaN equals any other: Go leaves the payload of a NaN result
// unspecified (sell.go's bitwise contract), so only NaN-ness is compared.
// Signed zeros, infinities and subnormals are compared bit for bit.
func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			return false
		}
	}
	return true
}

// simdAtInit is sellSIMD as the package set it: whether sellRange runs the
// assembly kernel on this host at all.
var simdAtInit = sellSIMD

// forEachSellKernel runs f twice, as subtests: "go" with the Go slice loop
// forced, and "simd" with the AVX2 uniform-slice kernel, which is skipped on
// a host that does not have it.
func forEachSellKernel(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	for _, simd := range []bool{false, true} {
		name := "go"
		if simd {
			name = "simd"
		}
		t.Run(name, func(t *testing.T) {
			if simd && !simdAtInit {
				t.Skip("no AVX2 with OS-enabled YMM state here (or not amd64): sellRange never selects the assembly kernel")
			}
			defer func(old bool) { sellSIMD = old }(sellSIMD)
			sellSIMD = simd
			f(t)
		})
	}
}

// raggedRandom builds a matrix with deliberately uneven rows: mostly sparse
// rows, some empty, and a few dense "ragged" outliers.
func raggedRandom(rows, cols int, rng *rand.Rand) *CSR {
	c := NewCOO(rows, cols)
	for i := 0; i < rows; i++ {
		switch rng.Intn(5) {
		case 0: // empty row
		case 1: // dense outlier
			for j := 0; j < cols; j++ {
				if rng.Float64() < 0.8 {
					c.Add(i, j, rng.NormFloat64())
				}
			}
		default:
			for k := 0; k < 1+rng.Intn(4); k++ {
				c.Add(i, rng.Intn(cols), rng.NormFloat64())
			}
		}
	}
	return c.ToCSR()
}

// uniformRandom builds a matrix whose rows all hold min(w, cols) entries at
// random columns, so every full-height slice is uniform.
func uniformRandom(rows, cols, w int, rng *rand.Rand) *CSR {
	c := NewCOO(rows, cols)
	for i := 0; i < rows; i++ {
		for _, j := range rng.Perm(cols)[:min(w, cols)] {
			c.Add(i, j, rng.NormFloat64())
		}
	}
	return c.ToCSR()
}

// specials are the values IEEE arithmetic treats apart from the rest.
var specials = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
	5e-324, -1e-310, math.MaxFloat64,
}

// drawSpecial returns one of specials one time in four, else a normal deviate.
func drawSpecial(rng *rand.Rand) float64 {
	if rng.Intn(4) == 0 {
		return specials[rng.Intn(len(specials))]
	}
	return rng.NormFloat64()
}

// withSpecials returns a copy of m whose values are drawn by drawSpecial.
func withSpecials(m *CSR, rng *rand.Rand) *CSR {
	out := *m
	out.Val = make([]float64, len(m.Val))
	for k := range out.Val {
		out.Val[k] = drawSpecial(rng)
	}
	return &out
}

// sellMismatch reports the first product in which m and its SELL conversion
// differ, with x entries from draw. Every x entry that no stored entry names
// is +Inf, so a kernel that loads wider than the columns it was given — a
// plain load off either end of a unit-stride column — produces an Inf or a
// NaN that CSR does not.
func sellMismatch(m *CSR, c, sigma int, draw func() float64) error {
	s := FromCSR(m, c, sigma)
	if got, want := s.NNZ(), m.NNZ(); got != want {
		return fmt.Errorf("SELL nnz %d != CSR nnz %d", got, want)
	}
	x := make([]float64, m.Cols)
	for i := range x {
		x[i] = draw()
	}
	read := make([]bool, m.Cols)
	for _, col := range m.ColIdx {
		read[col] = true
	}
	for col, r := range read {
		if !r {
			x[col] = math.Inf(1)
		}
	}
	y1, y2 := make([]float64, m.Rows), make([]float64, m.Rows)
	m.MulVec(x, y1)
	s.MulVec(x, y2)
	if !bitsEqual(y1, y2) {
		return fmt.Errorf("MulVec differs\ncsr  %v\nsell %v", y1, y2)
	}
	if m.Cols > 0 {
		// Padding slots hold 0 at column 0: with x[0] infinite, a kernel
		// that reads padding produces a NaN that CSR does not.
		poisoned := append([]float64(nil), x...)
		poisoned[0] = math.Inf(1)
		m.MulVec(poisoned, y1)
		s.MulVec(poisoned, y2)
		if !bitsEqual(y1, y2) {
			return fmt.Errorf("MulVec with x[0] = +Inf differs\ncsr  %v\nsell %v", y1, y2)
		}
	}
	return nil
}

// checkSellMatchesCSR fails t unless m and its SELL conversion agree bit for
// bit (sellMismatch).
func checkSellMatchesCSR(t *testing.T, m *CSR, c, sigma int, draw func() float64) {
	t.Helper()
	if err := sellMismatch(m, c, sigma, draw); err != nil {
		t.Fatalf("C=%d sigma=%d: %v", c, sigma, err)
	}
}

func TestSELLMatchesCSRRandom(t *testing.T) {
	forEachSellKernel(t, func(t *testing.T) {
		for _, workers := range []int{1, 2, 4} {
			old := exec.Default()
			exec.SetDefault(exec.New(exec.WithWorkers(workers)))
			f := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				rows, cols := 1+rng.Intn(100), 1+rng.Intn(60)
				m := raggedRandom(rows, cols, rng)
				if rng.Intn(2) == 0 {
					m = uniformRandom(rows, cols, rng.Intn(10), rng)
				}
				draw := rng.NormFloat64
				if rng.Intn(4) == 0 {
					m, draw = withSpecials(m, rng), func() float64 { return drawSpecial(rng) }
				}
				cs := []int{1, 2, 4, 8, 16}[rng.Intn(5)]
				sigma := []int{0, 1, 8, 64, 1024}[rng.Intn(5)]
				return sellMismatch(m, cs, sigma, draw) == nil
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
				t.Errorf("workers=%d: %v", workers, err)
			}
			exec.SetDefault(old)
		}
	})
}

func TestSELLMatchesCSRStencils(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	// Inline stencil builders mirroring the galeri generators (sparse cannot
	// import galeri: galeri imports sparse).
	lap2d := func(nx, ny int) *CSR {
		c := NewCOO(nx*ny, nx*ny)
		for i := 0; i < nx*ny; i++ {
			x, y := i%nx, i/nx
			c.Add(i, i, 4)
			if x > 0 {
				c.Add(i, i-1, -1)
			}
			if x < nx-1 {
				c.Add(i, i+1, -1)
			}
			if y > 0 {
				c.Add(i, i-nx, -1)
			}
			if y < ny-1 {
				c.Add(i, i+nx, -1)
			}
		}
		return c.ToCSR()
	}
	mats := map[string]*CSR{
		"laplace1d-257": tridiag(257),
		"laplace2d":     lap2d(17, 13),
		"spd-random":    randomSPD(120, 3),
		"identity":      identity(64),
	}
	for name, m := range mats {
		for _, cfg := range [][2]int{{8, 256}, {4, 4}, {1, 0}, {16, 32}} {
			t.Run(name, func(t *testing.T) {
				forEachSellKernel(t, func(t *testing.T) {
					checkSellMatchesCSR(t, m, cfg[0], cfg[1], rng.NormFloat64)
				})
			})
		}
	}
}

func TestSELLMatchesCSRMatrixMarket(t *testing.T) {
	// Round-trip a ragged matrix through MatrixMarket text and compare the
	// SELL conversion of the re-read matrix against the CSR original.
	rng := rand.New(rand.NewSource(7))
	m := raggedRandom(40, 23, rng)
	var sb strings.Builder
	if err := m.WriteMatrixMarket(&sb); err != nil {
		t.Fatal(err)
	}
	m2, err := ReadMatrixMarket(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	checkSellMatchesCSR(t, m2, 8, 16, rng.NormFloat64)
	if !m.Equal(m2) {
		t.Fatal("MatrixMarket round trip changed the matrix")
	}
}

func TestSELLEdgeShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	t.Run("all-empty", func(t *testing.T) {
		m := NewCOO(10, 5).ToCSR()
		checkSellMatchesCSR(t, m, 8, 0, rng.NormFloat64)
		if FromCSR(m, 8, 0).PaddedNNZ() != 0 {
			t.Fatal("empty matrix must store nothing")
		}
	})
	t.Run("single-row", func(t *testing.T) {
		c := NewCOO(1, 6)
		c.Add(0, 5, 1)
		c.Add(0, 0, 2)
		checkSellMatchesCSR(t, c.ToCSR(), 8, 0, rng.NormFloat64)
	})
	t.Run("single-col", func(t *testing.T) {
		c := NewCOO(9, 1)
		for i := 0; i < 9; i += 2 {
			c.Add(i, 0, float64(i))
		}
		checkSellMatchesCSR(t, c.ToCSR(), 4, 4, rng.NormFloat64)
	})
	t.Run("rows-not-multiple-of-C", func(t *testing.T) {
		checkSellMatchesCSR(t, tridiag(13), 8, 8, rng.NormFloat64)
	})
	t.Run("one-dense-row", func(t *testing.T) {
		c := NewCOO(20, 20)
		for j := 0; j < 20; j++ {
			c.Add(7, j, float64(j+1))
		}
		c.Add(0, 0, 1)
		checkSellMatchesCSR(t, c.ToCSR(), 8, 16, rng.NormFloat64)
	})
}

// TestSELLSliceKernelMatchesCSR aims the CSR-bitwise check at the branches
// of the slice kernel, with the Go loop and with the AVX2 kernel: slices
// whose rows all have one length (the unmasked and fully compact loops, or
// the unrolled accumulators) at every width 0-9, beside ragged ones (the
// masked loop, or spill and tail loop) — ragged slices whose last rows are
// empty, ragged rows past position 64, and ragged slices between uniform
// ones in one span — a short last slice down to a single row
// (Rows % C != 0), empty rows inside and making up whole slices — between
// others, and trailing ones, whose offset is len(val) — and NaN, ±Inf, -0
// and subnormals in the values and vectors, at the unrolled C = 8 and the
// generic heights 1, 4 and 32, inline and fanned out over several slice
// chunks. The banded matrices aim at what FromCSR marks: unit-stride and
// gathered columns in one slice, near misses (seven consecutive indices and
// one off by one, a band that wraps at Cols), widths past the mask's 64
// bits, unit-stride columns whose rows are not consecutive, run slices
// beside others, and unit-stride columns whose neighbours x[c0-1] and
// x[c0+8] are unread, so sellMismatch poisons them. The "equal-" copies give
// each position one value in every row but a few, so uniform slices store
// most positions once and a few in full, before and past position 64; in
// "equal-runs-beside-67" a stretch of uniform slices mixes run and non-run
// slices. At pool 3 the grain of 2 slices ends spans at chunk boundaries,
// and every split of the slices into two spans must write exactly its own
// rows (checkSpans).
func TestSELLSliceKernelMatchesCSR(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	// rowsOf builds a matrix whose row i holds lens[i] entries.
	rowsOf := func(cols int, lens []int) *CSR {
		c := NewCOO(len(lens), cols)
		for i, l := range lens {
			for _, j := range rng.Perm(cols)[:l] {
				c.Add(i, j, rng.NormFloat64())
			}
		}
		return c.ToCSR()
	}
	// colsOf builds a rows x cols matrix whose row i holds the (distinct)
	// columns at(i).
	colsOf := func(rows, cols int, at func(i int) []int) *CSR {
		c := NewCOO(rows, cols)
		for i := 0; i < rows; i++ {
			for _, j := range at(i) {
				c.Add(i, j, rng.NormFloat64())
			}
		}
		return c.ToCSR()
	}
	// band gives row i the w columns from i+off on, wrapping at cols.
	band := func(rows, cols, off, w int) *CSR {
		return colsOf(rows, cols, func(i int) []int {
			out := make([]int, w)
			for k := range out {
				out[k] = (i + off + k) % cols
			}
			return out
		})
	}
	// Rows 4, 13, 22, ... hold one far column; the others, numbered k in
	// order, hold k and k+40: consecutive columns on rows that are not.
	skipped := colsOf(72, 120, func(i int) []int {
		if i%9 == 4 {
			return []int{119 - i/9}
		}
		k := i - (i+4)/9
		return []int{k, k + 40}
	})
	// One row in thirteen is a column short, so the sort breaks the runs
	// it falls in and leaves the slices around it runs.
	shortRows := colsOf(67, 71, func(i int) []int {
		out := []int{i, i + 1, i + 2, i + 3}
		if i%13 == 6 {
			out = out[:3]
		}
		return out
	})
	repeat := func(n int, pattern ...int) []int {
		out := make([]int, 0, n)
		for len(out) < n {
			out = append(out, pattern...)
		}
		return out[:n]
	}
	mats := map[string]*CSR{
		"uniform-64":        rowsOf(9, repeat(64, 3)),               // every slice uniform
		"uniform-65":        rowsOf(9, repeat(65, 3)),               // ... plus a one-row slice
		"uniform-71":        rowsOf(9, repeat(71, 5)),               // ... plus a 7-row slice
		"tridiag-67":        tridiag(67),                            // two short rows among uniform ones
		"ragged-61":         rowsOf(12, repeat(61, 0, 7, 1, 12, 3)), // no slice uniform, empty rows
		"empty-slices-40":   rowsOf(6, append(repeat(24, 0), repeat(16, 2)...)),
		"empty-tail-43":     rowsOf(9, append(repeat(24, 7), repeat(19, 0)...)),
		"descending-33":     rowsOf(33, repeat(33, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0)),
		"single-entry-rows": identity(19),
		"band-7-70":         band(70, 76, 0, 7), // every column unit-stride, every full slice a run
		"band-wraps-61":     band(61, 64, 50, 5),
		"band-66-wide-67":   band(67, 133, 0, 66), // positions 64 and 65 unit-stride but unmarked
		"unit-not-run-72":   skipped,
		"runs-beside-67":    shortRows,
		// Gathered, unit-stride, unit-stride, unit-stride, gathered.
		"mixed-67": colsOf(67, 100, func(i int) []int {
			return []int{rng.Intn(8), 8 + i, 9 + i, 10 + i, 78 + rng.Intn(22)}
		}),
		// Position 1 has rows 0-6 consecutive and row 7 one past; position 3
		// has row 3 one past.
		"near-miss-64": colsOf(64, 104, func(i int) []int {
			out := []int{i, i + 9, i + 18, i + 27}
			if i%8 == 7 {
				out[1]++
			}
			if i%8 == 3 {
				out[3]++
			}
			return out
		}),
		// 64 unit-stride positions, then six gathered: a mask read past
		// its 64 bits would plain-load them.
		"width-70-67": colsOf(67, 161, func(i int) []int {
			out := make([]int, 64, 70)
			for k := range out {
				out[k] = i + k
			}
			for _, j := range rng.Perm(30)[:6] {
				out = append(out, 131+j)
			}
			return out
		}),
		// Row 8s+r holds 10(2s+j)+1+r for j < 2: unit-stride columns whose
		// x[c0-1] and x[c0+8] no entry reads.
		"gapped-40": colsOf(40, 101, func(i int) []int {
			s, r := i/8, i%8
			return []int{10*(2*s) + 1 + r, 10*(2*s+1) + 1 + r}
		}),
	}
	for _, name := range []string{"band-7-70", "band-66-wide-67", "unit-not-run-72", "runs-beside-67", "mixed-67", "width-70-67"} {
		mats["equal-"+name] = equalColumns(mats[name], func(i, j int) bool { return (3*i+j)%17 == 0 })
	}
	// Ragged full-height slices, which the AVX2 kernel runs under a lane
	// mask. At sigma = C each slice sorts only its own rows.
	// Every slice's last three rows are empty: rowLen[7] = 0, so every
	// position runs masked.
	mats["ragged-empty-last-64"] = rowsOf(9, repeat(64, 6, 4, 0, 0, 3, 1, 0, 2))
	// An all-empty slice between ragged ones, and between uniform ones.
	mats["ragged-empty-middle-40"] = rowsOf(12, slices.Concat(repeat(16, 3, 1, 4, 1, 5, 9, 2, 6), repeat(8, 0), repeat(16, 2, 7, 1, 8)))
	mats["uniform-empty-middle-40"] = rowsOf(9, slices.Concat(repeat(16, 5), repeat(8, 0), repeat(16, 5)))
	// Ragged rows past the marks' 64 positions, ending before, at and after
	// position 64.
	mats["ragged-wide-40"] = rowsOf(80, repeat(40, 70, 66, 65, 64, 63, 3, 0, 67))
	// Uniform, ragged, uniform (unit-stride and equal-valued, a run),
	// ragged, uniform, short: ragged slices inside one stretch of the span.
	mats["ragged-between-uniform-45"] = equalColumns(colsOf(45, 60, func(i int) []int {
		w := []int{3, 0, 4, 0, 3, 2}[i/8]
		if i/8%2 == 1 {
			w = []int{5, 1, 0, 2, 4, 4, 3, 1}[i%8]
		}
		out := make([]int, w)
		for k := range out {
			out[k] = (i + 7*k) % 60
		}
		return out
	}), func(i, j int) bool { return false })
	for w := 0; w <= 9; w++ {
		mats[fmt.Sprintf("width-%d-61", w)] = rowsOf(9, repeat(61, w))
	}
	special := map[string]bool{"specials-uniform-67": true, "specials-ragged-61": true}
	mats["specials-uniform-67"] = withSpecials(rowsOf(12, repeat(67, 7)), rng)
	mats["specials-ragged-61"] = withSpecials(rowsOf(12, repeat(61, 0, 7, 1, 12, 3)), rng)
	for name, m := range mats {
		draw := rng.NormFloat64
		if special[name] {
			draw = func() float64 { return drawSpecial(rng) }
		}
		for _, c := range []int{1, 4, 8, 32} {
			for _, sigma := range []int{c, 256} {
				for _, pool := range []int{1, 3} {
					t.Run(name, func(t *testing.T) {
						old := exec.Default()
						exec.SetDefault(exec.New(exec.WithWorkers(pool), exec.WithGrain(2)))
						defer exec.SetDefault(old)
						forEachSellKernel(t, func(t *testing.T) {
							checkSellMatchesCSR(t, m, c, sigma, draw)
							if pool == 1 {
								checkSpans(t, m, c, sigma)
							}
						})
					})
				}
			}
		}
	}
}

// equalColumns returns a copy of m whose entry j of row i is j - 2.5, or
// 2.5 - j where odd(i, j): a stencil's pattern of one value per position,
// with the odd entries breaking it.
func equalColumns(m *CSR, odd func(i, j int) bool) *CSR {
	out := *m
	out.Val = make([]float64, len(m.Val))
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.RowNNZ(i); j++ {
			v := float64(j) - 2.5
			if odd(i, j) {
				v = -v
			}
			out.Val[m.RowPtr[i]+j] = v
		}
	}
	return &out
}

// checkSpans runs the slice kernel over [0, k) and then [k, numSlices) for
// every k, into a y filled with a sentinel NaN: the first span must leave
// every row of the second untouched — a stretch handed to the AVX2 kernel
// ends at its span's end even when the next slice is uniform too — and
// together they must give CSR's product.
func checkSpans(t *testing.T, m *CSR, c, sigma int) {
	t.Helper()
	s := FromCSR(m, c, sigma)
	x := make([]float64, m.Cols)
	for i := range x {
		x[i] = float64(i*i%11) - 5
	}
	want := make([]float64, m.Rows)
	m.MulVec(x, want)
	sentinel := math.Float64frombits(0x7ff8_0000_5e17_1e11)
	y := make([]float64, m.Rows)
	for k := 0; k <= s.numSlices(); k++ {
		for i := range y {
			y[i] = sentinel
		}
		sellRange(sellArgs{m: s, x: x, y: y}, 0, k)
		for p := min(k*c, m.Rows); p < m.Rows; p++ {
			if math.Float64bits(y[s.perm[p]]) != math.Float64bits(sentinel) {
				t.Fatalf("C=%d sigma=%d: slices [0,%d) wrote row %d of slice %d", c, sigma, k, s.perm[p], p/c)
			}
		}
		sellRange(sellArgs{m: s, x: x, y: y}, k, s.numSlices())
		if !bitsEqual(y, want) {
			t.Fatalf("C=%d sigma=%d: slices [0,%d) then [%d,%d) differ from CSR\ncsr  %v\nsell %v", c, sigma, k, k, s.numSlices(), want, y)
		}
	}
}

// FuzzSELLMatchesCSR holds both slice kernels to CSR on a matrix built from
// the fuzz input, and ToCSR to FromCSR's exact inverse on it. width < 10 gives every row that many entries (uniform
// slices: the assembly path); otherwise pattern gives each row's length.
// Row i's columns are a run from a pattern-chosen start, wrapping at cols;
// in banded mode (layout bit 4) the start is i plus an offset, and the
// columns are widened by the row count, so slices of consecutive rows hold
// unit-stride columns until the band wraps. values supplies the matrix
// entries, then x, y and alpha, as raw float64 bits, so NaN, ±Inf, -0 and
// subnormals come straight from the input; layout picks C and sigma.
func FuzzSELLMatchesCSR(f *testing.F) {
	floats := func(vs ...float64) []byte {
		b := make([]byte, 0, 8*len(vs))
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	stencil := floats(6, -1, -1, -1, -1, -1, -1, 0.5, 0.25, -2, 1e-3, 3)
	odd := floats(math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 5e-324, -1e-310, 1, -1, math.MaxFloat64, 2)
	f.Add(uint8(65), uint8(23), uint8(7), uint8(0), []byte{3, 1, 4, 1, 5, 9, 2, 6}, stencil)
	f.Add(uint8(70), uint8(11), uint8(5), uint8(0), []byte{2, 7, 1, 8}, odd)
	f.Add(uint8(40), uint8(9), uint8(0), uint8(0), []byte{5}, stencil)
	f.Add(uint8(60), uint8(13), uint8(200), uint8(4), []byte{0, 7, 1, 12, 3, 9, 0, 0}, odd)
	f.Add(uint8(33), uint8(17), uint8(9), uint8(1), []byte{11, 4}, stencil)
	f.Add(uint8(90), uint8(15), uint8(3), uint8(3), []byte{1, 2, 3}, odd)
	f.Add(uint8(47), uint8(8), uint8(150), uint8(8), []byte{8, 8, 8, 8, 8, 8, 8, 0, 0}, []byte{})
	// Banded: 64 rows of 7 over 69 columns, so row 63 alone wraps and slice
	// 7's first position is a near miss.
	f.Add(uint8(63), uint8(4), uint8(7), uint8(16), []byte{0}, stencil)
	f.Add(uint8(80), uint8(23), uint8(9), uint8(16), []byte{0}, odd)
	f.Add(uint8(95), uint8(0), uint8(200), uint8(24), []byte{5, 4, 5, 5, 6, 5}, stencil)
	f.Add(uint8(47), uint8(20), uint8(3), uint8(20), []byte{1}, stencil)
	// Banded, 16 rows of two: entry j of row i is values[2i+j]. Position 0
	// is +0 in every row but rows 5 and 13 (-0), position 1 one NaN payload
	// in every row but rows 2 and 10: none may be stored as one value.
	almost := make([]float64, 40)
	for i := 0; i < 16; i++ {
		almost[2*i], almost[2*i+1] = 0, math.Float64frombits(0x7ff8_0000_0000_0bad)
	}
	almost[10], almost[26] = math.Copysign(0, -1), math.Copysign(0, -1)
	almost[5], almost[21] = math.Float64frombits(0x7ff8_0000_0000_0bae), math.Float64frombits(0x7ff8_0000_0000_0bae)
	for k := 32; k < 40; k++ {
		almost[k] = float64(k%5) - 1.5
	}
	f.Add(uint8(15), uint8(0), uint8(2), uint8(16), []byte{0}, floats(almost...))
	// Eight rows of two, every value -0 but the last row's +0s.
	signs := make([]float64, 16)
	for k := range signs {
		signs[k] = math.Copysign(0, -1)
	}
	signs[14], signs[15] = 0, 0
	f.Add(uint8(7), uint8(3), uint8(2), uint8(16), []byte{0}, floats(signs...))
	// Ragged full-height slices, the masked loop, at C = 8 and sigma = 8:
	// the last three rows of every slice empty; an all-empty slice between
	// ragged ones; banded rows past position 64.
	f.Add(uint8(63), uint8(20), uint8(200), uint8(4), []byte{6, 4, 0, 0, 3, 1, 0, 2}, odd)
	f.Add(uint8(47), uint8(23), uint8(200), uint8(4), []byte{3, 1, 4, 1, 5, 9, 2, 6, 0, 0, 0, 0, 0, 0, 0, 0, 2, 7, 1, 8, 2, 8, 1, 8}, stencil)
	f.Add(uint8(95), uint8(23), uint8(200), uint8(20), []byte{70, 66, 0, 65, 100, 3, 64, 67}, odd)
	// Banded, three values a row: slices 0, 2 and 4 are fully compact (one
	// value on eight consecutive columns at every position), slices 1 and 3
	// ragged between them.
	f.Add(uint8(39), uint8(15), uint8(200), uint8(20), []byte{
		3, 3, 3, 3, 3, 3, 3, 3, 5, 1, 0, 2, 4, 4, 3, 1, 3, 3, 3, 3, 3, 3, 3, 3,
		2, 2, 2, 2, 2, 2, 2, 1, 3, 3, 3, 3, 3, 3, 3, 3}, floats(6, -1, -2))
	f.Fuzz(func(t *testing.T, rows, cols, width, layout uint8, pattern, values []byte) {
		nr, nc := 1+int(rows)%96, 1+int(cols)%24
		c := []int{8, 1, 4, 32}[layout%4]
		sigma := []int{0, 1, 8, 64}[layout/4%4]
		banded := layout&16 != 0
		if banded {
			nc += nr
		}
		at := func(i int) int {
			if len(pattern) == 0 {
				return 0
			}
			return int(pattern[i%len(pattern)])
		}
		next := 0
		draw := func() float64 {
			k := next
			next++
			if n := len(values) / 8; n > 0 {
				return math.Float64frombits(binary.LittleEndian.Uint64(values[8*(k%n):]))
			}
			return float64(k%7 - 3)
		}
		coo := NewCOO(nr, nc)
		for i := 0; i < nr; i++ {
			l := min(int(width), nc)
			if width >= 10 {
				l = at(i) % (nc + 1)
			}
			start := at(3*i+1) % nc
			if banded {
				start = (i + at(0)) % nc
			}
			for k := 0; k < l; k++ {
				coo.Add(i, (start+k)%nc, draw())
			}
		}
		m := coo.ToCSR()
		if err := roundTripMismatch(m, c, sigma); err != nil {
			t.Fatalf("C=%d sigma=%d: ToCSR is not FromCSR's inverse: %v", c, sigma, err)
		}
		forEachSellKernel(t, func(t *testing.T) {
			checkSellMatchesCSR(t, m, c, sigma, draw)
		})
	})
}

// laplace3dBlock is the first z-half of the 7-point Laplacian on an
// nx*ny*nz grid, as rank 0 of two holds it: rows are the owned points, and
// columns are the owned points followed by the ghost face above them, which
// on rank 0 are just their global indices (sparse cannot import galeri).
func laplace3dBlock(nx, ny, nz int) *CSR {
	rows := nx * ny * (nz / 2)
	c := NewCOO(rows, rows+nx*ny)
	for i := 0; i < rows; i++ {
		x, y, z := i%nx, i/nx%ny, i/(nx*ny)
		c.Add(i, i, 6)
		for _, nb := range []struct {
			ok bool
			d  int
		}{{x > 0, -1}, {x < nx-1, 1}, {y > 0, -nx}, {y < ny-1, nx}, {z > 0, -nx * ny}, {z < nz-1, nx * ny}} {
			if nb.ok {
				c.Add(i, i+nb.d, -1)
			}
		}
	}
	return c.ToCSR()
}

// sellCounts is what FromCSR marked on a SELL's height-8 slices: run
// slices and slices, uniform slice columns whose indices are unit-stride
// and whose values are all equal, and slice columns.
type sellCounts struct{ runs, slices, unit, same, cols int }

// classification counts what FromCSR marked on s.
func classification(s *SELL) sellCounts {
	var n sellCounts
	for sl := 0; sl < s.numSlices(); sl++ {
		lo := sl * s.c
		if min(s.c, s.rows-lo) != 8 {
			continue
		}
		n.slices++
		if s.run[sl] {
			n.runs++
		}
		n.unit += bits.OnesCount64(s.unit[sl])
		n.same += bits.OnesCount64(s.same[sl])
		n.cols += s.rowLen[lo]
	}
	return n
}

// storedBytes is the size of s's value and index streams.
func storedBytes(s *SELL) int { return 8*len(s.val) + 4*len(s.colIdx) }

// TestSELLClassification pins, as exact counts, what FromCSR marks on the
// block CG multiplies by in the solve_large workload (laplace3d 32^3 on two
// ranks, rank 0's half with its ghost face): three slices in four are runs,
// three slice columns in four are unit-stride, and nearly every uniform
// slice column holds eight equal values — the marks that let sellRange
// store in one stretch, load x without a gather, and broadcast one stored
// value — and the bytes the streams then take, against 12 per slot of the
// full layout. Random columns and values get no unit-stride or equal
// column; random row lengths, whose sort scatters the rows, get no run.
// Runs are a property of the row order alone, so a matrix whose rows all
// have one length keeps every slice a run.
func TestSELLClassification(t *testing.T) {
	check := func(name string, m *CSR, want sellCounts, wantBytes int) {
		t.Helper()
		s := NewSELL(m)
		if got := classification(s); got != want {
			t.Errorf("%s: %d of %d slices are runs; of %d slice columns %d unit-stride and %d equal-valued; want %d of %d; of %d, %d and %d",
				name, got.runs, got.slices, got.cols, got.unit, got.same, want.runs, want.slices, want.cols, want.unit, want.same)
		}
		if got := storedBytes(s); got != wantBytes {
			t.Errorf("%s: values and indices take %d B, want %d (%d B in full)", name, got, wantBytes, 12*s.PaddedNNZ())
		}
	}
	check("solve_large rank-0 block", laplace3dBlock(32, 32, 32), sellCounts{1536, 2048, 10560, 13380, 13984}, 297504)
	rng := rand.New(rand.NewSource(5))
	check("uniform random columns", uniformRandom(4096, 4096, 7, rng), sellCounts{512, 512, 0, 0, 512 * 7}, 12*4096*7)
	lens := make([]int, 4096)
	for i := range lens {
		lens[i] = 1 + rng.Intn(7)
	}
	c := NewCOO(len(lens), len(lens)+8)
	for i, l := range lens {
		for k := 0; k < l; k++ {
			c.Add(i, i+k, 1)
		}
	}
	if n := classification(NewSELL(c.ToCSR())); n.runs != 0 || n.slices != 512 {
		t.Errorf("random row lengths: %d of %d slices are runs, want 0 of 512", n.runs, n.slices)
	}
}

// BenchmarkSELLBlock times the SpMV of the solve_large rank-0 block on one
// worker (EXPERIMENTS.md E14). kernel runs sellSlices8 alone, one call over
// every slice of the block, with no engine and no Go wrapper; sellRange is
// the whole MulVec, so the gap between the two is the wrapper's price. The
// bytes one SpMV reads and writes — the stored values and indices, the
// per-slice and per-row arrays, x and y — are reported beside the time so
// they can be set against the cache size.
func BenchmarkSELLBlock(b *testing.B) {
	m := laplace3dBlock(32, 32, 32)
	s := NewSELL(m)
	x := make([]float64, m.Cols)
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	y := make([]float64, m.Rows)
	bytes := storedBytes(s) + len(s.run) +
		8*(len(s.perm)+len(s.rowLen)+len(s.valPtr)+len(s.colPtr)+len(s.unit)+len(s.same)+len(x)+len(y))
	report := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(m.NNZ()), "ns/nnz")
		b.ReportMetric(float64(bytes)/1e6, "block-MB")
	}
	old := exec.Default()
	exec.SetDefault(exec.New(exec.WithWorkers(1)))
	defer exec.SetDefault(old)
	b.Run("kernel", func(b *testing.B) {
		if !simdAtInit {
			b.Skip("no AVX2 kernel on this host")
		}
		for i := 0; i < b.N; i++ {
			sellSlices8(s.val, s.colIdx, x, &y[0], &s.rowLen[0], &s.perm[0], &s.unit[0], &s.same[0], &s.run[0], s.rows/8)
		}
		report(b)
	})
	b.Run("sellRange", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s.MulVec(x, y)
		}
		report(b)
	})
}

// roundTripMismatch reports the first place FromCSR(m, c, sigma).ToCSR()
// differs from m: shape, a row pointer, a column index, or a value's bits
// (NaN payloads and the sign of zero included).
func roundTripMismatch(m *CSR, c, sigma int) error {
	got := FromCSR(m, c, sigma).ToCSR()
	if got.Rows != m.Rows || got.Cols != m.Cols || len(got.RowPtr) != len(m.RowPtr) ||
		len(got.ColIdx) != len(m.ColIdx) || len(got.Val) != len(m.Val) {
		return fmt.Errorf("shape %dx%d with %d/%d/%d arrays, want %dx%d with %d/%d/%d",
			got.Rows, got.Cols, len(got.RowPtr), len(got.ColIdx), len(got.Val),
			m.Rows, m.Cols, len(m.RowPtr), len(m.ColIdx), len(m.Val))
	}
	for i := range m.RowPtr {
		if got.RowPtr[i] != m.RowPtr[i] {
			return fmt.Errorf("RowPtr[%d] = %d, want %d", i, got.RowPtr[i], m.RowPtr[i])
		}
	}
	for k := range m.ColIdx {
		if got.ColIdx[k] != m.ColIdx[k] {
			return fmt.Errorf("ColIdx[%d] = %d, want %d", k, got.ColIdx[k], m.ColIdx[k])
		}
		if a, b := math.Float64bits(got.Val[k]), math.Float64bits(m.Val[k]); a != b {
			return fmt.Errorf("Val[%d] bits %#x, want %#x", k, a, b)
		}
	}
	return nil
}

// TestSELLToCSRRoundTrip pins ToCSR as FromCSR's exact inverse, which is
// what lets a tpetra.CrsMatrix keep the SELL as its only local copy: every
// slice height, sigma windows that do and do not sort, empty and ragged
// rows, explicit zeros, -0, and NaNs whose payloads must survive — also
// where eight values of a uniform slice's position differ only in the sign
// of a zero or in a NaN payload, which must not be stored as one.
func TestSELLToCSRRoundTrip(t *testing.T) {
	payloads := []float64{
		math.Float64frombits(0x7ff8_0000_0000_0bad), // quiet NaN, payload 0xbad
		math.Float64frombits(0x7ff0_0000_0000_0001), // signalling NaN
		math.Float64frombits(0xfff8_dead_beef_0001), // negative quiet NaN
		math.Copysign(0, -1), 0, math.Inf(-1), 5e-324,
	}
	// Rows 0-15 hold columns i, i+1, i+2: in each C = 8 slice position 0 is
	// +0 but for one -0, position 1 one quiet NaN payload but for another,
	// and position 2 one value throughout, the one position stored once.
	ae := NewCOO(16, 18)
	for i := 0; i < 16; i++ {
		zero, nan := 0.0, payloads[0]
		if i%8 == 5 {
			zero = math.Copysign(0, -1)
		}
		if i%8 == 2 {
			nan = math.Float64frombits(0x7ff8_0000_0000_0bae)
		}
		ae.Add(i, i, zero)
		ae.Add(i, i+1, nan)
		ae.Add(i, i+2, 1.5)
	}
	almostEqual := ae.ToCSR()
	if s := FromCSR(almostEqual, 8, 0); s.same[0] != 0b100 || s.same[1] != 0b100 {
		t.Errorf("almost equal-16: same masks %b %b, want 100 100: only position 2's values are bitwise equal", s.same[0], s.same[1])
	}
	shaped := func(rng *rand.Rand) *CSR {
		m := raggedRandom(1+rng.Intn(100), 1+rng.Intn(60), rng)
		if rng.Intn(3) == 0 {
			m = uniformRandom(m.Rows, m.Cols, rng.Intn(10), rng)
		}
		for k := range m.Val {
			if rng.Intn(3) == 0 {
				m.Val[k] = payloads[rng.Intn(len(payloads))]
			}
		}
		return m
	}
	for _, c := range []int{1, 4, 8, 32} {
		for _, sigma := range []int{0, 1, 8, 64} {
			for seed := int64(0); seed < 40; seed++ {
				m := shaped(rand.New(rand.NewSource(seed)))
				if err := roundTripMismatch(m, c, sigma); err != nil {
					t.Fatalf("C=%d sigma=%d seed %d (%dx%d, nnz %d): %v", c, sigma, seed, m.Rows, m.Cols, m.NNZ(), err)
				}
			}
		}
		// Edge shapes: no rows, every row empty, one dense row among empties,
		// and an explicit zero stored as the only entry of a row.
		zeros := NewCOO(5, 3)
		zeros.Add(2, 1, 0)
		zeros.Add(4, 0, math.Copysign(0, -1))
		dense := NewCOO(40, 7)
		for j := 0; j < 7; j++ {
			dense.Add(17, j, payloads[j%len(payloads)])
		}
		for name, m := range map[string]*CSR{
			"no rows":         NewCOO(0, 4).ToCSR(),
			"all empty":       NewCOO(37, 5).ToCSR(),
			"one dense row":   dense.ToCSR(),
			"explicit zeros":  zeros.ToCSR(),
			"stencil":         tridiag(100),
			"almost equal-16": almostEqual,
		} {
			if err := roundTripMismatch(m, c, 0); err != nil {
				t.Errorf("C=%d %s: %v", c, name, err)
			}
		}
	}
}

func TestSELLPermIsPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := raggedRandom(77, 30, rng)
	s := FromCSR(m, 8, 16)
	seen := make([]bool, m.Rows)
	for p, orig := range s.perm {
		if seen[orig] {
			t.Fatalf("row %d appears twice in perm", orig)
		}
		seen[orig] = true
		if s.rowLen[p] != m.RowNNZ(orig) {
			t.Fatalf("rowLen[%d] = %d, want %d", p, s.rowLen[p], m.RowNNZ(orig))
		}
	}
	// Row lengths must be descending within every slice.
	for sl := 0; sl < s.numSlices(); sl++ {
		lo, hi := sl*s.c, (sl+1)*s.c
		if hi > s.rows {
			hi = s.rows
		}
		for p := lo + 1; p < hi; p++ {
			if s.rowLen[p] > s.rowLen[p-1] {
				t.Fatalf("slice %d rows not descending at position %d", sl, p)
			}
		}
	}
}

func TestSELLBadArgs(t *testing.T) {
	m := tridiag(4)
	for name, fn := range map[string]func(){
		"c-zero":    func() { FromCSR(m, 0, 0) },
		"c-too-big": func() { FromCSR(m, sellMaxC+1, 0) },
		"mulvec":    func() { NewSELL(m).MulVec(make([]float64, 2), make([]float64, 4)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestSELLFromCSRChecksColumns pins the construction-time check the
// unchecked gathers rely on: a column index below 0 or at least Cols panics
// in FromCSR, naming the row and the column, before any product runs.
func TestSELLFromCSRChecksColumns(t *testing.T) {
	for _, bad := range []int{-1, 5, 1 << 40} { // 1<<40 would wrap to column 0 as an int32
		m := tridiag(5)
		k := m.RowPtr[3] + 1 // row 3, its second entry
		m.ColIdx[k] = bad
		func() {
			defer func() {
				msg, _ := recover().(string)
				want := fmt.Sprintf("row 3 has column index %d outside [0,5)", bad)
				if !strings.Contains(msg, want) {
					t.Errorf("column %d: FromCSR panicked with %q, want it to contain %q", bad, msg, want)
				}
			}()
			FromCSR(m, 8, 0)
		}()
	}
}

func TestChooseFormat(t *testing.T) {
	lap := tridiag(1000) // uniform stencil: prime SELL territory
	if ChooseFormat(lap) != FormatSELL {
		t.Fatal("stencil matrix should auto-select SELL")
	}
	if ChooseFormat(tridiag(8)) != FormatCSR {
		t.Fatal("tiny matrix should stay CSR")
	}
	// One very long row among 100 empty ones: padding explodes, stay CSR.
	c := NewCOO(100, 100)
	for j := 0; j < 100; j++ {
		c.Add(0, j, 1)
	}
	if ChooseFormat(c.ToCSR()) != FormatCSR {
		t.Fatal("pathologically ragged matrix should stay CSR")
	}
	if op := AutoOperator(lap); func() bool { _, ok := op.(*SELL); return !ok }() {
		t.Fatalf("AutoOperator(stencil) = %T, want *SELL", op)
	}
	if op := AutoOperator(tridiag(8)); func() bool { _, ok := op.(*CSR); return !ok }() {
		t.Fatalf("AutoOperator(tiny) = %T, want *CSR", op)
	}
	if FormatCSR.String() != "csr" || FormatSELL.String() != "sell" {
		t.Fatal("Format.String")
	}
}

// TestAutoSELLIsNewSELL: AutoSELL, which orders each sigma window once to
// price the padding and to lay out the slices, picks what ChooseFormat
// picks and, where that is SELL, builds NewSELL's layout field for field.
func TestAutoSELLIsNewSELL(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	mats := []*CSR{tridiag(1000), tridiag(8), randomSPD(300, 3), identity(64)}
	for i := 0; i < 60; i++ {
		rows, cols := 1+rng.Intn(700), 1+rng.Intn(400)
		if i%2 == 0 {
			mats = append(mats, raggedRandom(rows, cols, rng))
		} else {
			mats = append(mats, uniformRandom(rows, cols, rng.Intn(10), rng))
		}
	}
	picks := [2]int{}
	for i, m := range mats {
		auto, want := AutoSELL(m), ChooseFormat(m)
		picks[want]++
		switch {
		case (auto != nil) != (want == FormatSELL):
			t.Fatalf("matrix %d: AutoSELL = %v, ChooseFormat = %v", i, auto, want)
		case auto != nil && !reflect.DeepEqual(auto, NewSELL(m)):
			t.Fatalf("matrix %d: AutoSELL's layout is not NewSELL's", i)
		}
	}
	if picks[FormatCSR] == 0 || picks[FormatSELL] == 0 {
		t.Fatalf("the corpus picks csr %d times and sell %d times; want both", picks[FormatCSR], picks[FormatSELL])
	}
}

// TestOrderWindowIsStableSort holds orderWindow, on both its counting and
// its sorting branch, to a stable sort of the window's rows by descending
// length, over windows whose lengths span a few values (a stencil's) and
// many (past orderSpan), and checks that it and ChooseFormat allocate
// nothing.
func TestOrderWindowIsStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for trial := 0; trial < 200; trial++ {
		spread := []int{1, 3, orderSpan, orderSpan + 1, 200}[trial%5]
		rows := 1 + rng.Intn(300)
		c := NewCOO(rows, 400)
		for i := 0; i < rows; i++ {
			for j, n := 0, rng.Intn(spread); j < n; j++ {
				c.Add(i, j, 1)
			}
		}
		m := c.ToCSR()
		lo := rng.Intn(rows)
		win := make([]int, rows-lo)
		orderWindow(m, win, lo)
		want := make([]int, len(win))
		for k := range want {
			want[k] = lo + k
		}
		sort.SliceStable(want, func(a, b int) bool { return m.RowNNZ(want[a]) > m.RowNNZ(want[b]) })
		if !slices.Equal(win, want) {
			t.Fatalf("trial %d (spread %d): orderWindow = %v, stable sort = %v", trial, spread, win, want)
		}
		if a := testing.AllocsPerRun(5, func() { orderWindow(m, win, lo); ChooseFormat(m) }); a != 0 {
			t.Fatalf("orderWindow and ChooseFormat allocate %v objects", a)
		}
	}
}
