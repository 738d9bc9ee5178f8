package sparse

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
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
// differ: MulVec, and MulVecAdd at a drawn alpha and at 0, -1 and NaN, with
// vector entries from draw.
func sellMismatch(m *CSR, c, sigma int, draw func() float64) error {
	s := FromCSR(m, c, sigma)
	if got, want := s.NNZ(), m.NNZ(); got != want {
		return fmt.Errorf("SELL nnz %d != CSR nnz %d", got, want)
	}
	vec := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = draw()
		}
		return v
	}
	x := vec(m.Cols)
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
	for _, alpha := range []float64{draw(), 0, -1, math.NaN()} {
		y0 := vec(m.Rows)
		copy(y1, y0)
		copy(y2, y0)
		m.MulVecAdd(alpha, x, y1)
		s.MulVecAdd(alpha, x, y2)
		if !bitsEqual(y1, y2) {
			return fmt.Errorf("MulVecAdd alpha=%v differs\ncsr  %v\nsell %v", alpha, y1, y2)
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
// whose rows all have one length (the assembly path, or the eight
// accumulators going straight to y) at every width 0-9, beside ragged ones
// (spill and tail loop), a short last slice down to a single row (Rows % C
// != 0), empty rows inside and making up whole slices — trailing ones too,
// whose offset is len(val) — and NaN, ±Inf, -0 and subnormals in the values
// and vectors, at the unrolled C = 8 and the generic heights 1, 4 and 32 —
// for MulVec and MulVecAdd, inline and fanned out over several slice chunks.
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
	}
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
						})
					})
				}
			}
		}
	}
}

// FuzzSELLMatchesCSR holds both slice kernels to CSR on a matrix built from
// the fuzz input. width < 10 gives every row that many entries (uniform
// slices: the assembly path); otherwise pattern gives each row's length.
// Row i's columns are a run from a pattern-chosen start, wrapping at cols.
// values supplies the matrix entries, then x, y and alpha, as raw float64
// bits, so NaN, ±Inf, -0 and subnormals come straight from the input; layout
// picks C and sigma.
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
	f.Fuzz(func(t *testing.T, rows, cols, width, layout uint8, pattern, values []byte) {
		nr, nc := 1+int(rows)%96, 1+int(cols)%24
		c := []int{8, 1, 4, 32}[layout%4]
		sigma := []int{0, 1, 8, 64}[layout/4%4]
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
			for k := 0; k < l; k++ {
				coo.Add(i, (start+k)%nc, draw())
			}
		}
		m := coo.ToCSR()
		forEachSellKernel(t, func(t *testing.T) {
			checkSellMatchesCSR(t, m, c, sigma, draw)
		})
	})
}

func TestSELLScale(t *testing.T) {
	m := tridiag(50)
	s := NewSELL(m)
	m.Scale(-2.5)
	s.Scale(-2.5)
	x := make([]float64, 50)
	for i := range x {
		x[i] = float64(i) - 25
	}
	y1, y2 := make([]float64, 50), make([]float64, 50)
	m.MulVec(x, y1)
	s.MulVec(x, y2)
	if !bitsEqual(y1, y2) {
		t.Fatal("Scale broke SELL/CSR parity")
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
		"mulvecadd": func() { NewSELL(m).MulVecAdd(1, make([]float64, 4), make([]float64, 2)) },
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
