package sparse

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"odinhpc/internal/exec"
)

// bitsEqual reports exact (bit-level) equality of two float64 slices.
func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
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

// checkSellMatchesCSR verifies MulVec, MulVecAdd, and MulVecTrans are
// bitwise identical between m and its SELL conversion.
func checkSellMatchesCSR(t *testing.T, m *CSR, c, sigma int, rng *rand.Rand) {
	t.Helper()
	s := FromCSR(m, c, sigma)
	if got, want := s.NNZ(), m.NNZ(); got != want {
		t.Fatalf("C=%d sigma=%d: SELL nnz %d != CSR nnz %d", c, sigma, got, want)
	}
	x := make([]float64, m.Cols)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	y1, y2 := make([]float64, m.Rows), make([]float64, m.Rows)
	m.MulVec(x, y1)
	s.MulVec(x, y2)
	if !bitsEqual(y1, y2) {
		t.Fatalf("C=%d sigma=%d: MulVec differs\ncsr  %v\nsell %v", c, sigma, y1, y2)
	}
	alpha := rng.NormFloat64()
	for i := range y1 {
		v := rng.NormFloat64()
		y1[i], y2[i] = v, v
	}
	m.MulVecAdd(alpha, x, y1)
	s.MulVecAdd(alpha, x, y2)
	if !bitsEqual(y1, y2) {
		t.Fatalf("C=%d sigma=%d: MulVecAdd differs", c, sigma)
	}
	xt := make([]float64, m.Rows)
	for i := range xt {
		xt[i] = rng.NormFloat64()
	}
	z1, z2 := make([]float64, m.Cols), make([]float64, m.Cols)
	m.MulVecTrans(xt, z1)
	s.MulVecTrans(xt, z2)
	if !bitsEqual(z1, z2) {
		t.Fatalf("C=%d sigma=%d: MulVecTrans differs", c, sigma)
	}
}

func TestSELLMatchesCSRRandom(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		old := exec.Default()
		exec.SetDefault(exec.New(exec.WithWorkers(workers)))
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			rows, cols := 1+rng.Intn(100), 1+rng.Intn(60)
			m := raggedRandom(rows, cols, rng)
			cs := []int{1, 2, 4, 8, 16}[rng.Intn(5)]
			sigma := []int{0, 1, 8, 64, 1024}[rng.Intn(5)]
			s := FromCSR(m, cs, sigma)
			x := make([]float64, cols)
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			y1, y2 := make([]float64, rows), make([]float64, rows)
			m.MulVec(x, y1)
			s.MulVec(x, y2)
			if !bitsEqual(y1, y2) {
				return false
			}
			z1, z2 := make([]float64, cols), make([]float64, cols)
			xt := make([]float64, rows)
			for i := range xt {
				xt[i] = rng.NormFloat64()
			}
			m.MulVecTrans(xt, z1)
			s.MulVecTrans(xt, z2)
			return bitsEqual(z1, z2)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
			t.Errorf("workers=%d: %v", workers, err)
		}
		exec.SetDefault(old)
	}
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
	for name, m := range map[string]*CSR{
		"laplace1d-257": tridiag(257),
		"laplace2d":     lap2d(17, 13),
		"spd-random":    randomSPD(120, 3),
		"identity":      Identity(64),
	} {
		for _, cfg := range [][2]int{{8, 256}, {4, 4}, {1, 0}, {16, 32}} {
			t.Run(name, func(t *testing.T) {
				checkSellMatchesCSR(t, m, cfg[0], cfg[1], rng)
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
	checkSellMatchesCSR(t, m2, 8, 16, rng)
	if !m.Equal(m2) {
		t.Fatal("MatrixMarket round trip changed the matrix")
	}
}

func TestSELLEdgeShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	t.Run("all-empty", func(t *testing.T) {
		m := NewCOO(10, 5).ToCSR()
		checkSellMatchesCSR(t, m, 8, 0, rng)
		if FromCSR(m, 8, 0).PaddedNNZ() != 0 {
			t.Fatal("empty matrix must store nothing")
		}
	})
	t.Run("single-row", func(t *testing.T) {
		c := NewCOO(1, 6)
		c.Add(0, 5, 1)
		c.Add(0, 0, 2)
		checkSellMatchesCSR(t, c.ToCSR(), 8, 0, rng)
	})
	t.Run("single-col", func(t *testing.T) {
		c := NewCOO(9, 1)
		for i := 0; i < 9; i += 2 {
			c.Add(i, 0, float64(i))
		}
		checkSellMatchesCSR(t, c.ToCSR(), 4, 4, rng)
	})
	t.Run("rows-not-multiple-of-C", func(t *testing.T) {
		checkSellMatchesCSR(t, tridiag(13), 8, 8, rng)
	})
	t.Run("one-dense-row", func(t *testing.T) {
		c := NewCOO(20, 20)
		for j := 0; j < 20; j++ {
			c.Add(7, j, float64(j+1))
		}
		c.Add(0, 0, 1)
		checkSellMatchesCSR(t, c.ToCSR(), 8, 16, rng)
	})
}

// TestSELLSliceKernelMatchesCSR aims the CSR-bitwise check at the branches
// of the slice kernel: slices whose rows all have one length (the eight
// accumulators go straight to y) beside ragged ones (spill and tail loop),
// a short last slice down to a single row (Rows % C != 0), empty rows inside
// and making up whole slices, at the unrolled C = 8 and the generic heights
// 1, 4 and 32 — for MulVec, MulVecAdd and MulVecTrans, inline and fanned out
// over several slice chunks.
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
		"descending-33":     rowsOf(33, repeat(33, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0)),
		"single-entry-rows": Identity(19),
	}
	for name, m := range mats {
		for _, c := range []int{1, 4, 8, 32} {
			for _, sigma := range []int{c, 256} {
				for _, pool := range []int{1, 3} {
					t.Run(name, func(t *testing.T) {
						old := exec.Default()
						exec.SetDefault(exec.New(exec.WithWorkers(pool), exec.WithGrain(2)))
						defer exec.SetDefault(old)
						checkSellMatchesCSR(t, m, c, sigma, rng)
					})
				}
			}
		}
	}
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
	for p, orig := range s.Perm {
		if seen[orig] {
			t.Fatalf("row %d appears twice in Perm", orig)
		}
		seen[orig] = true
		if s.InvPerm[orig] != p {
			t.Fatalf("InvPerm[%d] = %d, want %d", orig, s.InvPerm[orig], p)
		}
		if s.RowLen[p] != m.RowNNZ(orig) {
			t.Fatalf("RowLen[%d] = %d, want %d", p, s.RowLen[p], m.RowNNZ(orig))
		}
	}
	// Row lengths must be descending within every slice.
	for sl := 0; sl < s.numSlices(); sl++ {
		lo, hi := sl*s.C, (sl+1)*s.C
		if hi > s.Rows {
			hi = s.Rows
		}
		for p := lo + 1; p < hi; p++ {
			if s.RowLen[p] > s.RowLen[p-1] {
				t.Fatalf("slice %d rows not descending at position %d", sl, p)
			}
		}
	}
}

func TestSELLBadArgs(t *testing.T) {
	m := tridiag(4)
	for name, fn := range map[string]func(){
		"c-zero":      func() { FromCSR(m, 0, 0) },
		"c-too-big":   func() { FromCSR(m, sellMaxC+1, 0) },
		"mulvec":      func() { NewSELL(m).MulVec(make([]float64, 2), make([]float64, 4)) },
		"mulvecadd":   func() { NewSELL(m).MulVecAdd(1, make([]float64, 4), make([]float64, 2)) },
		"mulvectrans": func() { NewSELL(m).MulVecTrans(make([]float64, 2), make([]float64, 4)) },
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
	t.Run("env-override", func(t *testing.T) {
		t.Setenv(SpmvEnv, "csr")
		if ChooseFormat(lap) != FormatCSR {
			t.Fatal("ODINHPC_SPMV=csr must force CSR")
		}
		t.Setenv(SpmvEnv, "sell")
		if ChooseFormat(tridiag(4)) != FormatSELL {
			t.Fatal("ODINHPC_SPMV=sell must force SELL")
		}
		t.Setenv(SpmvEnv, "auto")
		if ChooseFormat(lap) != FormatSELL {
			t.Fatal("ODINHPC_SPMV=auto must fall back to the heuristic")
		}
	})
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
