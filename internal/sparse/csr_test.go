package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
)

// tridiag builds the n x n [-1 2 -1] Laplacian used throughout.
func tridiag(n int) *CSR {
	c := NewCOO(n, n)
	for i := 0; i < n; i++ {
		c.Add(i, i, 2)
		if i > 0 {
			c.Add(i, i-1, -1)
		}
		if i < n-1 {
			c.Add(i, i+1, -1)
		}
	}
	return c.ToCSR()
}

// identity builds the n x n identity.
func identity(n int) *CSR {
	c := NewCOO(n, n)
	for i := 0; i < n; i++ {
		c.Add(i, i, 1)
	}
	return c.ToCSR()
}

func randomSPD(n int, seed int64) *CSR {
	rng := rand.New(rand.NewSource(seed))
	c := NewCOO(n, n)
	for i := 0; i < n; i++ {
		c.Add(i, i, float64(n)+rng.Float64())
		for k := 0; k < 3; k++ {
			j := rng.Intn(n)
			if j != i {
				v := rng.Float64() - 0.5
				c.Add(i, j, v)
				c.Add(j, i, v)
			}
		}
	}
	return c.ToCSR()
}

func TestCOOToCSRBasic(t *testing.T) {
	c := NewCOO(3, 3)
	c.Add(2, 0, 5)
	c.Add(0, 1, 2)
	c.Add(0, 0, 1)
	c.Add(1, 2, 3)
	m := c.ToCSR()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.At(0, 0) != 1 || m.At(0, 1) != 2 || m.At(1, 2) != 3 || m.At(2, 0) != 5 {
		t.Fatalf("content wrong: %v", m.Dense())
	}
	if m.At(2, 2) != 0 {
		t.Fatal("missing entry must read as zero")
	}
	if m.NNZ() != 4 {
		t.Fatalf("NNZ = %d", m.NNZ())
	}
}

func TestCOODuplicatesSummed(t *testing.T) {
	c := NewCOO(2, 2)
	c.Add(0, 0, 1)
	c.Add(0, 0, 2.5)
	c.Add(1, 1, -1)
	m := c.ToCSR()
	if m.At(0, 0) != 3.5 {
		t.Fatalf("duplicate sum = %v", m.At(0, 0))
	}
	if m.NNZ() != 2 {
		t.Fatalf("NNZ = %d", m.NNZ())
	}
}

func TestCOOEmptyRows(t *testing.T) {
	c := NewCOO(5, 5)
	c.Add(0, 0, 1)
	c.Add(4, 4, 2)
	m := c.ToCSR()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	for r := 1; r < 4; r++ {
		if m.RowNNZ(r) != 0 {
			t.Fatalf("row %d should be empty", r)
		}
	}
}

func TestCOOBounds(t *testing.T) {
	c := NewCOO(2, 2)
	for name, fn := range map[string]func(){
		"neg-row": func() { c.Add(-1, 0, 1) },
		"big-col": func() { c.Add(0, 2, 1) },
		"neg-dim": func() { NewCOO(-1, 2) },
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

func TestValidateCatchesCorruption(t *testing.T) {
	m := tridiag(4)
	bad := m.Clone()
	bad.ColIdx[1], bad.ColIdx[0] = bad.ColIdx[0], bad.ColIdx[1] // unsorted row
	if bad.Validate() == nil {
		t.Fatal("unsorted columns must fail validation")
	}
	bad2 := m.Clone()
	bad2.RowPtr[2] = 100
	if bad2.Validate() == nil {
		t.Fatal("bad RowPtr must fail validation")
	}
	if (&CSR{Rows: 2, Cols: 2, RowPtr: []int{0}}).Validate() == nil {
		t.Fatal("short RowPtr must fail")
	}
}

func TestMulVec(t *testing.T) {
	m := tridiag(4)
	x := []float64{1, 2, 3, 4}
	y := make([]float64, 4)
	m.MulVec(x, y)
	want := []float64{0, 0, 0, 5} // 2*1-2, -1+4-3, -2+6-4, -3+8
	if !reflect.DeepEqual(y, want) {
		t.Fatalf("MulVec = %v want %v", y, want)
	}
}

func TestTransposeInvolution(t *testing.T) {
	m := randomSPD(20, 7)
	tt := m.Transpose().Transpose()
	if !m.Equal(tt) {
		t.Fatal("transpose involution failed")
	}
	if err := m.Transpose().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDiag(t *testing.T) {
	m := tridiag(5)
	d := m.Diag()
	for _, v := range d {
		if v != 2 {
			t.Fatalf("diag = %v", d)
		}
	}
}

func TestMatMulAgainstDense(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(6)
		ca, cb := NewCOO(m, k), NewCOO(k, n)
		for t := 0; t < m*k/2+1; t++ {
			ca.Add(rng.Intn(m), rng.Intn(k), float64(rng.Intn(5)))
		}
		for t := 0; t < k*n/2+1; t++ {
			cb.Add(rng.Intn(k), rng.Intn(n), float64(rng.Intn(5)))
		}
		a, b := ca.ToCSR(), cb.ToCSR()
		c := a.MatMul(b)
		if c.Validate() != nil {
			return false
		}
		ad, bd, cd := a.Dense(), b.Dense(), c.Dense()
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				var want float64
				for p := 0; p < k; p++ {
					want += ad[i*k+p] * bd[p*n+j]
				}
				if math.Abs(cd[i*n+j]-want) > 1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestIdentity(t *testing.T) {
	i := identity(4)
	if err := i.Validate(); err != nil {
		t.Fatal(err)
	}
	x := []float64{1, 2, 3, 4}
	y := make([]float64, 4)
	i.MulVec(x, y)
	if !reflect.DeepEqual(x, y) {
		t.Fatal("identity MulVec")
	}
}

func TestCloneIndependent(t *testing.T) {
	a := tridiag(3)
	b := a.Clone()
	b.Val[0] = 99
	if a.Val[0] == 99 {
		t.Fatal("Clone aliases")
	}
	if a.String() == "" {
		t.Fatal("String")
	}
}

func TestAtBounds(t *testing.T) {
	m := tridiag(3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.At(3, 0)
}

func TestSortRowPairsMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(200)
		cols := make([]int, n)
		vals := make([]float64, n)
		type pair struct {
			c int
			v float64
		}
		ref := make([]pair, n)
		for i := range cols {
			cols[i] = rng.Intn(n/4 + 1) // force duplicates
			vals[i] = rng.NormFloat64()
			ref[i] = pair{cols[i], vals[i]}
		}
		sortRowPairs(cols, vals)
		// Stable reference keeps duplicate columns' values in some order;
		// compare as multisets of pairs plus sortedness of cols.
		for i := 1; i < n; i++ {
			if cols[i-1] > cols[i] {
				return false
			}
		}
		got := make(map[pair]int)
		want := make(map[pair]int)
		for i := range cols {
			got[pair{cols[i], vals[i]}]++
			want[ref[i]]++
		}
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestToCSRAllocsRowIndependent(t *testing.T) {
	// The old per-row sort.Sort(rowSorter{...}) boxed one interface per row,
	// so ToCSR's allocation count grew linearly with the row count. The
	// in-place pair sort and the in-place merge make it a constant: the CSR
	// struct and the three arrays it holds, RowPtr, ColIdx and Val. ToCSR
	// empties its builder, so each run converts a COO of its own.
	build := func(n int) *COO {
		c := NewCOO(n, n)
		for i := n - 1; i >= 0; i-- { // reversed insertion: every row needs sorting
			if i < n-1 {
				c.Add(i, i+1, -1)
			}
			if i > 0 {
				c.Add(i, i-1, -1)
			}
			c.Add(i, i, 2)
		}
		return c
	}
	const runs = 10
	coos := make([]*COO, runs+1) // AllocsPerRun adds one warm-up run
	for k := range coos {
		coos[k] = build(2000)
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		m := coos[next].ToCSR()
		next++
		if m.NNZ() != 3*2000-2 {
			t.Fatal("wrong nnz")
		}
	})
	if allocs > 4 {
		t.Fatalf("ToCSR allocations scale with rows: %v allocs for 2000 rows", allocs)
	}
}

func TestMulVecDimsPanic(t *testing.T) {
	m := tridiag(3)
	for name, fn := range map[string]func(){
		"mulvec": func() { m.MulVec(make([]float64, 2), make([]float64, 3)) },
		"matmul": func() { m.MatMul(identity(4)) },
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

// toCSRCopying is ToCSR as it was before the merge went in place — bucket
// through a separate cursor array, then copy each sorted row into fresh
// ColIdx/Val arrays — kept as the oracle TestToCSRMatchesCopyingOracle
// holds the in-place merge to, bit for bit.
func toCSRCopying(c *COO) *CSR {
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

// sameBits reports whether two CSR matrices have the same shape, row
// pointers, column indices and value bits (so -0 and NaN payloads count).
func sameBits(a, b *CSR) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols || !reflect.DeepEqual(a.RowPtr, b.RowPtr) ||
		!reflect.DeepEqual(a.ColIdx, b.ColIdx) || len(a.Val) != len(b.Val) {
		return false
	}
	for k := range a.Val {
		if math.Float64bits(a.Val[k]) != math.Float64bits(b.Val[k]) {
			return false
		}
	}
	return true
}

// TestToCSRMatchesCopyingOracle: the in-place merge builds the matrix the
// copying one did, bit for bit — duplicates summed in the same order — over
// random triplets with empty rows, heavy duplication, rows long enough for
// sortRowPairs' quicksort branch and signed zeros, and keeps no more bytes.
// Half the inputs add their rows in non-decreasing order, and some of those
// reserve exactly: then, and only then, the CSR takes over the builder's
// column and value arrays instead of bucketing them. ToCSR consumes the
// triplets, so the oracle reads them first.
func TestToCSRMatchesCopyingOracle(t *testing.T) {
	takeovers := 0
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+rng.Intn(12), 1+rng.Intn(40)
		n := rng.Intn(300)
		type triplet struct {
			i, j int
			v    float64
		}
		ts := make([]triplet, n)
		for k := range ts {
			v := rng.NormFloat64()
			switch rng.Intn(8) {
			case 0:
				v = math.Copysign(0, -1)
			case 1:
				v = float64(rng.Intn(3))
			}
			ts[k] = triplet{rng.Intn(rows), rng.Intn(cols), v}
		}
		byRow := func(a, b triplet) int { return a.i - b.i }
		if rng.Intn(2) == 0 {
			slices.SortStableFunc(ts, byRow)
		}
		c := NewCOO(rows, cols)
		if rng.Intn(2) == 0 {
			c.Reserve(n)
		} else if rng.Intn(2) == 0 {
			c.Reserve(n + 1 + rng.Intn(8)) // spare capacity: bucketed
		}
		for _, e := range ts {
			c.Add(e.i, e.j, e.v)
		}
		j, exact := c.j, cap(c.v) == n
		want := toCSRCopying(c)
		got := c.ToCSR()
		tookOver := n > 0 && &got.ColIdx[:1][0] == &j[0]
		if tookOver {
			takeovers++
		}
		return got.Validate() == nil && sameBits(got, want) &&
			cap(got.ColIdx) <= cap(want.ColIdx) && cap(got.Val) <= cap(want.Val) &&
			tookOver == (slices.IsSortedFunc(ts, byRow) && exact && n > 0) && c.v == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	if takeovers == 0 {
		t.Fatal("no input took the takeover branch")
	}
}

// TestCOOGrowthBytes pins the COO's growth: adding N triplets allocates at
// most twice the bytes of the final triplet arrays, and their capacity is
// under 2N. Growth by doubling allocates 64 + 128 + ... + cap < 2 cap;
// append's own growth, about 1.25x a step past 256 elements, costs about
// five times the final arrays.
func TestCOOGrowthBytes(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, n := range []int{1, 1000, 1 << 16, 1<<16 + 1, 111_000} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c := NewCOO(n, n)
		for k := 0; k < n; k++ {
			c.Add(k, n-1-k, float64(k))
		}
		runtime.ReadMemStats(&after)
		final := uint64(cap(c.i)+cap(c.j))*8 + uint64(cap(c.v))*8
		got := after.TotalAlloc - before.TotalAlloc
		if got > 2*final+1024 {
			t.Errorf("N=%d: adding the triplets allocated %d bytes, over twice the final arrays' %d", n, got, final)
		}
		if cap(c.v) > max(2*n, 64) || cap(c.i) != cap(c.v) || cap(c.j) != cap(c.v) {
			t.Errorf("N=%d: capacities %d/%d/%d, want one capacity under max(2N, 64)", n, cap(c.i), cap(c.j), cap(c.v))
		}
	}
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
