package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func residual(a *CSR, x, b []float64) float64 {
	r := make([]float64, a.Rows)
	a.MulVec(x, r)
	var acc float64
	for i := range r {
		d := r[i] - b[i]
		acc += d * d
	}
	return math.Sqrt(acc)
}

func TestILU0ExactForTridiagonal(t *testing.T) {
	// The [-1 2 -1] tridiagonal has no fill-in, so ILU(0) is the exact LU
	// and the preconditioner solve is a direct solve.
	n := 20
	a := tridiag(n)
	f, err := ILU0(a)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = float64(i%3) + 1
	}
	x := make([]float64, n)
	f.Solve(b, x)
	if r := residual(a, x, b); r > 1e-10 {
		t.Fatalf("ILU0 on tridiagonal not exact: residual %g", r)
	}
}

func TestILU0ReducesResidual(t *testing.T) {
	// For general SPD matrices, one ILU0 application must be a good
	// approximate inverse: ||A z - b|| << ||b|| for z = ILU\b.
	a := randomSPD(40, 3)
	f, err := ILU0(a)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, 40)
	for i := range b {
		b[i] = 1
	}
	z := make([]float64, 40)
	f.Solve(b, z)
	if r := residual(a, z, b); r > 0.5*math.Sqrt(40) {
		t.Fatalf("ILU0 poor approximation: residual %g", r)
	}
}

func TestILU0MissingDiagonal(t *testing.T) {
	c := NewCOO(2, 2)
	c.Add(0, 1, 1)
	c.Add(1, 0, 1)
	if _, err := ILU0(c.ToCSR()); err == nil {
		t.Fatal("missing diagonal must fail")
	}
}

func TestILU0ZeroPivot(t *testing.T) {
	c := NewCOO(2, 2)
	c.Add(0, 0, 0)
	c.Add(0, 1, 1)
	c.Add(1, 0, 1)
	c.Add(1, 1, 1)
	if _, err := ILU0(c.ToCSR()); err == nil {
		t.Fatal("zero pivot must fail")
	}
}

func TestILU0RequiresSquare(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	_, _ = ILU0(&CSR{Rows: 2, Cols: 3, RowPtr: []int{0, 0, 0}})
}

func TestSparseLUSolvesExactly(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(15)
		a := randomSPD(n, seed)
		want := make([]float64, n)
		for i := range want {
			want[i] = rng.NormFloat64()
		}
		b := make([]float64, n)
		a.MulVec(want, b)
		lu, err := FactorLU(a)
		if err != nil {
			return false
		}
		got := lu.Solve(b)
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSparseLUNeedsPivoting(t *testing.T) {
	// Zero leading diagonal forces a row swap.
	c := NewCOO(2, 2)
	c.Add(0, 1, 1)
	c.Add(1, 0, 2)
	c.Add(1, 1, 1)
	a := c.ToCSR()
	lu, err := FactorLU(a)
	if err != nil {
		t.Fatal(err)
	}
	x := lu.Solve([]float64{3, 5})
	// x1 = 3; 2*x0 + x1 = 5 -> x0 = 1
	if math.Abs(x[0]-1) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Fatalf("x = %v", x)
	}
}

func TestSparseLUSingular(t *testing.T) {
	c := NewCOO(2, 2)
	c.Add(0, 0, 1)
	c.Add(0, 1, 2)
	c.Add(1, 0, 2)
	c.Add(1, 1, 4)
	if _, err := FactorLU(c.ToCSR()); err == nil {
		t.Fatal("singular must fail")
	}
}

func TestSparseLUWithFillIn(t *testing.T) {
	// Arrowhead matrix generates maximal fill; LU must still be exact.
	n := 12
	c := NewCOO(n, n)
	for i := 0; i < n; i++ {
		c.Add(i, i, 4)
		if i > 0 {
			c.Add(0, i, 1)
			c.Add(i, 0, 1)
		}
	}
	a := c.ToCSR()
	lu, err := FactorLU(a)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, n)
	for i := range want {
		want[i] = float64(i + 1)
	}
	b := make([]float64, n)
	a.MulVec(want, b)
	got := lu.Solve(b)
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("x[%d] = %g want %g", i, got[i], want[i])
		}
	}
}

// Property: ILU0 of a lower+upper triangular-complete pattern reproduces A
// exactly when A has a full LU with no fill (tridiagonal family, scaled).
func TestILU0TridiagonalFamilyQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		c := NewCOO(n, n)
		for i := 0; i < n; i++ {
			c.Add(i, i, 3+rng.Float64())
			if i > 0 {
				c.Add(i, i-1, -1+0.2*rng.Float64())
			}
			if i < n-1 {
				c.Add(i, i+1, -1+0.2*rng.Float64())
			}
		}
		a := c.ToCSR()
		f0, err := ILU0(a)
		if err != nil {
			return false
		}
		want := make([]float64, n)
		for i := range want {
			want[i] = rng.NormFloat64()
		}
		b := make([]float64, n)
		a.MulVec(want, b)
		x := make([]float64, n)
		f0.Solve(b, x)
		for i := range x {
			if math.Abs(x[i]-want[i]) > 1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
