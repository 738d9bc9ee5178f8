package dense

import (
	"math"
	"reflect"
	"testing"
)

func TestUnary(t *testing.T) {
	a := FromSlice([]float64{1, 4, 9}, 3)
	got := Unary(a, math.Sqrt)
	if !reflect.DeepEqual(got.Flatten(), []float64{1, 2, 3}) {
		t.Fatalf("sqrt = %v", got.Flatten())
	}
	// Type-changing unary.
	ints := Unary(a, func(v float64) int64 { return int64(v) })
	if !reflect.DeepEqual(ints.Flatten(), []int64{1, 4, 9}) {
		t.Fatalf("cast = %v", ints.Flatten())
	}
}

func TestUnaryIntoStrided(t *testing.T) {
	a := Arange[float64](10)
	src := a.Slice(0, Range{0, 10, 2}) // 0 2 4 6 8
	dst := Zeros[float64](5)
	UnaryInto(dst, src, func(v float64) float64 { return v * 10 })
	if !reflect.DeepEqual(dst.Flatten(), []float64{0, 20, 40, 60, 80}) {
		t.Fatalf("got %v", dst.Flatten())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("shape mismatch should panic")
			}
		}()
		UnaryInto(Zeros[float64](4), src, func(v float64) float64 { return v })
	}()
}

func TestBinary(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3}, 3)
	b := FromSlice([]float64{10, 20, 30}, 3)
	got := Binary(a, b, func(x, y float64) float64 { return x + y })
	if !reflect.DeepEqual(got.Flatten(), []float64{11, 22, 33}) {
		t.Fatalf("add = %v", got.Flatten())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("shape mismatch should panic")
			}
		}()
		Binary(a, Zeros[float64](4), func(x, y float64) float64 { return x })
	}()
}

func TestBinaryIntoStridedViews(t *testing.T) {
	// The paper's dy = y[1:] - y[:-1] on the local level.
	y := FromSlice([]float64{0, 1, 4, 9, 16}, 5)
	hi := y.Slice(0, Range{1, 5, 1})
	lo := y.Slice(0, Range{0, -1, 1})
	dy := Binary(hi, lo, func(a, b float64) float64 { return a - b })
	if !reflect.DeepEqual(dy.Flatten(), []float64{1, 3, 5, 7}) {
		t.Fatalf("dy = %v", dy.Flatten())
	}
}

func TestScalarOp(t *testing.T) {
	a := Arange[float64](4)
	got := Scalar(a, 10, func(v, s float64) float64 { return v * s })
	if !reflect.DeepEqual(got.Flatten(), []float64{0, 10, 20, 30}) {
		t.Fatalf("scal = %v", got.Flatten())
	}
}

func TestReductions(t *testing.T) {
	a := FromSlice([]float64{3, -1, 4, 1, 5}, 5)
	if Sum(a) != 12 {
		t.Fatalf("Sum = %v", Sum(a))
	}
	if Prod(FromSlice([]float64{2, 3, 4}, 3)) != 24 {
		t.Fatal("Prod")
	}
	if Prod(Zeros[float64](0)) != 1 {
		t.Fatal("empty Prod identity")
	}
	if Min(a) != -1 || Max(a) != 5 {
		t.Fatalf("Min/Max = %v/%v", Min(a), Max(a))
	}
}

func TestReductionsEmptyPanics(t *testing.T) {
	empty := Zeros[float64](0)
	for name, fn := range map[string]func(){
		"min": func() { Min(empty) },
		"max": func() { Max(empty) },
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

func TestReduceAxis(t *testing.T) {
	a := FromSlice([]float64{
		1, 2, 3,
		4, 5, 6,
	}, 2, 3)
	rows := SumAxis(a, 1)
	if !reflect.DeepEqual(rows.Flatten(), []float64{6, 15}) {
		t.Fatalf("axis 1: %v", rows.Flatten())
	}
	cols := SumAxis(a, 0)
	if !reflect.DeepEqual(cols.Flatten(), []float64{5, 7, 9}) {
		t.Fatalf("axis 0: %v", cols.Flatten())
	}
	// Max along an axis via the general fold.
	mx := ReduceAxis(a, 0, math.Inf(-1), math.Max)
	if !reflect.DeepEqual(mx.Flatten(), []float64{4, 5, 6}) {
		t.Fatalf("max axis 0: %v", mx.Flatten())
	}
	// Reducing a 1-d array yields a 0-d scalar holder.
	v := FromSlice([]float64{2, 3, 4}, 3)
	s := SumAxis(v, 0)
	if s.NDim() != 0 || s.At() != 9 {
		t.Fatalf("0-d sum: ndim=%d val=%v", s.NDim(), s.At())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("bad axis should panic")
			}
		}()
		SumAxis(a, 2)
	}()
}

func TestCumSum(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 4)
	if !reflect.DeepEqual(CumSum(a).Flatten(), []float64{1, 3, 6, 10}) {
		t.Fatal("CumSum")
	}
}

func TestDot(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3}, 3)
	b := FromSlice([]float64{4, 5, 6}, 3)
	if Dot(a, b) != 32 {
		t.Fatalf("Dot = %v", Dot(a, b))
	}
	// Dot through strided views.
	x := Arange[float64](6)
	ev := x.Slice(0, Range{0, 6, 2}) // 0 2 4
	od := x.Slice(0, Range{1, 6, 2}) // 1 3 5
	if Dot(ev, od) != 0*1+2*3+4*5 {
		t.Fatal("strided Dot")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("length mismatch should panic")
			}
		}()
		Dot(a, Zeros[float64](4))
	}()
}

func TestWhereCount(t *testing.T) {
	a := FromSlice([]float64{1, -2, 3, -4}, 4)
	if Count(a, func(v float64) bool { return v > 0 }) != 2 {
		t.Fatal("Count")
	}
}

func TestAllClose(t *testing.T) {
	a := FromSlice([]float64{1, 2}, 2)
	b := FromSlice([]float64{1 + 1e-12, 2}, 2)
	if !AllClose(a, b, 1e-9, 1e-9) {
		t.Fatal("close arrays")
	}
	c := FromSlice([]float64{1.1, 2}, 2)
	if AllClose(a, c, 1e-9, 1e-9) {
		t.Fatal("distant arrays")
	}
	if AllClose(a, Zeros[float64](3), 1, 1) {
		t.Fatal("shape mismatch")
	}
	n := FromSlice([]float64{math.NaN(), 2}, 2)
	if AllClose(n, n, 1, 1) {
		t.Fatal("NaN never close")
	}
}

func TestAxpyScalDot(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{10, 20, 30}
	Axpy(2, x, y)
	if !reflect.DeepEqual(y, []float64{12, 24, 36}) {
		t.Fatalf("Axpy = %v", y)
	}
	Scal(0.5, y)
	if !reflect.DeepEqual(y, []float64{6, 12, 18}) {
		t.Fatalf("Scal = %v", y)
	}
	if DotSlices(x, x) != 14 {
		t.Fatal("DotSlices")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Axpy length mismatch should panic")
			}
		}()
		Axpy(1, x, []float64{1})
	}()
}
