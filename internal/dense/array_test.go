package dense

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestZerosFullShape(t *testing.T) {
	a := Zeros[float64](2, 3)
	if a.NDim() != 2 || a.Size() != 6 || a.Dim(0) != 2 || a.Dim(1) != 3 {
		t.Fatalf("shape wrong: %v", a.Shape())
	}
	b := Full[int64](7, 4)
	for i := 0; i < 4; i++ {
		if b.At(i) != 7 {
			t.Fatalf("Full content wrong at %d", i)
		}
	}
}

func TestFromSliceAliases(t *testing.T) {
	buf := []float64{1, 2, 3, 4}
	a := FromSlice(buf, 2, 2)
	buf[0] = 99
	if a.At(0, 0) != 99 {
		t.Fatal("FromSlice must alias the input")
	}
	a.Set(5, 1, 1)
	if buf[3] != 5 {
		t.Fatal("Set must write through to the buffer")
	}
}

func TestFromSliceSizeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSlice([]float64{1, 2, 3}, 2, 2)
}

func TestNegativeShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Zeros[float64](2, -1)
}

func TestAtSetRoundTrip(t *testing.T) {
	a := Zeros[float64](3, 4, 5)
	a.Set(3.5, 1, 2, 3)
	if a.At(1, 2, 3) != 3.5 {
		t.Fatal("At/Set round trip failed")
	}
	if a.At(0, 0, 0) != 0 {
		t.Fatal("other elements disturbed")
	}
}

func TestIndexValidation(t *testing.T) {
	a := Zeros[float64](2, 3)
	for name, fn := range map[string]func(){
		"too-few":  func() { a.At(1) },
		"too-many": func() { a.At(1, 1, 1) },
		"neg":      func() { a.At(-1, 0) },
		"big":      func() { a.At(0, 3) },
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

func TestSliceBasic(t *testing.T) {
	a := FromSlice([]float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 10)
	s := a.Slice(0, Range{2, 7, 1})
	if !reflect.DeepEqual(s.Flatten(), []float64{2, 3, 4, 5, 6}) {
		t.Fatalf("slice = %v", s.Flatten())
	}
	// Views alias.
	s.Set(99, 0)
	if a.At(2) != 99 {
		t.Fatal("slice must be a view")
	}
}

func TestSliceStep(t *testing.T) {
	a := Arange[float64](10)
	s := a.Slice(0, Range{1, 9, 3})
	if !reflect.DeepEqual(s.Flatten(), []float64{1, 4, 7}) {
		t.Fatalf("stepped slice = %v", s.Flatten())
	}
}

func TestSliceNegativeStep(t *testing.T) {
	a := Arange[float64](5)
	s := a.Slice(0, Range{4, -6, -1}) // full reverse: a[::-1]
	if !reflect.DeepEqual(s.Flatten(), []float64{4, 3, 2, 1, 0}) {
		t.Fatalf("reversed = %v", s.Flatten())
	}
	s2 := a.Slice(0, Range{3, 0, -2})
	if !reflect.DeepEqual(s2.Flatten(), []float64{3, 1}) {
		t.Fatalf("neg-step = %v", s2.Flatten())
	}
}

func TestSliceNegativeIndices(t *testing.T) {
	// The paper's y[1:] - y[:-1] idiom.
	a := Arange[float64](6)
	head := a.Slice(0, Range{0, -1, 1})
	tail := a.Slice(0, Range{1, 6, 1})
	if !reflect.DeepEqual(head.Flatten(), []float64{0, 1, 2, 3, 4}) {
		t.Fatalf("y[:-1] = %v", head.Flatten())
	}
	if !reflect.DeepEqual(tail.Flatten(), []float64{1, 2, 3, 4, 5}) {
		t.Fatalf("y[1:] = %v", tail.Flatten())
	}
}

func TestSliceClamping(t *testing.T) {
	a := Arange[float64](4)
	s := a.Slice(0, Range{0, 100, 1})
	if s.Size() != 4 {
		t.Fatalf("overlong slice size=%d", s.Size())
	}
	s2 := a.Slice(0, Range{3, 1, 1}) // empty
	if s2.Size() != 0 {
		t.Fatalf("inverted slice size=%d", s2.Size())
	}
}

func TestSliceZeroStepPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Arange[float64](4).Slice(0, Range{0, 4, 0})
}

func TestSliceND2D(t *testing.T) {
	a := FromSlice([]float64{
		0, 1, 2, 3,
		4, 5, 6, 7,
		8, 9, 10, 11,
	}, 3, 4)
	s := a.SliceND([]Range{{1, 3, 1}, {0, 4, 2}})
	want := []float64{4, 6, 8, 10}
	if !reflect.DeepEqual(s.Flatten(), want) {
		t.Fatalf("2d slice = %v want %v", s.Flatten(), want)
	}
	if s.IsContiguous() {
		t.Fatal("strided 2d slice should be non-contiguous")
	}
}

func TestContiguity(t *testing.T) {
	a := Zeros[float64](3, 4)
	if !a.IsContiguous() {
		t.Fatal("fresh array contiguous")
	}
	if a.Slice(0, Range{0, 3, 2}).IsContiguous() {
		t.Fatal("strided slice not contiguous")
	}
	// Slicing whole rows stays contiguous.
	if !a.Slice(0, Range{1, 3, 1}).IsContiguous() {
		t.Fatal("row-block slice contiguous")
	}
}

func TestRawFlattenClone(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 4)
	if !reflect.DeepEqual(a.Raw(), []float64{1, 2, 3, 4}) {
		t.Fatal("Raw")
	}
	s := a.Slice(0, Range{0, 4, 2})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Raw on view should panic")
			}
		}()
		s.Raw()
	}()
	if !reflect.DeepEqual(s.Flatten(), []float64{1, 3}) {
		t.Fatal("Flatten")
	}
	c := s.Clone()
	c.Set(99, 0)
	if a.At(0) == 99 {
		t.Fatal("Clone must not alias")
	}
}

func TestFillAndCopyFrom(t *testing.T) {
	a := Zeros[float64](2, 3)
	a.Fill(5)
	if Sum(a) != 30 {
		t.Fatal("Fill")
	}
	// Fill through a non-contiguous view touches only the view.
	b := Arange[float64](10)
	b.Slice(0, Range{0, 10, 2}).Fill(0)
	if !reflect.DeepEqual(b.Flatten(), []float64{0, 1, 0, 3, 0, 5, 0, 7, 0, 9}) {
		t.Fatalf("strided fill = %v", b.Flatten())
	}
	dst := Zeros[float64](5)
	dst.CopyFrom(b.Slice(0, Range{0, 10, 2}))
	if !reflect.DeepEqual(dst.Flatten(), []float64{0, 0, 0, 0, 0}) {
		t.Fatalf("CopyFrom strided = %v", dst.Flatten())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("shape mismatch CopyFrom should panic")
			}
		}()
		dst.CopyFrom(Zeros[float64](4))
	}()
}

func TestEachIndexed(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	var got [][]int
	a.EachIndexed(func(idx []int, v float64) {
		cp := make([]int, len(idx))
		copy(cp, idx)
		got = append(got, cp)
	})
	want := [][]int{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("order = %v", got)
	}
}

func TestLinspace(t *testing.T) {
	a := Linspace[float64](1, 2, 5)
	want := []float64{1, 1.25, 1.5, 1.75, 2}
	if !reflect.DeepEqual(a.Flatten(), want) {
		t.Fatalf("linspace = %v", a.Flatten())
	}
	if Linspace[float64](0, 1, 0).Size() != 0 {
		t.Fatal("empty linspace")
	}
	one := Linspace[float64](3, 9, 1)
	if one.At(0) != 3 {
		t.Fatal("single-point linspace is lo")
	}
}

func TestArangeTypes(t *testing.T) {
	if Arange[int64](4).At(3) != 3 {
		t.Fatal("int64")
	}
	if Arange[float32](4).At(2) != 2 {
		t.Fatal("float32")
	}
	if Arange[complex128](3).At(2) != 2+0i {
		t.Fatal("complex128")
	}
	if Arange[complex64](3).At(1) != 1 {
		t.Fatal("complex64")
	}
	if Arange[int32](3).At(2) != 2 {
		t.Fatal("int32")
	}
}

func TestString(t *testing.T) {
	small := Arange[int64](3)
	if small.String() == "" {
		t.Fatal("small String")
	}
	big := Zeros[float64](100)
	if big.String() == "" {
		t.Fatal("big String")
	}
}

// Property: slicing then flattening matches direct index arithmetic.
func TestSlicePropertyQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		a := Arange[float64](n)
		start := rng.Intn(n)
		stop := rng.Intn(n + 1)
		step := 1 + rng.Intn(4)
		s := a.Slice(0, Range{start, stop, step})
		var want []float64
		for i := start; i < stop; i += step {
			want = append(want, float64(i))
		}
		got := s.Flatten()
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestZeroSizedArrays(t *testing.T) {
	a := Zeros[float64](0)
	if a.Size() != 0 || len(a.Flatten()) != 0 {
		t.Fatal("empty array")
	}
	a.Each(func(float64) { t.Fatal("Each on empty must not fire") })
	b := Zeros[float64](3, 0, 2)
	if b.Size() != 0 {
		t.Fatal("zero-dim product")
	}
}

// String renders small arrays fully and large ones by shape only.
func (a *Array[T]) String() string {
	if a.Size() > 64 {
		return fmt.Sprintf("Array%v{...%d elements}", a.shape, a.Size())
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Array%v[", a.shape)
	first := true
	a.Each(func(v T) {
		if !first {
			b.WriteByte(' ')
		}
		first = false
		fmt.Fprintf(&b, "%v", v)
	})
	b.WriteByte(']')
	return b.String()
}
