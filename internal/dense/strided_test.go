package dense

import (
	"math"
	"testing"

	"odinhpc/internal/exec"
)

// These tests pin the strided/non-contiguous behaviour of the whole-array
// reductions and ufunc loops on sliced, transposed, and negative-step views
// — both on the serial engine and on multi-worker engines whose grain
// forces the chunked strided path.

// withEngine runs f with the process-wide engine replaced, restoring it.
func withEngine(t *testing.T, workers, grain int, f func()) {
	t.Helper()
	old := exec.Default()
	exec.SetDefault(exec.New(exec.WithWorkers(workers), exec.WithGrain(grain)))
	defer exec.SetDefault(old)
	f()
}

// stridedViews returns interesting non-contiguous views of a fresh 24x17
// counting matrix, with names.
func stridedViews() map[string]*Array[float64] {
	base := Zeros[float64](24, 17)
	raw := base.Raw()
	for i := range raw {
		raw[i] = float64(i%101) - 50.0 // mixed signs, repeats
	}
	return map[string]*Array[float64]{
		"transpose":     base.Transpose(),
		"step2":         base.Slice(0, Range{0, 24, 2}),
		"inner-block":   base.SliceND([]Range{{3, 21, 1}, {2, 15, 1}}),
		"neg-step":      base.Slice(1, Range{16, -18, -1}),
		"both-strided":  base.SliceND([]Range{{22, 1, -3}, {0, 17, 2}}),
		"col-as-vector": base.Col(5),
		"row-rev":       base.Row(7).Slice(0, Range{16, -18, -1}),
	}
}

// refSum/refAbsSum/etc compute references through the index interface only.
func refStats(a *Array[float64]) (sum, sumsq, asum, amax, min, max float64) {
	first := true
	a.EachIndexed(func(_ []int, v float64) {
		sum += v
		sumsq += v * v
		asum += math.Abs(v)
		if av := math.Abs(v); av > amax {
			amax = av
		}
		if first || v < min {
			min = v
		}
		if first || v > max {
			max = v
		}
		first = false
	})
	return
}

func TestStridedReductions(t *testing.T) {
	for _, cfg := range [][2]int{{1, 4096}, {4, 16}, {7, 7}} {
		withEngine(t, cfg[0], cfg[1], func() {
			for name, v := range stridedViews() {
				sum, sumsq, asum, amax, min, max := refStats(v)
				tol := 1e-12 * (math.Abs(sum) + asum + 1)
				if got := Sum(v); math.Abs(got-sum) > tol {
					t.Errorf("w=%d %s: Sum = %g, want %g", cfg[0], name, got, sum)
				}
				if got := Norm2(v); math.Abs(got-math.Sqrt(sumsq)) > tol {
					t.Errorf("w=%d %s: Norm2 = %g, want %g", cfg[0], name, got, math.Sqrt(sumsq))
				}
				if got := Norm1(v); math.Abs(got-asum) > tol {
					t.Errorf("w=%d %s: Norm1 = %g, want %g", cfg[0], name, got, asum)
				}
				if got := NormInf(v); got != amax {
					t.Errorf("w=%d %s: NormInf = %g, want %g", cfg[0], name, got, amax)
				}
				if got := Min(v); got != min {
					t.Errorf("w=%d %s: Min = %g, want %g", cfg[0], name, got, min)
				}
				if got := Max(v); got != max {
					t.Errorf("w=%d %s: Max = %g, want %g", cfg[0], name, got, max)
				}
				nneg := 0
				v.Each(func(x float64) {
					if x < 0 {
						nneg++
					}
				})
				if got := Count(v, func(x float64) bool { return x < 0 }); got != nneg {
					t.Errorf("w=%d %s: Count = %d, want %d", cfg[0], name, got, nneg)
				}
			}
		})
	}
}

func TestStridedDot(t *testing.T) {
	base := Zeros[float64](40, 9)
	raw := base.Raw()
	for i := range raw {
		raw[i] = math.Sin(float64(i))
	}
	col := base.Col(3)                              // stride 9
	rev := base.Col(4).Slice(0, Range{39, -41, -1}) // negative stride, full reversal
	var want float64
	for i := 0; i < 40; i++ {
		want += base.At(i, 3) * base.At(39-i, 4)
	}
	for _, cfg := range [][2]int{{1, 4096}, {4, 8}} {
		withEngine(t, cfg[0], cfg[1], func() {
			if got := Dot(col, rev); math.Abs(got-want) > 1e-12 {
				t.Errorf("w=%d: Dot = %g, want %g", cfg[0], got, want)
			}
		})
	}
}

func TestStridedArgMinMax(t *testing.T) {
	v := stridedViews()["both-strided"]
	flat := v.Flatten()
	wantMin, wantMax := 0, 0
	for i, x := range flat {
		if x < flat[wantMin] {
			wantMin = i
		}
		if x > flat[wantMax] {
			wantMax = i
		}
	}
	if got := ArgMin(v); got != wantMin {
		t.Errorf("ArgMin = %d, want %d", got, wantMin)
	}
	if got := ArgMax(v); got != wantMax {
		t.Errorf("ArgMax = %d, want %d", got, wantMax)
	}
}

func TestStridedUfuncInto(t *testing.T) {
	for _, cfg := range [][2]int{{1, 4096}, {4, 16}} {
		withEngine(t, cfg[0], cfg[1], func() {
			src := stridedViews()["both-strided"]
			dst := Zeros[float64](src.Shape()...).Transpose().Transpose() // contiguous but exercises shape copy
			UnaryInto(dst, src, func(v float64) float64 { return 2 * v })
			src.EachIndexed(func(idx []int, v float64) {
				if got := dst.At(idx...); got != 2*v {
					t.Fatalf("w=%d: UnaryInto at %v = %g, want %g", cfg[0], idx, got, 2*v)
				}
			})

			a := stridedViews()["transpose"]
			b := stridedViews()["transpose"]
			out := Zeros[float64](a.Shape()...)
			outView := out.Slice(0, Range{0, a.Dim(0), 1}) // same shape, still a view
			BinaryInto(outView, a, b, func(x, y float64) float64 { return x + y })
			a.EachIndexed(func(idx []int, v float64) {
				if got := out.At(idx...); got != 2*v {
					t.Fatalf("w=%d: BinaryInto at %v = %g, want %g", cfg[0], idx, got, 2*v)
				}
			})
		})
	}
}

// A large 1-d negative-step view crosses many chunks; the chunked walker on
// four workers must agree bitwise with the one-worker engine, which walks
// the same chunks on the caller, for element-wise ops and sums alike.
func TestLargeStridedViewAcrossChunks(t *testing.T) {
	n := 50_000
	base := Linspace[float64](0, 1, 2*n)
	view := base.Slice(0, Range{2*n - 1, -(2*n + 1), -2}) // every other element, reversed
	var serialSum float64
	var serialOut *Array[float64]
	withEngine(t, 1, 1024, func() {
		serialSum = Sum(view)
		serialOut = Unary(view, math.Sqrt)
	})
	withEngine(t, 4, 1024, func() {
		if got := Sum(view); math.Float64bits(got) != math.Float64bits(serialSum) {
			t.Errorf("parallel strided Sum = %g, one worker %g", got, serialSum)
		}
		out := Unary(view, math.Sqrt)
		if !out.Equal(serialOut) {
			t.Error("parallel strided Unary differs bitwise from serial")
		}
	})
}
