package dense

import (
	"math"
	"slices"
	"testing"

	"odinhpc/internal/exec"
)

// These tests pin the strided/non-contiguous behaviour of the whole-array
// reductions and ufunc loops on sliced, column and negative-step views
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
		"step2":        base.Slice(0, Range{0, 24, 2}),
		"inner-block":  base.SliceND([]Range{{3, 21, 1}, {2, 15, 1}}),
		"neg-step":     base.Slice(1, Range{16, -18, -1}),
		"both-strided": base.SliceND([]Range{{22, 1, -3}, {0, 17, 2}}),
		"column":       base.Slice(1, Range{5, 6, 1}),
		"row-rev":      base.SliceND([]Range{{7, 8, 1}, {16, -18, -1}}),
	}
}

// refStats computes references through the index interface only.
func refStats(a *Array[float64]) (sum, asum, min, max float64) {
	first := true
	a.EachIndexed(func(_ []int, v float64) {
		sum += v
		asum += math.Abs(v)
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
				sum, asum, min, max := refStats(v)
				tol := 1e-12 * (math.Abs(sum) + asum + 1)
				if got := Sum(v); math.Abs(got-sum) > tol {
					t.Errorf("w=%d %s: Sum = %g, want %g", cfg[0], name, got, sum)
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
	base := Zeros[float64](40 * 9) // a 40x9 matrix, row-major
	raw := base.Raw()
	for i := range raw {
		raw[i] = math.Sin(float64(i))
	}
	col := base.Slice(0, Range{3, 360, 9})     // column 3: stride 9
	rev := base.Slice(0, Range{355, -361, -9}) // column 4 reversed: negative stride
	var want float64
	for i := 0; i < 40; i++ {
		want += raw[i*9+3] * raw[(39-i)*9+4]
	}
	for _, cfg := range [][2]int{{1, 4096}, {4, 8}} {
		withEngine(t, cfg[0], cfg[1], func() {
			got := Dot(col, rev)
			if math.Abs(got-want) > 1e-12 {
				t.Errorf("w=%d: Dot = %g, want %g", cfg[0], got, want)
			}
			// At any stride, Dot sums in the level-1 lane order.
			if lanes := DotSlices(col.Flatten(), rev.Flatten()); math.Float64bits(got) != math.Float64bits(lanes) {
				t.Errorf("w=%d: strided Dot = %x, DotSlices of the same elements %x", cfg[0], math.Float64bits(got), math.Float64bits(lanes))
			}
		})
	}
}

func TestStridedUfuncInto(t *testing.T) {
	for _, cfg := range [][2]int{{1, 4096}, {4, 16}} {
		withEngine(t, cfg[0], cfg[1], func() {
			src := stridedViews()["both-strided"]
			dst := Zeros[float64](src.Shape()...)
			UnaryInto(dst, src, func(v float64) float64 { return 2 * v })
			src.EachIndexed(func(idx []int, v float64) {
				if got := dst.At(idx...); got != 2*v {
					t.Fatalf("w=%d: UnaryInto at %v = %g, want %g", cfg[0], idx, got, 2*v)
				}
			})

			a := stridedViews()["neg-step"]
			b := stridedViews()["neg-step"]
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
// the same chunks on the caller, for element-wise ops and sums alike, and
// the strided sum with the level-1 kernel's sum of the same elements.
func TestLargeStridedViewAcrossChunks(t *testing.T) {
	n := 50_000
	base := Linspace[float64](0, 1, 2*n)
	view := base.Slice(0, Range{2*n - 1, -(2*n + 1), -2}) // every other element, reversed
	var serialSum float64
	var serialOut *Array[float64]
	withEngine(t, 1, 1024, func() {
		serialSum = Sum(view)
		serialOut = Unary(view, math.Sqrt)
		if lanes := Sum(FromSlice(view.Flatten(), n)); math.Float64bits(lanes) != math.Float64bits(serialSum) {
			t.Errorf("strided Sum = %g, contiguous Sum of the same elements %g", serialSum, lanes)
		}
	})
	withEngine(t, 4, 1024, func() {
		if got := Sum(view); math.Float64bits(got) != math.Float64bits(serialSum) {
			t.Errorf("parallel strided Sum = %g, one worker %g", got, serialSum)
		}
		out := Unary(view, math.Sqrt)
		if !slices.Equal(out.Flatten(), serialOut.Flatten()) {
			t.Error("parallel strided Unary differs bitwise from serial")
		}
	})
}
