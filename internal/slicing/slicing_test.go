package slicing

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"odinhpc/internal/comm"
	"odinhpc/internal/core"
	"odinhpc/internal/dense"
	"odinhpc/internal/distmap"
	"odinhpc/internal/ufunc"
)

func onRanks(t *testing.T, ps []int, fn func(ctx *core.Context) error) {
	t.Helper()
	for _, p := range ps {
		err := comm.Run(p, func(c *comm.Comm) error { return fn(core.NewContext(c)) })
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

var sizes = []int{1, 2, 3, 4}

func TestSliceMatchesSerial(t *testing.T) {
	onRanks(t, sizes, func(ctx *core.Context) error {
		n := 31
		x := core.FromFunc(ctx, []int{n}, func(g []int) float64 { return float64(g[0] * g[0]) })
		for _, r := range []dense.Range{
			{Start: 0, Stop: n, Step: 1},
			{Start: 5, Stop: 20, Step: 1},
			{Start: 1, Stop: n, Step: 3},
			{Start: 0, Stop: -1, Step: 1},  // x[:-1]
			{Start: 1, Stop: n, Step: 1},   // x[1:]
			{Start: 10, Stop: 5, Step: 1},  // empty
			{Start: 0, Stop: 500, Step: 2}, // clamped
		} {
			got := Slice(x, r).Gather()
			want := dense.Arange[float64](n)
			want = dense.Unary(want, func(v float64) float64 { return v * v }).Slice(0, r)
			if got.Size() != want.Size() {
				return fmt.Errorf("range %+v: size %d want %d", r, got.Size(), want.Size())
			}
			gf, wf := got.Flatten(), want.Flatten()
			for i := range gf {
				if gf[i] != wf[i] {
					return fmt.Errorf("range %+v: [%d]=%g want %g", r, i, gf[i], wf[i])
				}
			}
		}
		return nil
	})
}

func TestSliceFromCyclicSource(t *testing.T) {
	onRanks(t, []int{3}, func(ctx *core.Context) error {
		n := 20
		x := core.FromFunc(ctx, []int{n}, func(g []int) float64 { return float64(g[0]) },
			core.Options{Kind: distmap.Cyclic})
		got := Slice(x, dense.Range{Start: 3, Stop: 17, Step: 2}).Gather()
		want := []float64{3, 5, 7, 9, 11, 13, 15}
		for i, w := range want {
			if got.At(i) != w {
				return fmt.Errorf("[%d]=%g want %g", i, got.At(i), w)
			}
		}
		return nil
	})
}

func TestSlice2DSlabs(t *testing.T) {
	onRanks(t, []int{2}, func(ctx *core.Context) error {
		x := core.FromFunc(ctx, []int{9, 3}, func(g []int) float64 { return float64(10*g[0] + g[1]) })
		got := Slice(x, dense.Range{Start: 2, Stop: 8, Step: 2}).Gather()
		if got.Dim(0) != 3 || got.Dim(1) != 3 {
			return fmt.Errorf("shape %v", got.Shape())
		}
		for i, row := range []int{2, 4, 6} {
			for j := 0; j < 3; j++ {
				if got.At(i, j) != float64(10*row+j) {
					return fmt.Errorf("[%d,%d]=%g", i, j, got.At(i, j))
				}
			}
		}
		return nil
	})
}

// TestDiffFiniteDifference reproduces the paper's §III.G example end to end:
// x = linspace(1, 2pi, n); y = sin(x); dydx = (y[1:]-y[:-1]) / dx.
func TestDiffFiniteDifference(t *testing.T) {
	onRanks(t, sizes, func(ctx *core.Context) error {
		n := 200
		x := core.Linspace[float64](ctx, 1, 2*math.Pi, n)
		y := core.WithLocalLike[float64](x, dense.Unary(x.Local(), math.Sin))
		dy := Diff(y)
		if dy.GlobalSize() != n-1 {
			return fmt.Errorf("len %d", dy.GlobalSize())
		}
		dx := (2*math.Pi - 1) / float64(n-1)
		full := dy.Gather()
		for g := 0; g < n-1; g++ {
			xg := 1 + float64(g)*dx
			want := math.Sin(xg+dx) - math.Sin(xg)
			if math.Abs(full.At(g)-want) > 1e-12 {
				return fmt.Errorf("dy[%d]=%g want %g", g, full.At(g), want)
			}
			// The derivative approximation itself.
			if math.Abs(full.At(g)/dx-math.Cos(xg+dx/2)) > 1e-3 {
				return fmt.Errorf("dydx[%d] inaccurate", g)
			}
		}
		return nil
	})
}

func TestDiffBoundaryOnlyCommunication(t *testing.T) {
	// E4: halo bytes are 8*(P-1) plus nothing proportional to N.
	for _, n := range []int{1000, 100000} {
		stats, err := comm.RunStats(4, func(c *comm.Comm) error {
			ctx := core.NewContext(c)
			ctx.SetControlMessages(false)
			x := core.Random(ctx, []int{n}, 1)
			c.Barrier()
			if c.Rank() == 0 {
				c.ResetStats()
			}
			c.Barrier()
			_ = Diff(x)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		// 3 halo sends of 8 bytes plus barrier noise.
		if got := stats.Snapshot().TotalBytes(); got > 200 {
			t.Fatalf("n=%d: Diff moved %d bytes; halo exchange must be O(P)", n, got)
		}
	}
}

func TestShiftDiffWideHalo(t *testing.T) {
	onRanks(t, sizes, func(ctx *core.Context) error {
		n := 40
		x := core.FromFunc(ctx, []int{n}, func(g []int) float64 { return float64(g[0] * g[0]) })
		for _, k := range []int{1, 2, 5} {
			dy := ShiftDiff(x, k)
			if dy.GlobalSize() != n-k {
				return fmt.Errorf("k=%d: len %d", k, dy.GlobalSize())
			}
			full := dy.Gather()
			for g := 0; g < n-k; g++ {
				want := float64((g+k)*(g+k) - g*g)
				if full.At(g) != want {
					return fmt.Errorf("k=%d: [%d]=%g want %g", k, g, full.At(g), want)
				}
			}
		}
		return nil
	})
}

func TestShiftDiffFallbackHugeShift(t *testing.T) {
	// Shift wider than any local block forces the general path but must
	// produce identical values.
	onRanks(t, []int{4}, func(ctx *core.Context) error {
		n := 16
		x := core.FromFunc(ctx, []int{n}, func(g []int) float64 { return float64(g[0]) })
		dy := ShiftDiff(x, 9) // local blocks are 4 wide
		if dy.GlobalSize() != 7 {
			return fmt.Errorf("len %d", dy.GlobalSize())
		}
		full := dy.Gather()
		for g := 0; g < 7; g++ {
			if full.At(g) != 9 {
				return fmt.Errorf("[%d]=%g", g, full.At(g))
			}
		}
		return nil
	})
}

func TestShiftDiffCyclicFallsBack(t *testing.T) {
	onRanks(t, []int{3}, func(ctx *core.Context) error {
		n := 15
		x := core.FromFunc(ctx, []int{n}, func(g []int) float64 { return float64(g[0]) * 3 },
			core.Options{Kind: distmap.Cyclic})
		dy := Diff(x)
		full := dy.Gather()
		for g := 0; g < n-1; g++ {
			if full.At(g) != 3 {
				return fmt.Errorf("[%d]=%g", g, full.At(g))
			}
		}
		return nil
	})
}

func TestShiftDiffValidation(t *testing.T) {
	onRanks(t, []int{2}, func(ctx *core.Context) error {
		x := core.Zeros[float64](ctx, []int{8})
		for name, fn := range map[string]func(){
			"k0":    func() { ShiftDiff(x, 0) },
			"kbig":  func() { ShiftDiff(x, 8) },
			"2d":    func() { ShiftDiff(core.Zeros[float64](ctx, []int{2, 2}), 1) },
			"step0": func() { Slice(x, dense.Range{Start: 0, Stop: 4, Step: 0}) },
		} {
			ok := func() (ok bool) {
				defer func() { ok = recover() != nil }()
				fn()
				return false
			}()
			if !ok {
				return fmt.Errorf("%s: expected panic", name)
			}
		}
		return nil
	})
}

// Property: Diff equals the serial NumPy-semantics result for random sizes,
// distributions, and rank counts.
func TestDiffEquivalenceQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(80)
		p := 1 + rng.Intn(4)
		k := 1 + rng.Intn(n-1)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.NormFloat64()
		}
		ok := true
		err := comm.Run(p, func(c *comm.Comm) error {
			ctx := core.NewContext(c)
			x := core.FromFunc(ctx, []int{n}, func(g []int) float64 { return vals[g[0]] })
			got := ShiftDiff(x, k).Gather()
			for g := 0; g < n-k; g++ {
				if math.Abs(got.At(g)-(vals[g+k]-vals[g])) > 1e-14 {
					return fmt.Errorf("mismatch at %d", g)
				}
			}
			return nil
		})
		if err != nil {
			ok = false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestShiftMatchesSerial(t *testing.T) {
	onRanks(t, sizes, func(ctx *core.Context) error {
		n := 23
		x := core.FromFunc(ctx, []int{n}, func(g []int) float64 { return float64(g[0] + 1) })
		for _, k := range []int{0, 1, -1, 3, -5, n - 1, -(n - 1), n + 4} {
			got := Shift(x, k, -9).Gather()
			for g := 0; g < n; g++ {
				want := -9.0
				if src := g + k; src >= 0 && src < n {
					want = float64(src + 1)
				}
				if got.At(g) != want {
					return fmt.Errorf("k=%d: [%d]=%g want %g", k, g, got.At(g), want)
				}
			}
		}
		return nil
	})
}

func TestShift2DAndCyclic(t *testing.T) {
	onRanks(t, []int{3}, func(ctx *core.Context) error {
		x := core.FromFunc(ctx, []int{6, 2}, func(g []int) float64 { return float64(10*g[0] + g[1]) },
			core.Options{Kind: distmap.Cyclic})
		got := Shift(x, 2, 0).Gather()
		for i := 0; i < 6; i++ {
			for j := 0; j < 2; j++ {
				want := 0.0
				if i+2 < 6 {
					want = float64(10*(i+2) + j)
				}
				if got.At(i, j) != want {
					return fmt.Errorf("[%d,%d]=%g want %g", i, j, got.At(i, j), want)
				}
			}
		}
		return nil
	})
}

// TestShiftHaloLocality: for a block layout and |k|=1, all data messages
// run between adjacent ranks only.
func TestShiftHaloLocality(t *testing.T) {
	stats, err := comm.RunStats(4, func(c *comm.Comm) error {
		ctx := core.NewContext(c)
		ctx.SetControlMessages(false)
		x := core.Random(ctx, []int{40_000}, 1)
		c.Barrier()
		if c.Rank() == 0 {
			c.ResetStats()
		}
		c.Barrier()
		_ = Shift(x, 1, 0)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := stats.Snapshot()
	for src := 0; src < 4; src++ {
		for dst := 0; dst < 4; dst++ {
			if src != dst && absInt(src-dst) > 1 && snap.ByteCount(src, dst) > 48 {
				t.Fatalf("non-neighbor traffic %d->%d: %d bytes", src, dst, snap.ByteCount(src, dst))
			}
		}
	}
	if snap.TotalBytes() > 1024 {
		t.Fatalf("shift moved %d bytes; expected O(P) halo", snap.TotalBytes())
	}
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// TestStencilViaShifts composes shifts with ufuncs into the classic
// 1-D three-point stencil and checks it against Diff-of-Diff.
func TestStencilViaShifts(t *testing.T) {
	onRanks(t, sizes, func(ctx *core.Context) error {
		n := 50
		u := core.FromFunc(ctx, []int{n}, func(g []int) float64 {
			x := float64(g[0]) / float64(n-1)
			return x * x
		})
		// lap[i] = u[i-1] - 2u[i] + u[i+1] (zero-filled boundaries).
		lap := ufunc.Add(
			ufunc.Sub(Shift(u, -1, 0), ufunc.Scalar(u, 2, func(v, s float64) float64 { return v * s })),
			Shift(u, 1, 0))
		// Interior values equal the second difference of x^2: 2/(n-1)^2.
		h := 1.0 / float64(n-1)
		want := 2 * h * h
		for g := 1; g < n-1; g++ {
			if got := lap.At(g); math.Abs(got-want) > 1e-12 {
				return fmt.Errorf("lap[%d]=%g want %g", g, got, want)
			}
		}
		return nil
	})
}

// TestSliceNegativeStep checks the reversed-slice semantics match dense
// (NumPy) behavior across distributions.
func TestSliceNegativeStep(t *testing.T) {
	onRanks(t, sizes, func(ctx *core.Context) error {
		n := 17
		x := core.FromFunc(ctx, []int{n}, func(g []int) float64 { return float64(g[0]) })
		serial := dense.Arange[float64](n)
		for _, r := range []dense.Range{
			{Start: n - 1, Stop: -n - 1, Step: -1}, // full reverse
			{Start: 10, Stop: 2, Step: -3},
			{Start: 5, Stop: 5, Step: -1},   // empty
			{Start: 500, Stop: 0, Step: -2}, // clamped start
		} {
			got := Slice(x, r).Gather()
			want := serial.Slice(0, r)
			if got.Size() != want.Size() {
				return fmt.Errorf("range %+v: size %d want %d", r, got.Size(), want.Size())
			}
			gf, wf := got.Flatten(), want.Flatten()
			for i := range gf {
				if gf[i] != wf[i] {
					return fmt.Errorf("range %+v: [%d]=%g want %g", r, i, gf[i], wf[i])
				}
			}
		}
		return nil
	})
}

func TestSliceIntArrays(t *testing.T) {
	onRanks(t, []int{2}, func(ctx *core.Context) error {
		x := core.Arange[int64](ctx, 10)
		got := Slice(x, dense.Range{Start: 2, Stop: 9, Step: 3}).Gather()
		want := []int64{2, 5, 8}
		for i, w := range want {
			if got.At(i) != w {
				return fmt.Errorf("[%d]=%d", i, got.At(i))
			}
		}
		d := Diff(x)
		for g := 0; g < 9; g++ {
			if d.At(g) != 1 {
				return fmt.Errorf("int diff")
			}
		}
		return nil
	})
}
