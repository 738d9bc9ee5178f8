package dense

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"odinhpc/internal/exec"
)

// The level-1 kernels against their definition: each test below spells the
// lane order out again from its statement in level1.go — element i of a span
// into lane i mod 16, lanes folded (l_k + l_{4+k}) + (l_{8+k} + l_{12+k}),
// then (s_0 + s_2) + (s_1 + s_3) — and holds the range functions to it bit
// for bit, once with the Go loops forced and once with the AVX2 kernels.

// sameBits reports bit-level equality except that any NaN equals any other:
// Go leaves the payload of a NaN result unspecified. Signed zeros,
// infinities and subnormals are compared bit for bit.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

func sameSlice(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameBits(a[i], b[i]) {
			return false
		}
	}
	return true
}

// simdAtInit is level1SIMD as the package set it: whether this host runs the
// assembly kernels at all.
var simdAtInit = level1SIMD

// forEachLevel1Kernel runs f twice, as subtests: "go" with the Go loops
// forced, and "simd" with the AVX2 kernels, skipped on a host without them.
func forEachLevel1Kernel(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	for _, simd := range []bool{false, true} {
		name := "go"
		if simd {
			name = "simd"
		}
		t.Run(name, func(t *testing.T) {
			if simd && !simdAtInit {
				t.Skip("no AVX2 with OS-enabled YMM state here (or not amd64): the level-1 kernels always run the Go loops")
			}
			defer func(old bool) { level1SIMD = old }(level1SIMD)
			level1SIMD = simd
			f(t)
		})
	}
}

// laneSum is the definition of a level-1 reduction over n terms.
func laneSum(n int, term func(i int) float64) float64 {
	var l [16]float64
	for i := 0; i < n; i++ {
		l[i%16] += term(i)
	}
	var s [4]float64
	for k := range s {
		s[k] = (l[k] + l[4+k]) + (l[8+k] + l[12+k])
	}
	return (s[0] + s[2]) + (s[1] + s[3])
}

// level1Mismatch reports the first range function that differs from its
// definition on x, y (equal lengths) at alpha and beta: the sum of x, added
// to a Lanes in two pieces as the fusion VM adds its blocks, the dot, w = y +
// alpha x with <w, w> out of place and in place, d = alpha x + beta d, Axpy
// as y + alpha x, and the CG step (p = z + beta p, s = w + beta s,
// x += alpha p, r -= alpha s, <r, r>).
func level1Mismatch(x, y []float64, alpha, beta float64) error {
	n := len(x)
	clone := func(v []float64) []float64 { return append([]float64(nil), v...) }

	want := laneSum(n, func(i int) float64 { return x[i] })
	var sum Lanes
	k := (n / 2) &^ 15
	sum.Add(x[:k])
	sum.Add(x[k:])
	if got := sum.Fold(); !sameBits(got, want) {
		return fmt.Errorf("sum = %x, want %x", math.Float64bits(got), math.Float64bits(want))
	}

	want = laneSum(n, func(i int) float64 { return float64(x[i] * y[i]) })
	if got := dotRange(vecArgs{x: x, y: y}, 0, n); !sameBits(got, want) {
		return fmt.Errorf("dot = %x, want %x", math.Float64bits(got), math.Float64bits(want))
	}

	wantW := make([]float64, n)
	for i := range wantW {
		wantW[i] = y[i] + float64(alpha*x[i])
	}
	wantWW := laneSum(n, func(i int) float64 { return float64(wantW[i] * wantW[i]) })
	w := make([]float64, n)
	if got := waxpyDotRange(waxpyArgs{alpha, x, y, w}, 0, n); !sameBits(got, wantWW) || !sameSlice(w, wantW) {
		return fmt.Errorf("waxpyDot = %x, want %x (w equal: %v)", math.Float64bits(got), math.Float64bits(wantWW), sameSlice(w, wantW))
	}
	w = clone(y)
	if got := waxpyDotRange(waxpyArgs{alpha, x, w, w}, 0, n); !sameBits(got, wantWW) || !sameSlice(w, wantW) {
		return fmt.Errorf("waxpyDot with w == y = %x, want %x (w equal: %v)", math.Float64bits(got), math.Float64bits(wantWW), sameSlice(w, wantW))
	}

	d := clone(y)
	axpbyRange(vecArgs{alpha: alpha, beta: beta, x: x, y: d}, 0, n)
	for i := range d {
		if want := float64(alpha*x[i]) + float64(beta*y[i]); !sameBits(d[i], want) {
			return fmt.Errorf("axpby[%d] = %v, want %v", i, d[i], want)
		}
	}
	d = clone(y)
	axpbyRange(vecArgs{alpha: alpha, beta: 1, x: x, y: d}, 0, n)
	if !sameSlice(d, wantW) {
		return fmt.Errorf("axpby with beta = 1 is not y + alpha x")
	}

	// The CG step, with z its own vector and with z = r.
	for _, zIsR := range []bool{false, true} {
		p, s, xv, r := clone(y), clone(x), clone(x), clone(y)
		z := x
		if zIsR {
			z = r
		}
		wantP, wantS, wantX, wantR := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
		for i := range wantP {
			wantP[i] = z[i] + float64(beta*p[i])
			wantS[i] = y[i] + float64(beta*s[i])
			wantX[i] = xv[i] + float64(alpha*wantP[i])
			wantR[i] = r[i] + float64(-alpha*wantS[i])
		}
		wantRR := laneSum(n, func(i int) float64 { return float64(wantR[i] * wantR[i]) })
		got := cgStepRange(cgStepArgs{alpha: alpha, beta: beta, z: z, w: y, p: p, s: s, x: xv, r: r}, 0, n)
		if !sameBits(got, wantRR) || !sameSlice(p, wantP) || !sameSlice(s, wantS) || !sameSlice(xv, wantX) || !sameSlice(r, wantR) {
			return fmt.Errorf("cgStep (z = r: %v) = %x, want %x (p, s, x, r equal: %v %v %v %v)", zIsR,
				math.Float64bits(got), math.Float64bits(wantRR), sameSlice(p, wantP), sameSlice(s, wantS), sameSlice(xv, wantX), sameSlice(r, wantR))
		}
	}
	return nil
}

// level1Specials are the values IEEE arithmetic treats apart from the rest.
var level1Specials = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
	5e-324, -1e-310, 2.2250738585072014e-308, math.MaxFloat64,
}

// TestLevel1MatchesLaneOrder runs every kernel at every length from 0 to 40
// (all tail lengths, around one and two blocks of 16) and around one and four
// default chunks, on normal deviates and with specials in both operands, at
// alpha in {drawn, 0, -1, NaN}, from aligned and misaligned starts.
func TestLevel1MatchesLaneOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	var lengths []int
	for n := 0; n <= 40; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 4095, 4096, 4097, 16383, 16384, 16385)
	forEachLevel1Kernel(t, func(t *testing.T) {
		for _, n := range lengths {
			for _, specials := range []bool{false, true} {
				draw := rng.NormFloat64
				if specials {
					draw = func() float64 {
						if rng.Intn(3) == 0 {
							return level1Specials[rng.Intn(len(level1Specials))]
						}
						return rng.NormFloat64()
					}
				}
				off := rng.Intn(4) // misaligns the SIMD loads by whole elements
				x, y := make([]float64, off+n)[off:], make([]float64, off+n)[off:]
				for i := range x {
					x[i], y[i] = draw(), draw()
				}
				for _, alpha := range []float64{rng.NormFloat64(), 0, -1, math.NaN()} {
					if err := level1Mismatch(x, y, alpha, rng.NormFloat64()); err != nil {
						t.Fatalf("n=%d specials=%v alpha=%v: %v", n, specials, alpha, err)
					}
				}
			}
		}
	})
}

// FuzzLevel1Lanes holds the kernels to their definition on vectors built from
// the fuzz input: values supplies x, then y, as raw float64 bits (cycled), so
// NaN, ±Inf, -0 and subnormals come straight from the input; n is the length
// and off misaligns the operands.
func FuzzLevel1Lanes(f *testing.F) {
	floats := func(vs ...float64) []byte {
		b := make([]byte, 0, 8*len(vs))
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	odd := floats(math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 5e-324, -1e-310, 1, -1, math.MaxFloat64, 2, 0.5)
	plain := floats(0.25, -3, 1e-3, 7, -0.5, 1e10, 2, -1e-10, 3.5)
	f.Add(uint16(17), uint8(0), 0.8125, -0.5, odd)
	f.Add(uint16(40), uint8(1), -1.0, 1.0, plain)
	f.Add(uint16(4097), uint8(3), math.NaN(), 0.0, odd)
	f.Add(uint16(16385), uint8(2), 0.0, -1.0, plain)
	f.Add(uint16(31), uint8(0), 1e300, 1e-300, odd)
	f.Add(uint16(0), uint8(0), 1.0, 1.0, []byte{})
	f.Fuzz(func(t *testing.T, n uint16, off uint8, alpha, beta float64, values []byte) {
		size, o := int(n)%20000, int(off)%4
		next := 0
		draw := func() float64 {
			k := next
			next++
			if m := len(values) / 8; m > 0 {
				return math.Float64frombits(binary.LittleEndian.Uint64(values[8*(k%m):]))
			}
			return float64(k%7 - 3)
		}
		x, y := make([]float64, o+size)[o:], make([]float64, o+size)[o:]
		for i := range x {
			x[i] = draw()
		}
		for i := range y {
			y[i] = draw()
		}
		forEachLevel1Kernel(t, func(t *testing.T) {
			if err := level1Mismatch(x, y, alpha, beta); err != nil {
				t.Fatal(err)
			}
		})
	})
}

// TestLevel1Allocs pins the inline chunk tree under the solver sweeps: on a
// one-worker engine a reduction over four chunks folds them on the caller
// with no partials slice and no closure, so DotSlices, CGStep and
// WaxpyDot allocate nothing.
func TestLevel1Allocs(t *testing.T) {
	old := exec.Default()
	defer exec.SetDefault(old)
	exec.SetDefault(exec.New(exec.WithWorkers(1)))
	const n = 4 * exec.DefaultGrain
	x, y, u, w := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	p, s := make([]float64, n), make([]float64, n)
	for i := range x {
		x[i], y[i] = 1/float64(i+1), float64(i%7)
	}
	var sink float64
	for name, f := range map[string]func(){
		"DotSlices": func() { sink += DotSlices(x, y) },
		"CGStep":    func() { sink += CGStep(1e-9, 0.5, x, y, p, s, u, w) },
		"WaxpyDot":  func() { sink += WaxpyDot(-1e-9, x, y, w) },
	} {
		if got := testing.AllocsPerRun(100, f); got != 0 {
			t.Errorf("%s over %d elements at pool 1 allocates %v objects per call, want 0 (sink %g)", name, n, got, sink)
		}
	}
}
