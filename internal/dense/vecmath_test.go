package dense

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"odinhpc/internal/cpuid"
)

// VecSin, VecCos, VecExp and VecSqrt against math, element by element and
// bit for bit (NaN payloads included: a group holding a NaN is computed by
// math itself), once with math forced and once with the four-lane kernels.

// vecmathAtInit is vecmathSIMD and expSIMD as the package set them.
var vecmathAtInit = [2]bool{vecmathSIMD, expSIMD}

// forEachVecmathKernel runs f twice, as subtests: "go" with math forced,
// and "simd" with the kernels this host selected, skipped on a host
// without them.
func forEachVecmathKernel(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	for _, simd := range []bool{false, true} {
		name := "go"
		if simd {
			name = "simd"
		}
		t.Run(name, func(t *testing.T) {
			if simd && !vecmathAtInit[0] {
				t.Skip("no AVX2 with OS-enabled YMM state here (or not amd64): sin, cos, exp and sqrt always run math")
			}
			defer useVecmathKernels(simd)()
			f(t)
		})
	}
}

// useVecmathKernels selects the kernels this host has (simd) or math for
// every op, and returns the function that restores the selection.
func useVecmathKernels(simd bool) (restore func()) {
	old := [2]bool{vecmathSIMD, expSIMD}
	vecmathSIMD, expSIMD = simd, simd && vecmathAtInit[1]
	return func() { vecmathSIMD, expSIMD = old[0], old[1] }
}

var vecmathOps = []struct {
	name string
	vec  func(dst, a []float64)
	f    func(float64) float64
}{
	{"sin", VecSin, math.Sin},
	{"cos", VecCos, math.Cos},
	{"exp", VecExp, math.Exp},
	{"sqrt", VecSqrt, math.Sqrt},
}

// vecmathMismatch reports the first element of a on which an op differs from
// math, out of place and in place (dst == a).
func vecmathMismatch(a []float64) error {
	dst := make([]float64, len(a))
	for _, op := range vecmathOps {
		op.vec(dst, a)
		in := append([]float64(nil), a...)
		op.vec(in, in)
		for i, x := range a {
			want := math.Float64bits(op.f(x))
			if got := math.Float64bits(dst[i]); got != want {
				return fmt.Errorf("%s(%v = %#x) at %d of %d = %#x, want %#x", op.name, x, math.Float64bits(x), i, len(a), got, want)
			}
			if got := math.Float64bits(in[i]); got != want {
				return fmt.Errorf("%s(%v = %#x) in place at %d of %d = %#x, want %#x", op.name, x, math.Float64bits(x), i, len(a), got, want)
			}
		}
	}
	return nil
}

// vecmathEdges are the inputs at and around the kernels' domain bounds and
// math's special cases.
func vecmathEdges() []float64 {
	up, down := func(x float64) float64 { return math.Nextafter(x, math.Inf(1)) }, func(x float64) float64 { return math.Nextafter(x, math.Inf(-1)) }
	const threshold, overflow = 1 << 29, 709.782712893384
	edges := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7ff8_dead_beef_0001), math.Float64frombits(0xfff0_0000_0000_0042), // quiet and signalling NaN payloads
		5e-324, -5e-324, 1e-310, -2.2250738585072e-308, 2.2250738585072014e-308,
		threshold, down(threshold), up(threshold), -threshold, down(-threshold), up(-threshold),
		overflow, down(overflow), up(overflow), -overflow, 710, -710, math.MaxFloat64, -math.MaxFloat64,
		math.Pi / 4, math.Pi / 2, math.Pi, 1e-8, -1e-8, 0.5, -0.5,
	}
	for x := -708.0; x >= -746; x -= 0.25 {
		edges = append(edges, x, up(x), down(x))
	}
	return edges
}

// vecmathDraw returns n inputs: random bit patterns, then uniform values at
// each of the magnitudes 1, 1e2, 1e6, 1e9 and 750, in turn.
func vecmathDraw(rng *rand.Rand, n int) []float64 {
	mags := []float64{1, 1e2, 1e6, 1e9, 750}
	a := make([]float64, n)
	for i := range a {
		if k := i % (len(mags) + 1); k < len(mags) {
			a[i] = (2*rng.Float64() - 1) * mags[k]
		} else {
			a[i] = math.Float64frombits(rng.Uint64())
		}
	}
	return a
}

// TestTranscendentalKernelsBitwise holds the four ops to math on random bit
// patterns and magnitudes, on every edge value alone at every lane position
// and in the tail (lengths 0 to 11, start offsets 0 to 3, the rest of the
// vector ordinary), and on the edge values packed together.
func TestTranscendentalKernelsBitwise(t *testing.T) {
	// Where the CPU has FMA and no GODEBUG setting turns a CPU feature off
	// for math, math.Exp runs its FMA path, so the exp kernel must have
	// matched it on expProbe at init and been selected.
	if cpuid.AVX2() && cpuid.FMA() && !strings.Contains(os.Getenv("GODEBUG"), "cpu.") && !expSIMD {
		t.Fatal("the exp kernel differs from math.Exp on expProbe, so it was not selected")
	}
	forEachVecmathKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(35))
		for _, n := range []int{1, 4, 1023, 1024, 4099, 1 << 16} {
			if err := vecmathMismatch(vecmathDraw(rng, n)); err != nil {
				t.Fatalf("random inputs: %v", err)
			}
		}
		edges := vecmathEdges()
		for _, e := range edges {
			for n := 0; n <= 11; n++ {
				for off := 0; off < 4; off++ {
					for at := 0; at < n; at++ {
						a := make([]float64, off+n)[off:]
						for i := range a {
							a[i] = 0.25 + float64(i)/8
						}
						a[at] = e
						if err := vecmathMismatch(a); err != nil {
							t.Fatalf("edge %v at %d, offset %d: %v", e, at, off, err)
						}
					}
				}
			}
		}
		for off := 0; off < 4; off++ {
			a := make([]float64, off+len(edges))[off:]
			copy(a, edges)
			if err := vecmathMismatch(a); err != nil {
				t.Fatalf("packed edges, offset %d: %v", off, err)
			}
		}
	})
}

// FuzzVecTranscendentals holds the four ops to math on a vector built from
// the fuzz input: values supplies raw float64 bits (cycled), so NaN, ±Inf,
// -0, subnormals and out-of-domain magnitudes come straight from the input;
// n is the length and off misaligns the vector.
func FuzzVecTranscendentals(f *testing.F) {
	floats := func(vs ...float64) []byte {
		b := make([]byte, 0, 8*len(vs))
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(uint16(17), uint8(0), floats(0.5, -3, 1e-3, 7, -0.5, 1e6, 2, -1e-10, 3.5))
	f.Add(uint16(40), uint8(1), floats(math.NaN(), 1, math.Inf(1), 2, math.Inf(-1), 3, math.Copysign(0, -1), 4, 5e-324))
	f.Add(uint16(1031), uint8(3), floats(1<<29, 709.782712893384, -745.5, -708, 1e9, -1e9, 0.1))
	f.Add(uint16(11), uint8(2), floats(-746, 710, 1e300, -1e-300))
	f.Add(uint16(0), uint8(0), []byte{})
	f.Fuzz(func(t *testing.T, n uint16, off uint8, values []byte) {
		size, o := int(n)%20000, int(off)%4
		a := make([]float64, o+size)[o:]
		for i := range a {
			if m := len(values) / 8; m > 0 {
				a[i] = math.Float64frombits(binary.LittleEndian.Uint64(values[8*(i%m):]))
			} else {
				a[i] = float64(i%7 - 3)
			}
		}
		forEachVecmathKernel(t, func(t *testing.T) {
			if err := vecmathMismatch(a); err != nil {
				t.Fatal(err)
			}
		})
	})
}

// BenchmarkVecTranscendentals times each op on one VM block (1024
// elements) of values like the served expression's leaves, math forced
// ("go") and with the kernels ("simd"); ns/elt is the per-element cost.
func BenchmarkVecTranscendentals(b *testing.B) {
	a, dst := make([]float64, 1024), make([]float64, 1024)
	for i := range a {
		a[i] = 0.5 + 0.4*math.Sin(float64(i)*3)
	}
	for _, op := range vecmathOps {
		for _, simd := range []bool{false, true} {
			name := op.name + "/go"
			if simd {
				name = op.name + "/simd"
			}
			b.Run(name, func(b *testing.B) {
				if simd && !vecmathAtInit[0] {
					b.Skip("no AVX2 here: sin, cos, exp and sqrt always run math")
				}
				defer useVecmathKernels(simd)()
				for i := 0; i < b.N; i++ {
					op.vec(dst, a)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(a)), "ns/elt")
			})
		}
	}
}
