package dense

import (
	"math"

	"odinhpc/internal/cpuid"
)

// Slice-loop op bodies: the tight per-block kernels under the fusion
// register VM (internal/fusion) and any other caller that already holds
// flat []float64 spans. Each body is a single branch-free loop over equal-
// length slices, written so the Go compiler can eliminate the bounds checks
// on the operands (every operand is re-sliced to len(dst) up front); VecSin,
// VecCos, VecExp and VecSqrt first hand their whole groups of four to the
// four-lane kernels below. dst may alias a or b element-for-element (dst[i]
// reads only a[i]/b[i]), which is what lets the VM reuse an operand register
// as the destination.

// VecCopy sets dst[i] = a[i].
func VecCopy(dst, a []float64) {
	copy(dst, a[:len(dst)])
}

// VecFill sets every element of dst to v.
func VecFill(dst []float64, v float64) {
	for i := range dst {
		dst[i] = v
	}
}

// VecAdd sets dst[i] = a[i] + b[i].
func VecAdd(dst, a, b []float64) {
	a = a[:len(dst)]
	b = b[:len(dst)]
	for i := range dst {
		dst[i] = a[i] + b[i]
	}
}

// VecSub sets dst[i] = a[i] - b[i].
func VecSub(dst, a, b []float64) {
	a = a[:len(dst)]
	b = b[:len(dst)]
	for i := range dst {
		dst[i] = a[i] - b[i]
	}
}

// VecMul sets dst[i] = a[i] * b[i].
func VecMul(dst, a, b []float64) {
	a = a[:len(dst)]
	b = b[:len(dst)]
	for i := range dst {
		dst[i] = a[i] * b[i]
	}
}

// VecDiv sets dst[i] = a[i] / b[i].
func VecDiv(dst, a, b []float64) {
	a = a[:len(dst)]
	b = b[:len(dst)]
	for i := range dst {
		dst[i] = a[i] / b[i]
	}
}

// VecHypot sets dst[i] = math.Hypot(a[i], b[i]).
func VecHypot(dst, a, b []float64) {
	a = a[:len(dst)]
	b = b[:len(dst)]
	for i := range dst {
		dst[i] = math.Hypot(a[i], b[i])
	}
}

// FloorMod is Python's float %: the remainder carries the sign of the
// divisor, so a - b*floor(a/b) up to rounding.
func FloorMod(a, b float64) float64 {
	m := math.Mod(a, b)
	if m != 0 && (m < 0) != (b < 0) {
		m += b
	}
	return m
}

// VecFloorDiv sets dst[i] = math.Floor(a[i] / b[i]) — Python's float //.
func VecFloorDiv(dst, a, b []float64) {
	a = a[:len(dst)]
	b = b[:len(dst)]
	for i := range dst {
		dst[i] = math.Floor(a[i] / b[i])
	}
}

// VecFloorMod sets dst[i] = FloorMod(a[i], b[i]).
func VecFloorMod(dst, a, b []float64) {
	a = a[:len(dst)]
	b = b[:len(dst)]
	for i := range dst {
		dst[i] = FloorMod(a[i], b[i])
	}
}

// VecPow sets dst[i] = math.Pow(a[i], b[i]).
func VecPow(dst, a, b []float64) {
	a = a[:len(dst)]
	b = b[:len(dst)]
	for i := range dst {
		dst[i] = math.Pow(a[i], b[i])
	}
}

// VecLog sets dst[i] = math.Log(a[i]).
func VecLog(dst, a []float64) {
	a = a[:len(dst)]
	for i := range dst {
		dst[i] = math.Log(a[i])
	}
}

// VecSquare sets dst[i] = a[i] * a[i].
func VecSquare(dst, a []float64) {
	a = a[:len(dst)]
	for i := range dst {
		dst[i] = a[i] * a[i]
	}
}

// VecSqrt sets dst[i] = math.Sqrt(a[i]).
func VecSqrt(dst, a []float64) {
	a = a[:len(dst)]
	if k := len(dst) &^ 3; vecmathSIMD && k > 0 {
		sqrtAVX2(&dst[0], &a[0], k)
		dst, a = dst[k:], a[k:]
	}
	for i := range dst {
		dst[i] = math.Sqrt(a[i])
	}
}

// VecNeg sets dst[i] = -a[i].
func VecNeg(dst, a []float64) {
	a = a[:len(dst)]
	for i := range dst {
		dst[i] = -a[i]
	}
}

// VecAbs sets dst[i] = math.Abs(a[i]).
func VecAbs(dst, a []float64) {
	a = a[:len(dst)]
	for i := range dst {
		dst[i] = math.Abs(a[i])
	}
}

// VecSin sets dst[i] = math.Sin(a[i]).
func VecSin(dst, a []float64) {
	a = a[:len(dst)]
	if vecmathSIMD {
		k := groups4(dst, a, sin4, math.Sin)
		dst, a = dst[k:], a[k:]
	}
	for i := range dst {
		dst[i] = math.Sin(a[i])
	}
}

// VecCos sets dst[i] = math.Cos(a[i]).
func VecCos(dst, a []float64) {
	a = a[:len(dst)]
	if vecmathSIMD {
		k := groups4(dst, a, cos4, math.Cos)
		dst, a = dst[k:], a[k:]
	}
	for i := range dst {
		dst[i] = math.Cos(a[i])
	}
}

// VecExp sets dst[i] = math.Exp(a[i]).
func VecExp(dst, a []float64) {
	a = a[:len(dst)]
	if expSIMD {
		k := groups4(dst, a, expAVX2, math.Exp)
		dst, a = dst[k:], a[k:]
	}
	for i := range dst {
		dst[i] = math.Exp(a[i])
	}
}

// Four lanes of sin, cos, exp and sqrt. On amd64 with AVX2 (vecmathSIMD)
// VecSin, VecCos and VecSqrt run their whole groups of four in
// vecmath_amd64.s, and with FMA as well (expSIMD) so does VecExp; each lane
// there performs the IEEE operations of the math function, in its order, so
// every element is bitwise math's. The sin/cos and exp kernels stop at a
// group holding a lane outside their domain — a NaN, an infinity, |x| >=
// 1<<29 where sin.go reduces by Payne-Hanek, an exp argument above math's
// overflow bound or whose power of two is subnormal — and groups4 computes
// that group with math itself. The exp
// kernel follows math.Exp's FMA path, so it is selected only where math.Exp
// takes that path: the CPU has FMA and math agrees with the kernel on
// expProbe (GODEBUG=cpu.fma=off turns math's path off). Both variables are
// set once, here; the package's tests clear them to run math on the same
// host.
var (
	vecmathSIMD = cpuid.AVX2()
	expSIMD     = cpuid.AVX2() && cpuid.FMA() && expMatchesMath()
)

// expProbe are inputs on which math.Exp's FMA and non-FMA paths round
// differently (math.Exp's results differ with and without
// GODEBUG=cpu.fma=off).
var expProbe = [4]float64{-7.076881, -3.815449, 1.240518, 4.31553}

// expMatchesMath reports whether the exp kernel gives math.Exp's bits on
// expProbe, which holds only where math.Exp runs its FMA path.
func expMatchesMath() bool {
	var got [4]float64
	if expAVX2(&got[0], &expProbe[0], 4) != 4 {
		return false
	}
	for i, x := range expProbe {
		if math.Float64bits(got[i]) != math.Float64bits(math.Exp(x)) {
			return false
		}
	}
	return true
}

func sin4(dst, x *float64, n int) int { return sinCosAVX2(dst, x, n, false) }
func cos4(dst, x *float64, n int) int { return sinCosAVX2(dst, x, n, true) }

// groups4 runs kernel over the whole groups of four of dst and a, and f
// over each group the kernel stops at, and returns the elements done.
func groups4(dst, a []float64, kernel func(dst, x *float64, n int) int, f func(float64) float64) int {
	n := len(dst) &^ 3
	for k := 0; k < n; k += 4 {
		if k += kernel(&dst[k], &a[k], n-k); k == n {
			break
		}
		for i := k; i < k+4; i++ {
			dst[i] = f(a[i])
		}
	}
	return n
}

// VecMap sets dst[i] = f(a[i]) for an arbitrary unary function — the
// fallback body for ops without a dedicated loop.
func VecMap(dst, a []float64, f func(float64) float64) {
	a = a[:len(dst)]
	for i := range dst {
		dst[i] = f(a[i])
	}
}

// VecMap2 sets dst[i] = f(a[i], b[i]) for an arbitrary binary function.
func VecMap2(dst, a, b []float64, f func(float64, float64) float64) {
	a = a[:len(dst)]
	b = b[:len(dst)]
	for i := range dst {
		dst[i] = f(a[i], b[i])
	}
}
