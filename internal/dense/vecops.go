package dense

import "math"

// Slice-loop op bodies: the tight per-block kernels under the fusion
// register VM (internal/fusion) and any other caller that already holds
// flat []float64 spans. Each body is a single branch-free loop over equal-
// length slices, written so the Go compiler can eliminate the bounds checks
// on the operands (every operand is re-sliced to len(dst) up front). dst may
// alias a or b element-for-element (dst[i] reads only a[i]/b[i]), which is
// what lets the VM reuse an operand register as the destination.

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
	for i := range dst {
		dst[i] = math.Sin(a[i])
	}
}

// VecCos sets dst[i] = math.Cos(a[i]).
func VecCos(dst, a []float64) {
	a = a[:len(dst)]
	for i := range dst {
		dst[i] = math.Cos(a[i])
	}
}

// VecExp sets dst[i] = math.Exp(a[i]).
func VecExp(dst, a []float64) {
	a = a[:len(dst)]
	for i := range dst {
		dst[i] = math.Exp(a[i])
	}
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

// VecAccum continues a running left fold: ((acc + a[0]) + a[1]) + ...
// Block-sweeping callers chain it across blocks to keep the exact
// association of one serial loop over the whole span.
func VecAccum(acc float64, a []float64) float64 {
	for _, v := range a {
		acc += v
	}
	return acc
}
