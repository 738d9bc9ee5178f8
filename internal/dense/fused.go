package dense

// Superinstruction kernel bodies: fused pair/triple loops under the fusion
// register VM's peephole pass (mul+add -> fma, scale+add -> axpy). Same
// contract as vecops.go — equal-length operands re-sliced to len(dst) for
// bounds-check elimination, dst may alias any operand.
//
// Every product is wrapped in an explicit float64 conversion: the Go spec
// lets the compiler contract a*b+c into a hardware fused-multiply-add
// (single rounding), but an explicit conversion forces the product to round
// to float64 first. That keeps each fused kernel bit-for-bit identical to
// the two-instruction sequence it replaces, which is what the VM's
// bitwise-oracle property tests demand.

// VecFMA sets dst[i] = float64(a[i]*b[i]) + c[i].
func VecFMA(dst, a, b, c []float64) {
	a = a[:len(dst)]
	b = b[:len(dst)]
	c = c[:len(dst)]
	for i := range dst {
		dst[i] = float64(a[i]*b[i]) + c[i]
	}
}

// VecFMAR sets dst[i] = c[i] + float64(a[i]*b[i]) — the mirrored add order,
// kept distinct so NaN payload propagation matches the unfused sequence.
func VecFMAR(dst, a, b, c []float64) {
	a = a[:len(dst)]
	b = b[:len(dst)]
	c = c[:len(dst)]
	for i := range dst {
		dst[i] = c[i] + float64(a[i]*b[i])
	}
}

// VecFMS sets dst[i] = float64(a[i]*b[i]) - c[i].
func VecFMS(dst, a, b, c []float64) {
	a = a[:len(dst)]
	b = b[:len(dst)]
	c = c[:len(dst)]
	for i := range dst {
		dst[i] = float64(a[i]*b[i]) - c[i]
	}
}

// VecFMSR sets dst[i] = c[i] - float64(a[i]*b[i]).
func VecFMSR(dst, a, b, c []float64) {
	a = a[:len(dst)]
	b = b[:len(dst)]
	c = c[:len(dst)]
	for i := range dst {
		dst[i] = c[i] - float64(a[i]*b[i])
	}
}

// VecFMA2 sets dst[i] = float64((float64(a[i]*b[i])+c[i])*d[i]) + e[i] —
// two chained fma steps (the Horner recurrence t = t*y + x applied twice)
// in one pass, with every product explicitly rounded so the pair of
// VecFMA calls it replaces is reproduced bit for bit.
func VecFMA2(dst, a, b, c, d, e []float64) {
	a = a[:len(dst)]
	b = b[:len(dst)]
	c = c[:len(dst)]
	d = d[:len(dst)]
	e = e[:len(dst)]
	for i := range dst {
		t := float64(a[i]*b[i]) + c[i]
		dst[i] = float64(t*d[i]) + e[i]
	}
}

// VecAXPY sets dst[i] = float64(a[i]*s) + b[i]: the scale+add
// superinstruction, with the scalar held in a register instead of a
// broadcast constant block.
func VecAXPY(dst, a []float64, s float64, b []float64) {
	a = a[:len(dst)]
	b = b[:len(dst)]
	for i := range dst {
		dst[i] = float64(a[i]*s) + b[i]
	}
}

// VecAXPYR sets dst[i] = b[i] + float64(a[i]*s).
func VecAXPYR(dst, a []float64, s float64, b []float64) {
	a = a[:len(dst)]
	b = b[:len(dst)]
	for i := range dst {
		dst[i] = b[i] + float64(a[i]*s)
	}
}
