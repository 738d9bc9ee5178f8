package dense

import "odinhpc/internal/cpuid"

// The level-1 kernels under every Krylov iteration and every other float64
// sum: the sum and the inner product, the update-and-square sweep
// w = y + alpha x with its <w, w>, the vector update d = a x + b d, and CG's
// four updates with <r, r>. Each Go loop below is the definition of its
// result; on amd64 with AVX2 (level1SIMD) the body of a span runs in
// level1_amd64.s, which reproduces the loop bit for bit, and only the
// elements past the last multiple of 16 run here.
//
// Lane order. A reduction over a span accumulates element i of the span
// into lane i mod 16 — sixteen independent add chains where one chain would
// be add-latency bound — and foldLanes combines them in one fixed tree.
// The order depends on the span alone, so with the engine's chunk tree above
// it (exec rule 1) a result is the same at every pool size.
//
// Every product is wrapped in float64(...): Go lets a compiler fuse x*y + z
// into one fused multiply-add on some architectures, and the conversion
// forces the product to round first, as the assembly's separate multiply
// and add do. Only the payload of a NaN result is left open, as everywhere
// in Go arithmetic.

// level1SIMD selects the AVX2 kernels. It is set once, here, from the CPU;
// the package's tests clear it to run the Go loops on the same host.
var level1SIMD = cpuid.AVX2()

// lanes is one span's 16-lane accumulator.
type lanes [16]float64

// foldLanes is the one fold tree of every sum and dot:
// s_k = (l_k + l_{4+k}) + (l_{8+k} + l_{12+k}), then (s_0 + s_2) + (s_1 + s_3)
// — the four 4-wide accumulators of the assembly added pairwise, then the
// two halves, then the pair. The generic Sum and Dot fold their lanes of any
// element type by it. The lanes are passed by value: a pointer into a
// caller's accumulator would make it escape through the generic call.
func foldLanes[T Elem](l [16]T) T {
	s0 := (l[0] + l[4]) + (l[8] + l[12])
	s1 := (l[1] + l[5]) + (l[9] + l[13])
	s2 := (l[2] + l[6]) + (l[10] + l[14])
	s3 := (l[3] + l[7]) + (l[11] + l[15])
	return (s0 + s2) + (s1 + s3)
}

// Lanes is one chunk's sum in the lane order, for a caller that produces
// the chunk's values in pieces — the fusion VM, a block at a time. Add the
// pieces in order, every one but the last a multiple of 16 long, so that
// element i of the chunk meets lane i mod 16; then Fold. The zero value is
// an empty sum.
type Lanes struct{ l lanes }

// Add adds the next piece of the chunk.
func (s *Lanes) Add(a []float64) { s.l.sum(a) }

// Fold returns the chunk's sum.
func (s *Lanes) Fold() float64 { return foldLanes(s.l) }

// sum adds a[i] into lane i mod 16.
func (l *lanes) sum(a []float64) {
	if k := len(a) &^ 15; level1SIMD && k > 0 {
		sumLanesAVX2(l, &a[0], k)
		a = a[k:]
	}
	for i := range a {
		l[i&15] += a[i]
	}
}

// dot adds x[i]*y[i] into lane i mod 16, len(y) >= len(x). After the
// assembly's k elements the Go loop's index restarts at 0, which is k mod 16.
func (l *lanes) dot(x, y []float64) {
	y = y[:len(x)]
	if k := len(x) &^ 15; level1SIMD && k > 0 {
		dotLanesAVX2(l, &x[0], &y[0], k)
		x, y = x[k:], y[k:]
	}
	for i := range x {
		l[i&15] += float64(x[i] * y[i])
	}
}

// waxpyDot sets w[i] = y[i] + alpha*x[i] and adds w[i]*w[i] into lane
// i mod 16, len(x), len(y) >= len(w). w may be y.
func (l *lanes) waxpyDot(alpha float64, x, y, w []float64) {
	x, y = x[:len(w)], y[:len(w)]
	if k := len(w) &^ 15; level1SIMD && k > 0 {
		waxpyDotLanesAVX2(l, alpha, &x[0], &y[0], &w[0], k)
		x, y, w = x[k:], y[k:], w[k:]
	}
	for i := range w {
		v := y[i] + float64(alpha*x[i])
		w[i] = v
		l[i&15] += float64(v * v)
	}
}

// axpby sets d[i] = a*x[i] + b*d[i], len(x) >= len(d). With b = 1 it is
// bitwise d[i] + a*x[i]: 1*d[i] is exact and the add commutes.
func axpby(a float64, x []float64, b float64, d []float64) {
	x = x[:len(d)]
	if k := len(d) &^ 15; level1SIMD && k > 0 {
		axpbyAVX2(a, &x[0], b, &d[0], k)
		x, d = x[k:], d[k:]
	}
	for i := range d {
		d[i] = float64(a*x[i]) + float64(b*d[i])
	}
}

// cgStep is the single-reduction CG step: p[i] = z[i] + beta*p[i],
// s[i] = w[i] + beta*s[i], x[i] += alpha*p[i], r[i] += -alpha*s[i], and
// r[i]*r[i] into lane i mod 16; the other slices are at least len(r) long.
// Element for element it is axpby(1, z, beta, p), axpby(1, w, beta, s),
// axpby(alpha, p, 1, x) and waxpyDot(-alpha, s, r, r) in turn — a product
// with 1 is exact, and an add of two non-NaN values commutes — in one pass
// over the six vectors instead of four. z may be r: each z[i] is read before
// r[i] is written.
func (l *lanes) cgStep(alpha, beta float64, z, w, p, s, x, r []float64) {
	n := len(r)
	z, w, p, s, x = z[:n], w[:n], p[:n], s[:n], x[:n]
	if k := n &^ 15; level1SIMD && k > 0 {
		cgStepLanesAVX2(l, alpha, beta, &z[0], &w[0], &p[0], &s[0], &x[0], &r[0], k)
		z, w, p, s, x, r = z[k:], w[k:], p[k:], s[k:], x[k:], r[k:]
	}
	for i := range r {
		pi := float64(beta*p[i]) + z[i]
		si := float64(beta*s[i]) + w[i]
		p[i], s[i] = pi, si
		x[i] = float64(alpha*pi) + x[i]
		v := float64(-alpha*si) + r[i]
		r[i] = v
		l[i&15] += float64(v * v)
	}
}
