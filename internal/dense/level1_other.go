//go:build !amd64

package dense

// The assembly kernels are never called here: off amd64 cpuid.AVX2 is
// false, so level1SIMD is too and every span runs the Go loops.

func dotLanesAVX2(l *lanes, x, y *float64, n int) {
	panic("dense: no SIMD level-1 kernel on this architecture")
}

func waxpyDotLanesAVX2(l *lanes, alpha float64, x, y, w *float64, n int) {
	panic("dense: no SIMD level-1 kernel on this architecture")
}

func axpbyAVX2(a float64, x *float64, b float64, d *float64, n int) {
	panic("dense: no SIMD level-1 kernel on this architecture")
}
