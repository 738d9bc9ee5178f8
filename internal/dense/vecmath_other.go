//go:build !amd64

package dense

// The assembly kernels are never called here: off amd64 cpuid.AVX2 is
// false, so vecmathSIMD and expSIMD are too and every op runs math.

func sinCosAVX2(dst, x *float64, n int, cos bool) int {
	panic("dense: no SIMD transcendental kernel on this architecture")
}

func expAVX2(dst, x *float64, n int) int {
	panic("dense: no SIMD transcendental kernel on this architecture")
}

func sqrtAVX2(dst, x *float64, n int) {
	panic("dense: no SIMD transcendental kernel on this architecture")
}
