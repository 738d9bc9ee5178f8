//go:build !amd64

package sparse

// sellUniform8 is never called here: off amd64 cpuid.AVX2 is false, so
// sellSIMD is too and sellRange runs every slice through its Go loop.
func sellUniform8(val *float64, col *int32, w int, x *float64, sum *[8]float64) {
	panic("sparse: no SIMD SELL kernel on this architecture")
}
