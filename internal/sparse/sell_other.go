//go:build !amd64

package sparse

// sellSlices8 is never called here: off amd64 cpuid.AVX2 is false, so
// sellSIMD is too and sellRange runs every slice through its Go loop.
func sellSlices8(val []float64, col []int32, x []float64, y *float64, rowLen, perm *int, unit, same *uint64, run *bool, n int) {
	panic("sparse: no SIMD SELL kernel on this architecture")
}
