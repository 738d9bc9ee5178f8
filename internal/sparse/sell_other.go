//go:build !amd64

package sparse

// sellSIMD is false off amd64: there is no assembly kernel, and sellRange
// runs every slice through its Go loop.
var sellSIMD = false

// sellUniform8 is never called here, since sellSIMD is false.
func sellUniform8(val *float64, col *int32, w int, x *float64, sum *[8]float64) {
	panic("sparse: no SIMD SELL kernel on this architecture")
}
