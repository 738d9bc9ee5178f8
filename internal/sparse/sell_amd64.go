package sparse

// sellSIMD selects the AVX2 uniform-slice kernel in sellRange. It is set
// once, here, from CPUID and XGETBV; the package's tests clear it to run the
// Go loop on the same host.
var sellSIMD = cpuHasAVX2()

// cpuHasAVX2 reports whether the CPU implements AVX2 and the operating
// system saves the YMM registers across context switches (cpuid_amd64.s).
func cpuHasAVX2() bool

// sellUniform8 sets sum[r] to row r's dot product with x for one C = 8
// slice whose eight rows all hold w >= 1 entries: val and col point at the
// slice's first stored slot, 8*w of each, column-major. Lane r accumulates
// val[8j+r]*x[col[8j+r]] for j = 0..w-1 in that order, a rounded multiply
// then a rounded add, exactly as the Go loop does. The gathers are not
// bounds-checked: every col entry must be in [0, len(x)), which FromCSR
// guarantees and MulVec's length check carries over to x.
//
//go:noescape
func sellUniform8(val *float64, col *int32, w int, x *float64, sum *[8]float64)
