package dense

// The AVX2 bodies of the lanes methods and axpby (level1_amd64.s). Each
// covers n elements, n a positive multiple of 16, in four YMM registers of
// four lanes: register r holds lanes 4r..4r+3, so element i of a 16-block
// meets lane i as in the Go loop. Multiplies and adds are separate
// instructions — never a fused multiply-add — so every lane rounds as the Go
// loop's does. The reductions add into *l and store the lanes back.

// dotLanesAVX2 is lanes.dot over x[0:n], y[0:n].
//
//go:noescape
func dotLanesAVX2(l *lanes, x, y *float64, n int)

// waxpyDotLanesAVX2 is lanes.waxpyDot over n elements; w may be y.
//
//go:noescape
func waxpyDotLanesAVX2(l *lanes, alpha float64, x, y, w *float64, n int)

// axpbyAVX2 is axpby over n elements.
//
//go:noescape
func axpbyAVX2(a float64, x *float64, b float64, d *float64, n int)
