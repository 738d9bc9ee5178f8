package dense

// The AVX2 bodies of VecSin, VecCos, VecExp and VecSqrt (vecmath_amd64.s).
// Each runs four lanes at a time, every lane the IEEE operations of the
// math function it replaces, so every element is that function's result bit
// for bit. n is a positive multiple of 4.

// sinCosAVX2 sets dst[i] = math.Sin(x[i]), or math.Cos(x[i]) when cos,
// group of four by group, and stops before the first group with a lane
// outside |x| < 1<<29. It returns the elements done.
//
//go:noescape
func sinCosAVX2(dst, x *float64, n int, cos bool) int

// expAVX2 sets dst[i] = math.Exp(x[i]) as math's FMA path computes it,
// group of four by group, and stops before the first group with a lane that
// is NaN, is above math's overflow bound, or whose power of two is below the
// normal exponents (-Inf among them). It returns the elements done.
//
//go:noescape
func expAVX2(dst, x *float64, n int) int

// sqrtAVX2 sets dst[i] = math.Sqrt(x[i]).
//
//go:noescape
func sqrtAVX2(dst, x *float64, n int)
