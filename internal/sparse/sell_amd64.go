package sparse

// sellUniform8 sets sum[r] to row r's dot product with x for one C = 8
// slice whose eight rows all hold w >= 1 entries: val and col point at the
// slice's first stored slot, 8*w of each, column-major. Lane r accumulates
// val[8j+r]*x[col[8j+r]] for j = 0..w-1 in that order, a rounded multiply
// then a rounded add, exactly as the Go loop does. Bit j of unit (j < 64)
// promises that position j's indices are col[8j], col[8j]+1, ..., +7, and
// the kernel then loads those eight x values with plain loads instead of a
// gather. Nothing is bounds-checked: every col entry must be in
// [0, len(x)), which FromCSR guarantees, as it does that unit marks only
// consecutive indices, and MulVec's length check carries over to x.
//
//go:noescape
func sellUniform8(val *float64, col *int32, w int, x *float64, sum *[8]float64, unit uint64)
