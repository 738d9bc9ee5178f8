package sparse

// sellStretch8 runs consecutive uniform slices (SELL.uniform) of one SELL,
// from the first up to n or up to the first slice that is not uniform,
// stores each slice's eight row sums into y, and returns how many slices it
// ran. The caller checks that the first slice is uniform and that all n are
// full-height C = 8 slices; the kernel checks each one's row lengths. val and col point at the
// first slice's first stored value and index; each slice's data follows the
// previous one's in both streams. rowLen and perm point at the first slice's
// first sorted position, unit, same and run at its entries. For each slice
// the kernel reads w = rowLen[0] and rowLen[7], its marks, its run flag
// and perm[0:8] itself, then for j = 0..w-1 adds val*x per lane: a rounded multiply then a
// rounded add, in that order, exactly as the Go loop does. Bit j of same
// (j < 64) says position j stores one value for all eight rows, bit j of
// unit that it stores one index c0 for the columns c0..c0+7; an unmarked
// position stores eight of each. A run slice's sums go to
// y[perm[0]:perm[0]+8], any other's to y[perm[r]]. Nothing is
// bounds-checked: FromCSR guarantees every index is in [0, len(x)), that the
// marks describe the stored data, and that perm is a permutation of
// [0, len(y)); MulVec's length checks carry over to x and y.
//
//go:noescape
func sellStretch8(val *float64, col *int32, x, y *float64, rowLen, perm *int, unit, same *uint64, run *bool, n int) int
