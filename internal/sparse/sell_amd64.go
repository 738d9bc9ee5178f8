package sparse

// sellSlices8 runs n >= 1 consecutive full-height C = 8 slices of one SELL
// and stores each slice's eight row sums into y. val and col start at the
// first slice's first stored value and index (empty when no slice from there
// on stores anything); each slice's data follows the previous one's in both
// streams. rowLen and perm point at the first slice's first sorted position,
// unit, same and run at its entries. For each slice the kernel reads its
// row lengths, marks, run flag and perm[0:8] itself, and for j = 0..w-1,
// w = rowLen[0], adds val*x into every lane whose row holds position j: a
// rounded multiply then a rounded add, in that order, exactly as the Go loop
// does. Bit j of same (j < 64) says position j stores one value for all
// eight rows, bit j of unit that it stores one index c0 for the columns
// c0..c0+7; an unmarked position stores eight of each, padding included. A
// run slice's sums go to y[perm[0]:perm[0]+8], any other's to y[perm[r]].
// Nothing is bounds-checked: FromCSR guarantees every index is in
// [0, len(x)), that the marks and row lengths describe the stored data, and
// that perm is a permutation of [0, len(y)); MulVec's length checks carry
// over to x and y.
//
//go:noescape
func sellSlices8(val []float64, col []int32, x []float64, y *float64, rowLen, perm *int, unit, same *uint64, run *bool, n int)
