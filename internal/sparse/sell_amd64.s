#include "textflag.h"

// func sellUniform8(val *float64, col *int32, w int, x *float64, sum *[8]float64, unit uint64)
//
// One uniform C = 8 slice, w >= 1 column positions. Per position: take the
// position's bit of unit. Set, the eight column indices are c0..c0+7, so
// two plain 4-lane loads read x[c0:c0+8]; clear, load the eight int32 column
// indices and gather x at rows 0-3 and 4-7 (two 4-lane VGATHERDPD). Either
// way the same eight x values land in the same lanes, and are multiplied by
// the eight values and added into two accumulators. The multiply and the
// add are separate instructions, never a fused multiply-add, with the
// operands in the CSR loop's order (value times x, then accumulator plus
// product), so each lane rounds exactly as `acc += v*x[c]` does in Go.
TEXT ·sellUniform8(SB), NOSPLIT, $0-48
	MOVQ	val+0(FP), AX
	MOVQ	col+8(FP), CX
	MOVQ	w+16(FP), DX
	MOVQ	x+24(FP), DI
	MOVQ	sum+32(FP), SI
	MOVQ	unit+40(FP), BX
	VXORPD	Y0, Y0, Y0 // rows 0-3
	VXORPD	Y1, Y1, Y1 // rows 4-7

loop:
	// Shift this position's bit into the carry flag; past position 63 the
	// mask is zero and every position gathers.
	SHRQ	$1, BX
	JCC	gather
	MOVL	(CX), R8 // c0; indices are non-negative, so the zero extension is exact
	VMOVUPD	(DI)(R8*8), Y2
	VMOVUPD	32(DI)(R8*8), Y3

madd:
	VMOVUPD	(AX), Y8
	VMOVUPD	32(AX), Y9
	VMULPD	Y2, Y8, Y8
	VMULPD	Y3, Y9, Y9
	VADDPD	Y8, Y0, Y0
	VADDPD	Y9, Y1, Y1
	ADDQ	$64, AX
	ADDQ	$32, CX
	DECQ	DX
	JNZ	loop

	VMOVUPD	Y0, (SI)
	VMOVUPD	Y1, 32(SI)
	VZEROUPPER
	RET

gather:
	VMOVDQU	(CX), X6   // column indices, rows 0-3
	VMOVDQU	16(CX), X7 // rows 4-7
	// A gather clears its mask as it completes and merges into its
	// destination, so both are reset each time: the all-ones compare and the
	// zeroing xor also break the dependency on the previous iteration.
	VPCMPEQD	Y4, Y4, Y4
	VPCMPEQD	Y5, Y5, Y5
	VXORPD	Y2, Y2, Y2
	VXORPD	Y3, Y3, Y3
	VGATHERDPD	Y4, (DI)(X6*8), Y2
	VGATHERDPD	Y5, (DI)(X7*8), Y3
	JMP	madd
