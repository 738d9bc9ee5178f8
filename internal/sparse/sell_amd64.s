#include "textflag.h"

// func sellStretch8(val *float64, col *int32, x, y *float64, rowLen, perm *int, unit, same *uint64, run *bool, n int) int
//
// Up to n >= 1 full-height C = 8 slices, one after another, stopping before
// the first that is not uniform: its first row is empty (w = 0) or its last
// row is shorter than its first. Returns the number of slices run. Per
// position: a set bit of same broadcasts the one stored value to
// all eight lanes, a clear one loads eight; a set bit of unit plain-loads
// x[c0:c0+8] at the one stored index, a clear one loads eight int32 indices
// and gathers x at rows 0-3 and 4-7 (two 4-lane VGATHERDPD). Either way the
// same eight values and x entries land in the same lanes as the full layout
// would put them, and are multiplied and added into two accumulators. The
// multiply and the add are separate instructions, never a fused
// multiply-add, with the operands in the CSR loop's order (value times x,
// then accumulator plus product), so each lane rounds exactly as
// `acc += v*x[c]` does in Go. A run slice then stores its sums to
// y[perm[0]:perm[0]+8] with two 4-lane stores; any other stores lane r to
// y[perm[r]].
//
// Registers: AX val, CX col, DI x, SI y, R10 rowLen, R11 perm, R12 unit,
// R13 same, R14 run (each advanced one slice at a time); DX positions left
// in the slice, BX and R8 the slice's unit and same masks; n counts down in
// its argument slot, and the slices run are read off how far R13 moved.
TEXT ·sellStretch8(SB), NOSPLIT, $0-88
	MOVQ	val+0(FP), AX
	MOVQ	col+8(FP), CX
	MOVQ	x+16(FP), DI
	MOVQ	y+24(FP), SI
	MOVQ	rowLen+32(FP), R10
	MOVQ	perm+40(FP), R11
	MOVQ	unit+48(FP), R12
	MOVQ	same+56(FP), R13
	MOVQ	run+64(FP), R14

slice:
	MOVQ	(R10), DX // w
	TESTQ	DX, DX
	JZ	done
	CMPQ	56(R10), DX // the last row's length; rows are descending
	JNE	done
	MOVQ	(R12), BX
	MOVQ	(R13), R8
	VXORPD	Y0, Y0, Y0 // rows 0-3
	VXORPD	Y1, Y1, Y1 // rows 4-7

position:
	// Shift this position's bit of each mask into the carry flag; past
	// position 63 the masks are zero and every position is stored in full.
	SHRQ	$1, R8
	JCC	values
	VBROADCASTSD	(AX), Y8
	VMOVAPD	Y8, Y9
	ADDQ	$8, AX
	JMP	index

values:
	VMOVUPD	(AX), Y8
	VMOVUPD	32(AX), Y9
	ADDQ	$64, AX

index:
	SHRQ	$1, BX
	JCC	gather
	MOVL	(CX), R9 // c0; indices are non-negative, so the zero extension is exact
	VMOVUPD	(DI)(R9*8), Y2
	VMOVUPD	32(DI)(R9*8), Y3
	ADDQ	$4, CX

madd:
	VMULPD	Y2, Y8, Y8
	VMULPD	Y3, Y9, Y9
	VADDPD	Y8, Y0, Y0
	VADDPD	Y9, Y1, Y1
	DECQ	DX
	JNZ	position

	MOVQ	(R11), R9 // perm[0]
	CMPB	(R14), $0
	JEQ	scatter
	VMOVUPD	Y0, (SI)(R9*8)
	VMOVUPD	Y1, 32(SI)(R9*8)

next:
	ADDQ	$64, R10
	ADDQ	$64, R11
	ADDQ	$8, R12
	ADDQ	$8, R13
	INCQ	R14
	DECQ	n+72(FP)
	JNZ	slice

done:
	SUBQ	same+56(FP), R13
	SHRQ	$3, R13
	MOVQ	R13, ret+80(FP)
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
	ADDQ	$32, CX
	JMP	madd

scatter:
	// Lane r of Y0 is row r, lane r of Y1 row 4+r; R9 holds perm[0].
	VEXTRACTF128	$1, Y0, X4
	VEXTRACTF128	$1, Y1, X5
	VMOVSD	X0, (SI)(R9*8)
	MOVQ	8(R11), R9
	VMOVHPD	X0, (SI)(R9*8)
	MOVQ	16(R11), R9
	VMOVSD	X4, (SI)(R9*8)
	MOVQ	24(R11), R9
	VMOVHPD	X4, (SI)(R9*8)
	MOVQ	32(R11), R9
	VMOVSD	X1, (SI)(R9*8)
	MOVQ	40(R11), R9
	VMOVHPD	X1, (SI)(R9*8)
	MOVQ	48(R11), R9
	VMOVSD	X5, (SI)(R9*8)
	MOVQ	56(R11), R9
	VMOVHPD	X5, (SI)(R9*8)
	JMP	next
