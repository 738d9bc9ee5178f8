#include "textflag.h"

// func sellSlices8(val []float64, col []int32, x []float64, y *float64, rowLen, perm *int, unit, same *uint64, run *bool, n int)
//
// n >= 1 full-height C = 8 slices, one after another. Each runs its
// positions through one or two of three loops, by its row lengths
// w = rowLen[0] >= ... >= rowLen[7] and its marks:
//
//   - fully compact (w <= 64, every position marked in both same and unit):
//     one broadcast value times x[c0:c0+8], read straight from memory, with
//     no mask to test;
//   - otherwise, positions j < rowLen[7], which every row holds: a set bit
//     of same broadcasts the one stored value to all eight lanes, a clear
//     one loads eight; a set bit of unit plain-loads x[c0:c0+8] at the one
//     stored index, a clear one loads eight int32 indices and gathers x at
//     rows 0-3 and 4-7 (two 4-lane VGATHERDPD);
//   - then, in a ragged slice (rowLen[7] < w, stored in full, no marks),
//     positions rowLen[7] <= j < w under a lane mask: rowLen > j per lane
//     (VPCMPGTQ), and VBLENDVPD keeps the old sum of a row that has already
//     ended, so a padding slot never enters a sum.
//
// Either way the same eight values and x entries land in the same lanes as
// the full layout would put them, and are multiplied and added into two
// accumulators. The multiply and the add are separate instructions, never a
// fused multiply-add, with the operands in the CSR loop's order (value times
// x, then accumulator plus product), so each lane rounds exactly as
// `acc += v*x[c]` does in Go. An empty slice (w = 0) stores zeros. A run
// slice then stores its sums to y[perm[0]:perm[0]+8] with two 4-lane
// stores; any other stores lane r to y[perm[r]]. Every instruction on an
// X or Y register is VEX-encoded: a legacy-SSE one after a 256-bit one
// stalls on the upper halves.
//
// Registers: AX val, CX col, DI x, SI y, R10 rowLen, R11 perm, R12 unit,
// R13 same, R14 run (each advanced one slice at a time); DX positions left
// in the loop, BX and R8 the slice's unit and same masks; Y10/Y11 the row
// lengths, Y12 j and Y13 -1 in every lane in the masked loop; n counts down
// in its argument slot.
TEXT ·sellSlices8(SB), NOSPLIT, $0-128
	MOVQ	val_base+0(FP), AX
	MOVQ	col_base+24(FP), CX
	MOVQ	x_base+48(FP), DI
	MOVQ	y+72(FP), SI
	MOVQ	rowLen+80(FP), R10
	MOVQ	perm+88(FP), R11
	MOVQ	unit+96(FP), R12
	MOVQ	same+104(FP), R13
	MOVQ	run+112(FP), R14
	VPCMPEQQ	Y13, Y13, Y13

slice:
	VXORPD	Y0, Y0, Y0 // rows 0-3
	VXORPD	Y1, Y1, Y1 // rows 4-7
	MOVQ	(R12), BX
	MOVQ	(R13), R8
	MOVQ	56(R10), DX // the last row's length: the positions every row holds
	CMPQ	(R10), DX
	JNE	ragged
	TESTQ	DX, DX
	JZ	store
	// Fully compact when the first position not marked both ways is w, or
	// when all 64 are marked and w = 64.
	MOVQ	BX, R9
	ANDQ	R8, R9
	NOTQ	R9
	BSFQ	R9, R9
	JNZ	first
	MOVQ	$64, R9

first:
	CMPQ	R9, DX
	JEQ	compact

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

tail:
	MOVQ	(R10), DX
	SUBQ	56(R10), DX // positions past the last row's end
	JZ	store
	VPBROADCASTQ	56(R10), Y12 // j
	VMOVDQU	(R10), Y10 // row lengths, rows 0-3
	VMOVDQU	32(R10), Y11 // rows 4-7

masked:
	VPCMPGTQ	Y12, Y10, Y14 // rowLen > j: the rows that hold position j
	VPCMPGTQ	Y12, Y11, Y15
	VMOVUPD	(AX), Y8
	VMOVUPD	32(AX), Y9
	VMOVDQU	(CX), X6
	VMOVDQU	16(CX), X7
	VPCMPEQD	Y4, Y4, Y4
	VPCMPEQD	Y5, Y5, Y5
	VXORPD	Y2, Y2, Y2
	VXORPD	Y3, Y3, Y3
	VGATHERDPD	Y4, (DI)(X6*8), Y2
	VGATHERDPD	Y5, (DI)(X7*8), Y3
	VMULPD	Y2, Y8, Y8
	VMULPD	Y3, Y9, Y9
	VADDPD	Y8, Y0, Y8
	VADDPD	Y9, Y1, Y9
	VBLENDVPD	Y14, Y8, Y0, Y0 // a row that has ended keeps its sum
	VBLENDVPD	Y15, Y9, Y1, Y1
	VPSUBQ	Y13, Y12, Y12 // j++
	ADDQ	$64, AX
	ADDQ	$32, CX
	DECQ	DX
	JNZ	masked

store:
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
	DECQ	n+120(FP)
	JNZ	slice
	VZEROUPPER
	RET

ragged:
	// Stored in full: the first rowLen[7] positions run unmasked.
	TESTQ	DX, DX
	JNZ	position
	JMP	tail

compact:
	VBROADCASTSD	(AX), Y8
	MOVL	(CX), R9
	VMULPD	(DI)(R9*8), Y8, Y2
	VMULPD	32(DI)(R9*8), Y8, Y3
	VADDPD	Y2, Y0, Y0
	VADDPD	Y3, Y1, Y1
	ADDQ	$8, AX
	ADDQ	$4, CX
	DECQ	DX
	JNZ	compact
	JMP	store

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
