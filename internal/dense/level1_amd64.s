#include "textflag.h"

// Every kernel walks n elements (n > 0, a multiple of 16) in blocks of 16:
// four 4-wide YMM registers per operand, register r covering elements
// 4r..4r+3 of the block. The reductions keep lanes 4r..4r+3 in Y<r>, loaded
// from and stored back to *l. Operands of each multiply and add are in the
// Go loop's order, and a multiply is always rounded before its add (VMULPD
// then VADDPD, never a fused multiply-add).

// func dotLanesAVX2(l *lanes, x, y *float64, n int)
//
// l[i%16] += x[i]*y[i].
TEXT ·dotLanesAVX2(SB), NOSPLIT, $0-32
	MOVQ	l+0(FP), R8
	MOVQ	x+8(FP), SI
	MOVQ	y+16(FP), DX
	MOVQ	n+24(FP), CX
	VMOVUPD	(R8), Y0
	VMOVUPD	32(R8), Y1
	VMOVUPD	64(R8), Y2
	VMOVUPD	96(R8), Y3

dotloop:
	VMOVUPD	(SI), Y4
	VMOVUPD	32(SI), Y5
	VMOVUPD	64(SI), Y6
	VMOVUPD	96(SI), Y7
	VMULPD	(DX), Y4, Y4
	VMULPD	32(DX), Y5, Y5
	VMULPD	64(DX), Y6, Y6
	VMULPD	96(DX), Y7, Y7
	VADDPD	Y4, Y0, Y0
	VADDPD	Y5, Y1, Y1
	VADDPD	Y6, Y2, Y2
	VADDPD	Y7, Y3, Y3
	ADDQ	$128, SI
	ADDQ	$128, DX
	SUBQ	$16, CX
	JNZ	dotloop

	VMOVUPD	Y0, (R8)
	VMOVUPD	Y1, 32(R8)
	VMOVUPD	Y2, 64(R8)
	VMOVUPD	Y3, 96(R8)
	VZEROUPPER
	RET

// func waxpyDotLanesAVX2(l *lanes, alpha float64, x, y, w *float64, n int)
//
// w[i] = y[i] + alpha*x[i]; l[i%16] += w[i]*w[i]. A block of y is loaded
// before the same block of w is stored, so w may be y.
TEXT ·waxpyDotLanesAVX2(SB), NOSPLIT, $0-48
	MOVQ	l+0(FP), R8
	VBROADCASTSD	alpha+8(FP), Y15
	MOVQ	x+16(FP), SI
	MOVQ	y+24(FP), DX
	MOVQ	w+32(FP), DI
	MOVQ	n+40(FP), CX
	VMOVUPD	(R8), Y0
	VMOVUPD	32(R8), Y1
	VMOVUPD	64(R8), Y2
	VMOVUPD	96(R8), Y3

waxpyloop:
	VMULPD	(SI), Y15, Y4
	VMULPD	32(SI), Y15, Y5
	VMULPD	64(SI), Y15, Y6
	VMULPD	96(SI), Y15, Y7
	VMOVUPD	(DX), Y8
	VMOVUPD	32(DX), Y9
	VMOVUPD	64(DX), Y10
	VMOVUPD	96(DX), Y11
	VADDPD	Y4, Y8, Y4
	VADDPD	Y5, Y9, Y5
	VADDPD	Y6, Y10, Y6
	VADDPD	Y7, Y11, Y7
	VMOVUPD	Y4, (DI)
	VMOVUPD	Y5, 32(DI)
	VMOVUPD	Y6, 64(DI)
	VMOVUPD	Y7, 96(DI)
	VMULPD	Y4, Y4, Y4
	VMULPD	Y5, Y5, Y5
	VMULPD	Y6, Y6, Y6
	VMULPD	Y7, Y7, Y7
	VADDPD	Y4, Y0, Y0
	VADDPD	Y5, Y1, Y1
	VADDPD	Y6, Y2, Y2
	VADDPD	Y7, Y3, Y3
	ADDQ	$128, SI
	ADDQ	$128, DX
	ADDQ	$128, DI
	SUBQ	$16, CX
	JNZ	waxpyloop

	VMOVUPD	Y0, (R8)
	VMOVUPD	Y1, 32(R8)
	VMOVUPD	Y2, 64(R8)
	VMOVUPD	Y3, 96(R8)
	VZEROUPPER
	RET

// func axpbyAVX2(a float64, x *float64, b float64, d *float64, n int)
//
// d[i] = a*x[i] + b*d[i].
TEXT ·axpbyAVX2(SB), NOSPLIT, $0-40
	VBROADCASTSD	a+0(FP), Y14
	MOVQ	x+8(FP), SI
	VBROADCASTSD	b+16(FP), Y15
	MOVQ	d+24(FP), DI
	MOVQ	n+32(FP), CX

axpbyloop:
	VMULPD	(SI), Y14, Y0
	VMULPD	32(SI), Y14, Y1
	VMULPD	64(SI), Y14, Y2
	VMULPD	96(SI), Y14, Y3
	VMULPD	(DI), Y15, Y4
	VMULPD	32(DI), Y15, Y5
	VMULPD	64(DI), Y15, Y6
	VMULPD	96(DI), Y15, Y7
	VADDPD	Y4, Y0, Y0
	VADDPD	Y5, Y1, Y1
	VADDPD	Y6, Y2, Y2
	VADDPD	Y7, Y3, Y3
	VMOVUPD	Y0, (DI)
	VMOVUPD	Y1, 32(DI)
	VMOVUPD	Y2, 64(DI)
	VMOVUPD	Y3, 96(DI)
	ADDQ	$128, SI
	ADDQ	$128, DI
	SUBQ	$16, CX
	JNZ	axpbyloop

	VZEROUPPER
	RET
