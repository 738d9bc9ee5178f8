#include "textflag.h"

// Four lanes of math.Sin, math.Cos, math.Exp and math.Sqrt. Each lane runs
// the IEEE operations of the Go implementation it replaces, in the same
// order and with the same operands, so its result is that function's, bit
// for bit: sin and cos are GOROOT/src/math/sin.go (separate multiplies and
// adds, as the Go compiler emits them on amd64), exp is the FMA path of
// GOROOT/src/math/exp_amd64.s, sqrt is VSQRTPD, correctly rounded like
// SQRTSD. The sin/cos and exp kernels check each group of four before they
// compute it and stop at the first group holding a lane outside their
// domain, returning the elements done; the Go caller computes that group
// with math itself.

// CONST4 is a 32-byte read-only vector of four copies of the 64-bit v;
// CONST4D a 16-byte one of four copies of the 32-bit v.
#define CONST4(sym, v) \
	DATA sym+0(SB)/8, v; \
	DATA sym+8(SB)/8, v; \
	DATA sym+16(SB)/8, v; \
	DATA sym+24(SB)/8, v; \
	GLOBL sym(SB), RODATA|NOPTR, $32

#define CONST4D(sym, v) \
	DATA sym+0(SB)/4, v; \
	DATA sym+4(SB)/4, v; \
	DATA sym+8(SB)/4, v; \
	DATA sym+12(SB)/4, v; \
	GLOBL sym(SB), RODATA|NOPTR, $16

CONST4(absMask<>, $0x7fffffffffffffff)
CONST4(signBit<>, $0x8000000000000000)
CONST4(half<>, $0x3fe0000000000000)
CONST4(one<>, $0x3ff0000000000000)
CONST4(two<>, $0x4000000000000000)

// sin.go: reduceThreshold (1<<29), 4/Pi, and Pi/4 in three parts.
CONST4(reduceThreshold<>, $0x41c0000000000000)
CONST4(fourOverPi<>, $0x3ff45f306dc9c883)
CONST4(pi4A<>, $0x3fe921fb40000000)
CONST4(pi4B<>, $0x3e64442d00000000)
CONST4(pi4C<>, $0x3ce8469898cc5170)

// sin.go: _sin and _cos.
CONST4(sin0<>, $0x3de5d8fd1fd19ccd)
CONST4(sin1<>, $0xbe5ae5e5a9291f5d)
CONST4(sin2<>, $0x3ec71de3567d48a1)
CONST4(sin3<>, $0xbf2a01a019bfdf03)
CONST4(sin4<>, $0x3f8111111110f7d0)
CONST4(sin5<>, $0xbfc5555555555548)
CONST4(cos0<>, $0xbda8fa49a0861a9b)
CONST4(cos1<>, $0x3e21ee9d7b4e3f05)
CONST4(cos2<>, $0xbe927e4f7eac4bc6)
CONST4(cos3<>, $0x3efa01a019c844f5)
CONST4(cos4<>, $0xbf56c16c16c14f91)
CONST4(cos5<>, $0x3fa555555555554b)
CONST4D(intOne<>, $1)
CONST4D(intTwo<>, $2)

// exp_amd64.s: Overflow, LOG2E, LN2U, LN2L, the reduction's 0.0625, the
// Taylor coefficients of exprodata (with 0.5, 1.0 and 2.0 above), and the
// exponent bias.
CONST4(expOverflow<>, $0x40862e42fefa39ef)
CONST4(log2e<>, $0x3ff71547652b82fe)
CONST4(ln2U<>, $0x3fe62e42fefa3000)
CONST4(ln2L<>, $0x3d53de6af278ece6)
CONST4(sixteenth<>, $0x3fb0000000000000)
CONST4(exp24<>, $0x3fc5555555555555)
CONST4(exp32<>, $0x3fa5555555555555)
CONST4(exp40<>, $0x3f81111111111111)
CONST4(exp48<>, $0x3f56c16c16c16c17)
CONST4(exp56<>, $0x3f2a01a01a01a01a)
CONST4(exp64<>, $0x3efa01a01a01a01a)
CONST4D(expBias<>, $0x3ff)

// func sinCosAVX2(dst, x *float64, n int, cos bool) int
//
// dst[i] = math.Sin(x[i]), or math.Cos(x[i]) when cos, for whole groups of
// four while every lane is in the domain |x| < 1<<29 (NaN never is), below
// which sin.go reduces by Pi/4 in three parts. Per lane, as sin.go:
//
//	j = uint64(|x| * (4/Pi)); y = float64(j); if j&1 == 1 { j++; y++ }
//	z = ((|x| - y*PI4A) - y*PI4B) - y*PI4C; zz = z*z
//	sin poly: z + z*zz*((((((s0*zz)+s1)*zz+s2)*zz+s3)*zz+s4)*zz+s5)
//	cos poly: 1.0 - 0.5*zz + zz*zz*((((((c0*zz)+c1)*zz+c2)*zz+c3)*zz+c4)*zz+c5)
//
// j is even after the bump, so of j&7 only bits 1 and 2 matter. For sin,
// bit 1 picks the cos polynomial and bit 2, xor the sign of x, negates. Cos
// is the same body with j+2 in place of j and the sign of x dropped: its
// octant j runs the sin polynomial where bit 1 of j is set and negates where
// bits 1 and 2 differ, which is bits 1 and 2 of j+2. Both polynomials are
// computed and one is blended in per lane; the negation flips the sign bit,
// as Go's does. j < 2^30 here, so the 32-bit truncation VCVTTPD2DQ gives
// the same j as Go's conversion to uint64. sin.go returns ±0 for ±0 before
// all this; the lanes give ±0 as well (z = +0, the sin polynomial
// +0 + -0 = +0, then the sign of x), so ±0 needs no group of its own.
TEXT ·sinCosAVX2(SB), NOSPLIT, $0-40
	MOVQ	dst+0(FP), DI
	MOVQ	x+8(FP), SI
	MOVQ	n+16(FP), CX
	XORQ	AX, AX
	VMOVUPD	absMask<>(SB), Y15
	VMOVUPD	reduceThreshold<>(SB), Y14
	VMOVUPD	fourOverPi<>(SB), Y13
	VMOVDQU	intOne<>(SB), X9
	VMOVUPD	signBit<>(SB), Y8
	CMPB	cos+24(FP), $0
	JNE	cosmode
	VMOVUPD	Y8, Y11       // the sign of x counts
	VPXOR	X10, X10, X10 // octant offset 0
	JMP	trigloop

cosmode:
	VXORPD	Y11, Y11, Y11     // the sign of x does not count
	VMOVDQU	intTwo<>(SB), X10 // octant offset 2

trigloop:
	VMOVUPD	(SI), Y0
	VANDPD	Y15, Y0, Y1        // |x|
	VCMPPD	$0x11, Y14, Y1, Y2 // |x| < 1<<29 (LT_OQ: false for NaN)
	VMOVMSKPD	Y2, BX
	CMPQ	BX, $15
	JNE	trigdone

	VMULPD	Y13, Y1, Y2      // |x| * (4/Pi)
	VCVTTPD2DQY	Y2, X2   // j
	VPAND	X9, X2, X3
	VPADDD	X3, X2, X2       // j += j&1
	VCVTDQ2PD	X2, Y3   // y
	VMULPD	pi4A<>(SB), Y3, Y4
	VSUBPD	Y4, Y1, Y1
	VMULPD	pi4B<>(SB), Y3, Y4
	VSUBPD	Y4, Y1, Y1
	VMULPD	pi4C<>(SB), Y3, Y4
	VSUBPD	Y4, Y1, Y1       // z
	VMULPD	Y1, Y1, Y3       // zz

	VMULPD	sin0<>(SB), Y3, Y4
	VADDPD	sin1<>(SB), Y4, Y4
	VMULPD	Y3, Y4, Y4
	VADDPD	sin2<>(SB), Y4, Y4
	VMULPD	Y3, Y4, Y4
	VADDPD	sin3<>(SB), Y4, Y4
	VMULPD	Y3, Y4, Y4
	VADDPD	sin4<>(SB), Y4, Y4
	VMULPD	Y3, Y4, Y4
	VADDPD	sin5<>(SB), Y4, Y4
	VMULPD	Y3, Y1, Y5       // z*zz
	VMULPD	Y4, Y5, Y5
	VADDPD	Y5, Y1, Y5       // the sin polynomial

	VMULPD	cos0<>(SB), Y3, Y4
	VADDPD	cos1<>(SB), Y4, Y4
	VMULPD	Y3, Y4, Y4
	VADDPD	cos2<>(SB), Y4, Y4
	VMULPD	Y3, Y4, Y4
	VADDPD	cos3<>(SB), Y4, Y4
	VMULPD	Y3, Y4, Y4
	VADDPD	cos4<>(SB), Y4, Y4
	VMULPD	Y3, Y4, Y4
	VADDPD	cos5<>(SB), Y4, Y4
	VMULPD	Y3, Y3, Y6       // zz*zz
	VMULPD	Y4, Y6, Y6
	VMULPD	half<>(SB), Y3, Y4
	VMOVUPD	one<>(SB), Y7
	VSUBPD	Y4, Y7, Y4       // 1.0 - 0.5*zz
	VADDPD	Y6, Y4, Y4       // the cos polynomial

	VPADDD	X10, X2, X2
	VPMOVZXDQ	X2, Y2
	VPSLLQ	$62, Y2, Y6      // bit 1 of the octant into the sign position
	VBLENDVPD	Y6, Y4, Y5, Y5
	VPSLLQ	$61, Y2, Y2      // bit 2
	VANDPD	Y11, Y0, Y6
	VXORPD	Y6, Y2, Y2
	VANDPD	Y8, Y2, Y2
	VXORPD	Y2, Y5, Y5
	VMOVUPD	Y5, (DI)
	ADDQ	$32, SI
	ADDQ	$32, DI
	ADDQ	$4, AX
	SUBQ	$4, CX
	JNZ	trigloop

trigdone:
	MOVQ	AX, ret+32(FP)
	VZEROUPPER
	RET

// func expAVX2(dst, x *float64, n int) int
//
// dst[i] = math.Exp(x[i]) for whole groups of four while every lane is in
// the domain: x <= Overflow (false for NaN) and a biased exponent
// k + 0x3FF > 0, which rules out -Inf and every lane exp_amd64.s sends to
// its denormal or underflow exits. Its one other exit, overflow for
// k + 0x3FF = 0x7FF, returns +Inf; that lane's scale below is +Inf, and the
// positive fraction times +Inf is +Inf as well. Per lane, as the avxfma
// path there:
//
//	k = round(LOG2E*x); x = x - k*LN2U; x = x - k*LN2L (each one FMA)
//	x *= 0.0625; p = Taylor chain by FMA, innermost 1/40320
//	x *= p; three times x *= x + 2; then x = (x+2)*x + 1 (one FMA)
//	x *= float64 with bits (k + 0x3FF) << 52
TEXT ·expAVX2(SB), NOSPLIT, $0-32
	MOVQ	dst+0(FP), DI
	MOVQ	x+8(FP), SI
	MOVQ	n+16(FP), CX
	XORQ	AX, AX
	VMOVUPD	expOverflow<>(SB), Y15
	VMOVDQU	expBias<>(SB), X14
	VPXOR	X12, X12, X12

exploop:
	VMOVUPD	(SI), Y0
	VCMPPD	$0x12, Y15, Y0, Y1  // x <= Overflow (LE_OQ: false for NaN)
	VMULPD	log2e<>(SB), Y0, Y2
	VCVTPD2DQY	Y2, X2      // k, rounded to nearest
	VPADDD	X14, X2, X3         // biased exponent
	VPCMPGTD	X12, X3, X4 // > 0
	VPMOVSXDQ	X4, Y4
	VANDPD	Y4, Y1, Y1
	VMOVMSKPD	Y1, BX
	CMPQ	BX, $15
	JNE	expdone

	VCVTDQ2PD	X2, Y2
	VFNMADD231PD	ln2U<>(SB), Y2, Y0
	VFNMADD231PD	ln2L<>(SB), Y2, Y0
	VMULPD	sixteenth<>(SB), Y0, Y0
	VMOVUPD	exp64<>(SB), Y1
	VFMADD213PD	exp56<>(SB), Y0, Y1
	VFMADD213PD	exp48<>(SB), Y0, Y1
	VFMADD213PD	exp40<>(SB), Y0, Y1
	VFMADD213PD	exp32<>(SB), Y0, Y1
	VFMADD213PD	exp24<>(SB), Y0, Y1
	VFMADD213PD	half<>(SB), Y0, Y1
	VFMADD213PD	one<>(SB), Y0, Y1
	VMULPD	Y1, Y0, Y0
	VADDPD	two<>(SB), Y0, Y1
	VMULPD	Y1, Y0, Y0
	VADDPD	two<>(SB), Y0, Y1
	VMULPD	Y1, Y0, Y0
	VADDPD	two<>(SB), Y0, Y1
	VMULPD	Y1, Y0, Y0
	VADDPD	two<>(SB), Y0, Y1
	VFMADD213PD	one<>(SB), Y1, Y0

	VPMOVZXDQ	X3, Y3
	VPSLLQ	$52, Y3, Y3
	VMULPD	Y3, Y0, Y0
	VMOVUPD	Y0, (DI)
	ADDQ	$32, SI
	ADDQ	$32, DI
	ADDQ	$4, AX
	SUBQ	$4, CX
	JNZ	exploop

expdone:
	MOVQ	AX, ret+24(FP)
	VZEROUPPER
	RET

// func sqrtAVX2(dst, x *float64, n int)
//
// dst[i] = math.Sqrt(x[i]) over n elements, n a positive multiple of 4:
// VSQRTPD is SQRTSD in each lane, for every input.
TEXT ·sqrtAVX2(SB), NOSPLIT, $0-24
	MOVQ	dst+0(FP), DI
	MOVQ	x+8(FP), SI
	MOVQ	n+16(FP), CX

sqrtloop:
	VSQRTPD	(SI), Y0
	VMOVUPD	Y0, (DI)
	ADDQ	$32, SI
	ADDQ	$32, DI
	SUBQ	$4, CX
	JNZ	sqrtloop

	VZEROUPPER
	RET
