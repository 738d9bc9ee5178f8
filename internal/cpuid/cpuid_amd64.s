#include "textflag.h"

// func AVX2() bool
//
// AVX2 is usable when CPUID.1:ECX reports AVX and OSXSAVE, XCR0 has the SSE
// and AVX (YMM) state bits set by the OS, and CPUID.(7,0):EBX reports AVX2.
TEXT ·AVX2(SB), NOSPLIT, $0-1
	MOVB	$0, ret+0(FP)
	XORL	AX, AX
	XORL	CX, CX
	CPUID
	CMPL	AX, $7
	JLT	done
	MOVL	$1, AX
	XORL	CX, CX
	CPUID
	ANDL	$0x18000000, CX // OSXSAVE (bit 27) | AVX (bit 28)
	CMPL	CX, $0x18000000
	JNE	done
	XORL	CX, CX
	XGETBV
	ANDL	$6, AX // XCR0: SSE (bit 1) | AVX (bit 2)
	CMPL	AX, $6
	JNE	done
	MOVL	$7, AX
	XORL	CX, CX
	CPUID
	TESTL	$0x20, BX // AVX2 (bit 5)
	JZ	done
	MOVB	$1, ret+0(FP)

done:
	RET
