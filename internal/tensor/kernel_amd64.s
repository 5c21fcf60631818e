#include "textflag.h"

// Every instruction here is VEX-encoded: a legacy-SSE instruction after a
// 256-bit one pays an AVX-SSE transition on some CPUs, and one scalar
// MOVSD inside a matmul loop like the one below made it run 7× slower
// than the Go loop. Each kernel ends in VZEROUPPER for the Go code that
// follows.

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// Multiply the broadcast a[i][k] in Y8 by the four columns at off(R13)
// and add the products to Yacc.
#define MULADD(off, Yacc, Ytmp) \
	VMULPD off(R13), Y8, Ytmp; \
	VADDPD Ytmp, Yacc, Yacc

// func matMulAVX2(dst, a, b []float64, n, k, m, cols, acc int)
//
// dst = a·b, or with acc ≠ 0 dst += a·b, over columns 0 … cols−1 of every
// row, a n×k, b k×m and dst n×m row-major. Per row the columns run 32 at a
// time in Y0–Y7, then four at a time in Y0; per lane the accumulator starts
// at +0, or at dst's value, and adds a[i][k]·b[k][j] for k ascending —
// every term, zeros included, which leaves MatMulInto's oracle's bits only
// where b is finite (see matMulKernel) and is AddVecMatInto's chain
// exactly. The caller checks the lengths, and that cols is a multiple of 4
// no larger than m.
//
// Registers: DI dst's row, SI a's row, DX b, R8 rows left, R9 k, R10 m·8,
// R11 cols·8, BX the block's first column ·8, R12 a[i][k], R13 b[k] at the
// block, CX k left, AX scratch.
TEXT ·matMulAVX2(SB), NOSPLIT, $0-112
	MOVQ   dst_base+0(FP), DI
	MOVQ   a_base+24(FP), SI
	MOVQ   b_base+48(FP), DX
	MOVQ   n+72(FP), R8
	MOVQ   k+80(FP), R9
	MOVQ   m+88(FP), R10
	SHLQ   $3, R10
	MOVQ   cols+96(FP), R11
	SHLQ   $3, R11

row:
	TESTQ R8, R8
	JEQ   done
	XORQ  BX, BX

block:
	MOVQ R11, AX
	SUBQ BX, AX // bytes of columns left
	JLE  rownext
	CMPQ AX, $256
	JLT  vec
	CMPQ acc+104(FP), $0
	JNE  octload
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	JMP    octgo

octload:
	VMOVUPD (DI)(BX*1), Y0
	VMOVUPD 32(DI)(BX*1), Y1
	VMOVUPD 64(DI)(BX*1), Y2
	VMOVUPD 96(DI)(BX*1), Y3
	VMOVUPD 128(DI)(BX*1), Y4
	VMOVUPD 160(DI)(BX*1), Y5
	VMOVUPD 192(DI)(BX*1), Y6
	VMOVUPD 224(DI)(BX*1), Y7

octgo:
	MOVQ   SI, R12
	LEAQ   (DX)(BX*1), R13
	MOVQ   R9, CX
	TESTQ  CX, CX
	JEQ    octstore

octk:
	VBROADCASTSD (R12), Y8
	MULADD(0, Y0, Y9)
	MULADD(32, Y1, Y10)
	MULADD(64, Y2, Y11)
	MULADD(96, Y3, Y12)
	MULADD(128, Y4, Y9)
	MULADD(160, Y5, Y10)
	MULADD(192, Y6, Y11)
	MULADD(224, Y7, Y12)
	ADDQ $8, R12
	ADDQ R10, R13
	DECQ CX
	JNZ  octk

octstore:
	VMOVUPD Y0, (DI)(BX*1)
	VMOVUPD Y1, 32(DI)(BX*1)
	VMOVUPD Y2, 64(DI)(BX*1)
	VMOVUPD Y3, 96(DI)(BX*1)
	VMOVUPD Y4, 128(DI)(BX*1)
	VMOVUPD Y5, 160(DI)(BX*1)
	VMOVUPD Y6, 192(DI)(BX*1)
	VMOVUPD Y7, 224(DI)(BX*1)
	ADDQ    $256, BX
	JMP     block

vec:
	CMPQ    acc+104(FP), $0
	JNE     vecload
	VXORPD  Y0, Y0, Y0
	JMP     vecgo

vecload:
	VMOVUPD (DI)(BX*1), Y0

vecgo:
	MOVQ   SI, R12
	LEAQ   (DX)(BX*1), R13
	MOVQ   R9, CX
	TESTQ  CX, CX
	JEQ    vecstore

veck:
	VBROADCASTSD (R12), Y8
	MULADD(0, Y0, Y9)
	ADDQ $8, R12
	ADDQ R10, R13
	DECQ CX
	JNZ  veck

vecstore:
	VMOVUPD Y0, (DI)(BX*1)
	ADDQ    $32, BX
	JMP     block

rownext:
	LEAQ (SI)(R9*8), SI
	ADDQ R10, DI
	DECQ R8
	JMP  row

done:
	VZEROUPPER
	RET
