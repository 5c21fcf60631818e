#include "textflag.h"

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

// One tap for sixteen channels of the two cells BX and BX+1: the input
// values at byte offsets a (cell BX) and b (cell BX+1) from R9+BX·8 are
// broadcast, multiplied by the tap's four channel vectors at R11 and added
// to the accumulators Y0–Y3 (cell BX) and Y4–Y7 (cell BX+1). R11 then steps
// to the next tap.
#define QUAD_PAIR(a, b) \
	VBROADCASTSD a(R9)(BX*8), Y8; \
	VBROADCASTSD b(R9)(BX*8), Y9; \
	VMOVUPD (R11), Y12; VMULPD Y12, Y8, Y10; VMULPD Y12, Y9, Y11; VADDPD Y10, Y0, Y0; VADDPD Y11, Y4, Y4; \
	VMOVUPD 32(R11), Y13; VMULPD Y13, Y8, Y10; VMULPD Y13, Y9, Y11; VADDPD Y10, Y1, Y1; VADDPD Y11, Y5, Y5; \
	VMOVUPD 64(R11), Y12; VMULPD Y12, Y8, Y10; VMULPD Y12, Y9, Y11; VADDPD Y10, Y2, Y2; VADDPD Y11, Y6, Y6; \
	VMOVUPD 96(R11), Y13; VMULPD Y13, Y8, Y10; VMULPD Y13, Y9, Y11; VADDPD Y10, Y3, Y3; VADDPD Y11, Y7, Y7; \
	ADDQ R12, R11

// The same for the one cell BX, into Y0–Y3.
#define QUAD_ONE(a) \
	VBROADCASTSD a(R9)(BX*8), Y8; \
	VMULPD (R11), Y8, Y10; VADDPD Y10, Y0, Y0; \
	VMULPD 32(R11), Y8, Y11; VADDPD Y11, Y1, Y1; \
	VMULPD 64(R11), Y8, Y10; VADDPD Y10, Y2, Y2; \
	VMULPD 96(R11), Y8, Y11; VADDPD Y11, Y3, Y3; \
	ADDQ R12, R11

// One tap for four channels of the two cells BX and BX+1, into Y0 and Y4.
#define VEC_PAIR(a, b) \
	VBROADCASTSD a(R9)(BX*8), Y8; \
	VBROADCASTSD b(R9)(BX*8), Y9; \
	VMOVUPD (R11), Y12; VMULPD Y12, Y8, Y10; VMULPD Y12, Y9, Y11; VADDPD Y10, Y0, Y0; VADDPD Y11, Y4, Y4; \
	ADDQ R12, R11

// The same for the one cell BX, into Y0.
#define VEC_ONE(a) \
	VBROADCASTSD a(R9)(BX*8), Y8; \
	VMULPD (R11), Y8, Y10; VADDPD Y10, Y0, Y0; \
	ADDQ R12, R11

// func convRowAVX2(dst, src, taps, bias []float64, w, rows int)
//
// Cells x = 1 … w−2 of dst, [x][c] with s = len(bias) lanes per column,
// from rows ∈ {1, 2, 3} input rows of width w at src and their taps packed
// [tap][c]. Per block of channels (sixteen, then four at a time) the cells
// run in pairs, an odd last one alone; per lane the chain is bias, then
// VMULPD and VADDPD per tap in ascending (row, kx). The caller checks the
// lengths, w ≥ 3 and s % 4 == 0.
//
// Registers: DI dst, SI src, DX taps, R8 bias, CX w, R12 s·8, R13 rows,
// R10 the block's first channel ·8, BX the cell, R9 the tap row's input,
// R11 the tap, AX scratch.
TEXT ·convRowAVX2(SB), NOSPLIT, $0-112
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ taps_base+48(FP), DX
	MOVQ bias_base+72(FP), R8
	MOVQ bias_len+80(FP), R12
	SHLQ $3, R12
	MOVQ w+96(FP), CX
	MOVQ rows+104(FP), R13
	XORQ R10, R10

block:
	MOVQ R12, AX
	SUBQ R10, AX // bytes of lanes left
	JLE  done
	CMPQ AX, $128
	JLT  vec
	MOVQ $1, BX

quadpair:
	LEAQ 2(BX), AX
	CMPQ AX, CX // cell BX+1 is interior while BX+2 < w
	JGE  quadone
	VMOVUPD (R8)(R10*1), Y0
	VMOVUPD 32(R8)(R10*1), Y1
	VMOVUPD 64(R8)(R10*1), Y2
	VMOVUPD 96(R8)(R10*1), Y3
	VMOVAPD Y0, Y4
	VMOVAPD Y1, Y5
	VMOVAPD Y2, Y6
	VMOVAPD Y3, Y7
	MOVQ    SI, R9
	LEAQ    (DX)(R10*1), R11
	MOVQ    R13, AX

quadpairrow:
	QUAD_PAIR(-8, 0)
	QUAD_PAIR(0, 8)
	QUAD_PAIR(8, 16)
	LEAQ (R9)(CX*8), R9
	DECQ AX
	JNZ  quadpairrow
	MOVQ BX, AX
	IMULQ R12, AX
	ADDQ R10, AX
	VMOVUPD Y0, (DI)(AX*1)
	VMOVUPD Y1, 32(DI)(AX*1)
	VMOVUPD Y2, 64(DI)(AX*1)
	VMOVUPD Y3, 96(DI)(AX*1)
	ADDQ R12, AX
	VMOVUPD Y4, (DI)(AX*1)
	VMOVUPD Y5, 32(DI)(AX*1)
	VMOVUPD Y6, 64(DI)(AX*1)
	VMOVUPD Y7, 96(DI)(AX*1)
	ADDQ $2, BX
	JMP  quadpair

quadone:
	LEAQ 1(BX), AX
	CMPQ AX, CX // cell BX is interior while BX+1 < w
	JGE  quaddone
	VMOVUPD (R8)(R10*1), Y0
	VMOVUPD 32(R8)(R10*1), Y1
	VMOVUPD 64(R8)(R10*1), Y2
	VMOVUPD 96(R8)(R10*1), Y3
	MOVQ    SI, R9
	LEAQ    (DX)(R10*1), R11
	MOVQ    R13, AX

quadonerow:
	QUAD_ONE(-8)
	QUAD_ONE(0)
	QUAD_ONE(8)
	LEAQ (R9)(CX*8), R9
	DECQ AX
	JNZ  quadonerow
	MOVQ BX, AX
	IMULQ R12, AX
	ADDQ R10, AX
	VMOVUPD Y0, (DI)(AX*1)
	VMOVUPD Y1, 32(DI)(AX*1)
	VMOVUPD Y2, 64(DI)(AX*1)
	VMOVUPD Y3, 96(DI)(AX*1)

quaddone:
	ADDQ $128, R10
	JMP  block

vec:
	MOVQ $1, BX

vecpair:
	LEAQ 2(BX), AX
	CMPQ AX, CX
	JGE  vecone
	VMOVUPD (R8)(R10*1), Y0
	VMOVAPD Y0, Y4
	MOVQ    SI, R9
	LEAQ    (DX)(R10*1), R11
	MOVQ    R13, AX

vecpairrow:
	VEC_PAIR(-8, 0)
	VEC_PAIR(0, 8)
	VEC_PAIR(8, 16)
	LEAQ (R9)(CX*8), R9
	DECQ AX
	JNZ  vecpairrow
	MOVQ BX, AX
	IMULQ R12, AX
	ADDQ R10, AX
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ R12, AX
	VMOVUPD Y4, (DI)(AX*1)
	ADDQ $2, BX
	JMP  vecpair

vecone:
	LEAQ 1(BX), AX
	CMPQ AX, CX
	JGE  vecdone
	VMOVUPD (R8)(R10*1), Y0
	MOVQ    SI, R9
	LEAQ    (DX)(R10*1), R11
	MOVQ    R13, AX

veconerow:
	VEC_ONE(-8)
	VEC_ONE(0)
	VEC_ONE(8)
	LEAQ (R9)(CX*8), R9
	DECQ AX
	JNZ  veconerow
	MOVQ BX, AX
	IMULQ R12, AX
	ADDQ R10, AX
	VMOVUPD Y0, (DI)(AX*1)

vecdone:
	ADDQ $32, R10
	JMP  block

done:
	VZEROUPPER
	RET

// Fold the four-lane column vector at off(DX) into the maximum Yacc:
// VMAXPD m, c, m sets each lane of m to c > m ? c : m, the scan's
// `if v > best { best = v }` — a NaN column never wins, a NaN maximum is
// never replaced and an equal value (+0 against −0) does not displace it.
#define FOLD(off, Ycol, Yacc) \
	VMOVUPD off(DX), Ycol; \
	VMAXPD  Yacc, Ycol, Yacc

// Store the maximum Ym at off(DI), and at foff(R10) the 4-bit mask of the
// lanes where it beats the old maximum Yold (clobbered); OR the mask into R13.
#define STORE(off, foff, Ym, Yold) \
	VMOVUPD   Ym, off(DI); \
	VCMPPD    $0x1e, Yold, Ym, Yold; \
	VMOVMSKPD Yold, AX; \
	MOVB      AX, foff(R10); \
	ORQ       AX, R13

// func foldRowAVX2(best, row []float64, x0, x1 []int, flags []uint8, s int) int
//
// For each window ox, the columns x0[ox] … x1[ox]−1 of row ([x][c], s lanes
// each) are folded lane by lane, in ascending x, into best[ox·s : ox·s+s];
// flags gets one byte per four lanes, bit j set where lane j's maximum
// changed (GT_OQ: greater and neither is NaN). sixteen lanes run at once,
// the rest four at a time. The caller checks the lengths and the windows.
//
// Registers: DI best, SI row, R8 x0, R9 x1, R10 flags — all three
// advancing as the lanes are consumed; CX windows left, R12 s·8, R13 the
// OR of the masks, R11/BX the window's first/end column at the current
// lanes, DX the column, AX lane bytes left in the window.
TEXT ·foldRowAVX2(SB), NOSPLIT, $0-136
	MOVQ best_base+0(FP), DI
	MOVQ row_base+24(FP), SI
	MOVQ x0_base+48(FP), R8
	MOVQ x0_len+56(FP), CX
	MOVQ x1_base+72(FP), R9
	MOVQ flags_base+96(FP), R10
	MOVQ s+120(FP), R12
	SHLQ $3, R12
	XORQ R13, R13

window:
	TESTQ CX, CX
	JEQ   folddone
	MOVQ  (R8), R11
	MOVQ  (R9), BX
	ADDQ  $8, R8
	ADDQ  $8, R9
	DECQ  CX
	IMULQ R12, R11
	ADDQ  SI, R11
	IMULQ R12, BX
	ADDQ  SI, BX
	MOVQ  R12, AX

lanes:
	TESTQ AX, AX
	JEQ   window
	CMPQ  AX, $128
	JLT   fvec
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	VMOVAPD Y0, Y4
	VMOVAPD Y1, Y5
	VMOVAPD Y2, Y6
	VMOVAPD Y3, Y7
	MOVQ    R11, DX

fquadcol:
	CMPQ DX, BX
	JGE  fquadend
	FOLD(0, Y8, Y0)
	FOLD(32, Y9, Y1)
	FOLD(64, Y10, Y2)
	FOLD(96, Y11, Y3)
	ADDQ R12, DX
	JMP  fquadcol

fquadend:
	MOVQ AX, DX // STORE clobbers AX
	STORE(0, 0, Y0, Y4)
	STORE(32, 1, Y1, Y5)
	STORE(64, 2, Y2, Y6)
	STORE(96, 3, Y3, Y7)
	MOVQ DX, AX
	ADDQ $128, DI
	ADDQ $4, R10
	ADDQ $128, R11
	ADDQ $128, BX
	SUBQ $128, AX
	JMP  lanes

fvec:
	VMOVUPD (DI), Y0
	VMOVAPD Y0, Y4
	MOVQ    R11, DX

fveccol:
	CMPQ DX, BX
	JGE  fvecend
	FOLD(0, Y8, Y0)
	ADDQ R12, DX
	JMP  fveccol

fvecend:
	MOVQ AX, DX
	STORE(0, 0, Y0, Y4)
	MOVQ DX, AX
	ADDQ $32, DI
	ADDQ $1, R10
	ADDQ $32, R11
	ADDQ $32, BX
	SUBQ $32, AX
	JMP  lanes

folddone:
	MOVQ R13, ret+128(FP)
	VZEROUPPER
	RET
