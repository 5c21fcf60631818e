#include "textflag.h"

// Every instruction here is VEX-encoded, so no AVX-SSE transition stalls a
// kernel, and each kernel ends in VZEROUPPER for the Go code that follows.

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

// Fold the four-lane column vector at off(DX) into the maximum Yacc and
// its positions Ypos. Y12 = col > acc (GT_OQ: false where either is NaN);
// VMAXPD acc, col, acc sets each lane to col > acc ? col : acc; where Y12
// holds, the lane's position becomes the column's, Y14. That is the scan's
// `if v > best { best, at = v, x }`: a NaN column never wins, a NaN
// maximum is never replaced and an equal value (+0 against −0) does not
// displace it, so the first occurrence keeps its bits and position.
#define FOLD(off, Ycol, Yacc, Ypos) \
	VMOVUPD   off(DX), Ycol; \
	VCMPPD    $0x1e, Yacc, Ycol, Y12; \
	VMAXPD    Yacc, Ycol, Yacc; \
	VBLENDVPD Y12, Y14, Ypos, Ypos

// func foldRowAVX2(best []float64, pos []int, row []float64, x0, x1 []int, s, base int)
//
// For each window ox, the columns x0[ox] … x1[ox]−1 of row ([x][c], s lanes
// each) are folded lane by lane, in ascending x, into best[ox·s : ox·s+s],
// and pos gets base+x where column x replaced the maximum. Sixteen lanes
// run at once, the rest four at a time. The caller checks the lengths and
// the windows.
//
// Registers: DI best, R10 pos, SI row, R8 x0, R9 x1 — all four advancing as
// the lanes are consumed; CX windows left, R12 s·8, R13 the window's first
// position, R11/BX the window's first/end column at the current lanes, DX
// the column, AX lane bytes left in the window, Y14 the column's position
// in every lane, Y13 all ones (Y14 − Y13 steps it).
TEXT ·foldRowAVX2(SB), NOSPLIT, $0-136
	MOVQ      best_base+0(FP), DI
	MOVQ      pos_base+24(FP), R10
	MOVQ      row_base+48(FP), SI
	MOVQ      x0_base+72(FP), R8
	MOVQ      x0_len+80(FP), CX
	MOVQ      x1_base+96(FP), R9
	MOVQ      s+120(FP), R12
	SHLQ      $3, R12
	VPCMPEQQ  Y13, Y13, Y13

window:
	TESTQ CX, CX
	JEQ   folddone
	MOVQ  (R8), R11
	MOVQ  (R9), BX
	ADDQ  $8, R8
	ADDQ  $8, R9
	DECQ  CX
	MOVQ  R11, R13
	ADDQ  base+128(FP), R13
	IMULQ R12, R11
	ADDQ  SI, R11
	IMULQ R12, BX
	ADDQ  SI, BX
	MOVQ  R12, AX

lanes:
	TESTQ AX, AX
	JEQ   window
	VMOVQ R13, X14
	VPBROADCASTQ X14, Y14
	CMPQ  AX, $128
	JLT   fvec
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	VMOVDQU (R10), Y4
	VMOVDQU 32(R10), Y5
	VMOVDQU 64(R10), Y6
	VMOVDQU 96(R10), Y7
	MOVQ    R11, DX

fquadcol:
	CMPQ DX, BX
	JGE  fquadend
	FOLD(0, Y8, Y0, Y4)
	FOLD(32, Y9, Y1, Y5)
	FOLD(64, Y10, Y2, Y6)
	FOLD(96, Y11, Y3, Y7)
	VPSUBQ Y13, Y14, Y14
	ADDQ   R12, DX
	JMP    fquadcol

fquadend:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVDQU Y4, (R10)
	VMOVDQU Y5, 32(R10)
	VMOVDQU Y6, 64(R10)
	VMOVDQU Y7, 96(R10)
	ADDQ    $128, DI
	ADDQ    $128, R10
	ADDQ    $128, R11
	ADDQ    $128, BX
	SUBQ    $128, AX
	JMP     lanes

fvec:
	VMOVUPD (DI), Y0
	VMOVDQU (R10), Y4
	MOVQ    R11, DX

fveccol:
	CMPQ DX, BX
	JGE  fvecend
	FOLD(0, Y8, Y0, Y4)
	VPSUBQ Y13, Y14, Y14
	ADDQ   R12, DX
	JMP    fveccol

fvecend:
	VMOVUPD Y0, (DI)
	VMOVDQU Y4, (R10)
	ADDQ    $32, DI
	ADDQ    $32, R10
	ADDQ    $32, R11
	ADDQ    $32, BX
	SUBQ    $32, AX
	JMP     lanes

folddone:
	VZEROUPPER
	RET

// One tap for the 32 lanes Y0–Y7 of a Conv2D cell: broadcast the input
// value at (R13), multiply it by the tap's eight channel vectors at (AX)
// and add the products in.
#define TAP32 \
	VBROADCASTSD (R13), Y8; \
	VMULPD (AX), Y8, Y9; VADDPD Y9, Y0, Y0; \
	VMULPD 32(AX), Y8, Y10; VADDPD Y10, Y1, Y1; \
	VMULPD 64(AX), Y8, Y11; VADDPD Y11, Y2, Y2; \
	VMULPD 96(AX), Y8, Y12; VADDPD Y12, Y3, Y3; \
	VMULPD 128(AX), Y8, Y9; VADDPD Y9, Y4, Y4; \
	VMULPD 160(AX), Y8, Y10; VADDPD Y10, Y5, Y5; \
	VMULPD 192(AX), Y8, Y11; VADDPD Y11, Y6, Y6; \
	VMULPD 224(AX), Y8, Y12; VADDPD Y12, Y7, Y7

// The same for the four lanes Y0.
#define TAP4 \
	VBROADCASTSD (R13), Y8; \
	VMULPD (AX), Y8, Y9; VADDPD Y9, Y0, Y0

// func conv2dCellAVX2(dst, src, taps, bias []float64, inC, nky, nkx, rowSkip, icSkip, tapRowSkip, tapICSkip int)
//
// One Conv2D output cell, s = len(bias) lanes: per block of lanes (32,
// then four at a time) the accumulators start at the bias and add, per
// in-bounds tap in ascending (ic, ky, kx), the input value times the tap's
// channels — Conv2D's reference chain in every lane. The caller checks the
// lengths and s % 4 == 0.
//
// The walk per block: for CX = inC input channels, R12 = nky rows, BX =
// nkx taps, one tap each, stepping the input R13 by 8 and the taps AX by
// R9 = s·8, then by the row and the channel skips.
//
// Registers: DI dst, SI src, DX taps, R8 bias, R9 s·8, R10 the block's
// first lane ·8, R13 the input, AX the tap, CX/R12/BX the channels, rows
// and taps left.
TEXT ·conv2dCellAVX2(SB), NOSPLIT, $0-152
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ taps_base+48(FP), DX
	MOVQ bias_base+72(FP), R8
	MOVQ bias_len+80(FP), R9
	SHLQ $3, R9
	XORQ R10, R10

cellblock:
	MOVQ R9, AX
	SUBQ R10, AX // bytes of lanes left
	JLE  celldone
	CMPQ AX, $256
	JLT  cellvec
	VMOVUPD (R8)(R10*1), Y0
	VMOVUPD 32(R8)(R10*1), Y1
	VMOVUPD 64(R8)(R10*1), Y2
	VMOVUPD 96(R8)(R10*1), Y3
	VMOVUPD 128(R8)(R10*1), Y4
	VMOVUPD 160(R8)(R10*1), Y5
	VMOVUPD 192(R8)(R10*1), Y6
	VMOVUPD 224(R8)(R10*1), Y7
	MOVQ    SI, R13
	LEAQ    (DX)(R10*1), AX
	MOVQ inC+96(FP), CX

octic:
	TESTQ CX, CX
	JEQ   octend
	MOVQ  nky+104(FP), R12

octky:
	TESTQ R12, R12
	JEQ   octicnext
	MOVQ  nkx+112(FP), BX

octkx:
	TESTQ BX, BX
	JEQ   octkynext
	TAP32
	ADDQ  $8, R13
	ADDQ  R9, AX
	DECQ  BX
	JMP   octkx

octkynext:
	ADDQ rowSkip+120(FP), R13
	ADDQ tapRowSkip+136(FP), AX
	DECQ R12
	JMP  octky

octicnext:
	ADDQ icSkip+128(FP), R13
	ADDQ tapICSkip+144(FP), AX
	DECQ CX
	JMP  octic

octend:
	VMOVUPD Y0, (DI)(R10*1)
	VMOVUPD Y1, 32(DI)(R10*1)
	VMOVUPD Y2, 64(DI)(R10*1)
	VMOVUPD Y3, 96(DI)(R10*1)
	VMOVUPD Y4, 128(DI)(R10*1)
	VMOVUPD Y5, 160(DI)(R10*1)
	VMOVUPD Y6, 192(DI)(R10*1)
	VMOVUPD Y7, 224(DI)(R10*1)
	ADDQ    $256, R10
	JMP     cellblock

cellvec:
	VMOVUPD (R8)(R10*1), Y0
	MOVQ    SI, R13
	LEAQ    (DX)(R10*1), AX
	MOVQ inC+96(FP), CX

vecic:
	TESTQ CX, CX
	JEQ   vecend
	MOVQ  nky+104(FP), R12

vecky:
	TESTQ R12, R12
	JEQ   vecicnext
	MOVQ  nkx+112(FP), BX

veckx:
	TESTQ BX, BX
	JEQ   veckynext
	TAP4
	ADDQ  $8, R13
	ADDQ  R9, AX
	DECQ  BX
	JMP   veckx

veckynext:
	ADDQ rowSkip+120(FP), R13
	ADDQ tapRowSkip+136(FP), AX
	DECQ R12
	JMP  vecky

vecicnext:
	ADDQ icSkip+128(FP), R13
	ADDQ tapICSkip+144(FP), AX
	DECQ CX
	JMP  vecic

vecend:
	VMOVUPD Y0, (DI)(R10*1)
	ADDQ    $32, R10
	JMP     cellblock

celldone:
	VZEROUPPER
	RET
