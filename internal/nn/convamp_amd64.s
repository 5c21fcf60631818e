#include "textflag.h"

// Broadcast tap i of k (DX) into both lanes of R.
#define TAP(i, R) MOVSD (i*8)(DX), R; UNPCKLPD R, R

// Add one tap row (input row at P, taps A B C) to the two cells BX, BX+1
// in X10: acc = ((acc + A·P[x−1]) + B·P[x]) + C·P[x+1], per lane.
#define ROW_PAIR(P, A, B, C) \
	MOVUPD -8(P)(BX*8), X11; MULPD  A, X11; ADDPD X11, X10; \
	MOVUPD (P)(BX*8), X11;   MULPD  B, X11; ADDPD X11, X10; \
	MOVUPD 8(P)(BX*8), X11;  MULPD  C, X11; ADDPD X11, X10

// The same for the four cells BX … BX+3, in X10 and X12.
#define ROW_QUAD(P, A, B, C) \
	MOVUPD -8(P)(BX*8), X11; MOVUPD 8(P)(BX*8), X13; MULPD A, X11; MULPD A, X13; ADDPD X11, X10; ADDPD X13, X12; \
	MOVUPD (P)(BX*8), X11;   MOVUPD 16(P)(BX*8), X13; MULPD B, X11; MULPD B, X13; ADDPD X11, X10; ADDPD X13, X12; \
	MOVUPD 8(P)(BX*8), X11;  MOVUPD 24(P)(BX*8), X13; MULPD C, X11; MULPD C, X13; ADDPD X11, X10; ADDPD X13, X12

// The same for the single cell BX, in the low lane.
#define ROW_ONE(P, A, B, C) \
	MOVSD -8(P)(BX*8), X11; MULSD A, X11; ADDSD X11, X10; \
	MOVSD (P)(BX*8), X11;   MULSD B, X11; ADDSD X11, X10; \
	MOVSD 8(P)(BX*8), X11;  MULSD C, X11; ADDSD X11, X10

// func convRowSSE2(row, src, k []float64, bias float64)
//
// Cells x = 1 … w−2 of row (w = len(row)) from len(k)/3 ∈ {1, 2, 3} input
// rows of width w at src. The caller checks the lengths.
TEXT ·convRowSSE2(SB), NOSPLIT, $0-80
	MOVQ  row_base+0(FP), DI
	MOVQ  row_len+8(FP), CX
	MOVQ  src_base+24(FP), SI
	MOVQ  k_base+48(FP), DX
	MOVQ  k_len+56(FP), R8
	MOVSD bias+72(FP), X9
	UNPCKLPD X9, X9
	LEAQ  (SI)(CX*8), R9  // tap row 1
	LEAQ  (R9)(CX*8), R10 // tap row 2
	DECQ  CX              // cells run while x < w−1
	MOVQ  $1, BX
	TAP(0, X0); TAP(1, X1); TAP(2, X2)
	CMPQ  R8, $3
	JEQ   rows1
	TAP(3, X3); TAP(4, X4); TAP(5, X5)
	CMPQ  R8, $6
	JEQ   rows2
	TAP(6, X6); TAP(7, X7); TAP(8, X8)

rows3quad:
	LEAQ   3(BX), AX
	CMPQ   AX, CX
	JGE    rows3
	MOVAPD X9, X10
	MOVAPD X9, X12
	ROW_QUAD(SI, X0, X1, X2)
	ROW_QUAD(R9, X3, X4, X5)
	ROW_QUAD(R10, X6, X7, X8)
	MOVUPD X10, (DI)(BX*8)
	MOVUPD X12, 16(DI)(BX*8)
	ADDQ   $4, BX
	JMP    rows3quad

rows3:
	LEAQ   1(BX), AX
	CMPQ   AX, CX
	JGE    rows3tail
	MOVAPD X9, X10
	ROW_PAIR(SI, X0, X1, X2)
	ROW_PAIR(R9, X3, X4, X5)
	ROW_PAIR(R10, X6, X7, X8)
	MOVUPD X10, (DI)(BX*8)
	ADDQ   $2, BX
	JMP    rows3

rows3tail:
	CMPQ   BX, CX
	JGE    done
	MOVAPD X9, X10
	ROW_ONE(SI, X0, X1, X2)
	ROW_ONE(R9, X3, X4, X5)
	ROW_ONE(R10, X6, X7, X8)
	MOVSD  X10, (DI)(BX*8)
	RET

rows2:
	LEAQ   1(BX), AX
	CMPQ   AX, CX
	JGE    rows2tail
	MOVAPD X9, X10
	ROW_PAIR(SI, X0, X1, X2)
	ROW_PAIR(R9, X3, X4, X5)
	MOVUPD X10, (DI)(BX*8)
	ADDQ   $2, BX
	JMP    rows2

rows2tail:
	CMPQ   BX, CX
	JGE    done
	MOVAPD X9, X10
	ROW_ONE(SI, X0, X1, X2)
	ROW_ONE(R9, X3, X4, X5)
	MOVSD  X10, (DI)(BX*8)
	RET

rows1:
	LEAQ   1(BX), AX
	CMPQ   AX, CX
	JGE    rows1tail
	MOVAPD X9, X10
	ROW_PAIR(SI, X0, X1, X2)
	MOVUPD X10, (DI)(BX*8)
	ADDQ   $2, BX
	JMP    rows1

rows1tail:
	CMPQ   BX, CX
	JGE    done
	MOVAPD X9, X10
	ROW_ONE(SI, X0, X1, X2)
	MOVSD  X10, (DI)(BX*8)

done:
	RET

// func windowMaxSSE2(seg []float64, best float64) float64
//
// MAXPD X, Y sets each lane of Y to Y > X ? Y : X, so with the candidate in
// Y it is the scan's `if v > best { best = v }`: a NaN candidate loses, a
// NaN best stays. Two accumulators of two lanes each, folded at the end.
TEXT ·windowMaxSSE2(SB), NOSPLIT, $0-40
	MOVQ     seg_base+0(FP), SI
	MOVQ     seg_len+8(FP), CX
	MOVSD    best+24(FP), X0
	UNPCKLPD X0, X0
	MOVAPD   X0, X1
	XORQ     BX, BX

quad:
	LEAQ   4(BX), AX
	CMPQ   AX, CX
	JGT    pair
	MOVUPD (SI)(BX*8), X2
	MOVUPD 16(SI)(BX*8), X3
	MAXPD  X0, X2
	MAXPD  X1, X3
	MOVAPD X2, X0
	MOVAPD X3, X1
	MOVQ   AX, BX
	JMP    quad

pair:
	LEAQ   2(BX), AX
	CMPQ   AX, CX
	JGT    single
	MOVUPD (SI)(BX*8), X2
	MAXPD  X0, X2
	MOVAPD X2, X0
	MOVQ   AX, BX

single:
	CMPQ  BX, CX
	JGE   fold
	MOVSD (SI)(BX*8), X2
	MAXSD X0, X2
	MOVSD X2, X0 // low lane only

fold:
	MAXPD    X1, X0
	MOVAPD   X0, X1
	UNPCKHPD X1, X1
	MAXSD    X1, X0
	MOVSD    X0, ret+32(FP)
	RET
