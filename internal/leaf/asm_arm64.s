//go:build arm64 && !noasm

#include "textflag.h"

// The NEON 4×4 micro-kernel. Register plan:
//
//	V0..V7   the 4×4 C block: column j rows 0-1 in V(2j), rows 2-3 in
//	         V(2j+1). Loaded before the k loop, stored once after.
//	V16, V17 the 4 A values of the current k step.
//	V20..V23 the 4 B values of the current k step, broadcast.
//
// Eight independent FMLA chains cover the FMA latency of every AArch64
// core with two 128-bit FP pipes.

// func micro4x4ddNEON(kc int, a []float64, lda int, b0, b1, b2, b3 []float64, c []float64, ldc int)
//
// A and B read in place: A advances lda doubles per k step (the 4
// loaded values are contiguous), each B column pointer one double.
TEXT ·micro4x4ddNEON(SB), NOSPLIT, $0-168
	MOVD kc+0(FP), R0
	MOVD a_base+8(FP), R1
	MOVD lda+32(FP), R2
	LSL  $3, R2, R2          // A column stride in bytes
	MOVD b0_base+40(FP), R8
	MOVD b1_base+64(FP), R9
	MOVD b2_base+88(FP), R10
	MOVD b3_base+112(FP), R11
	MOVD c_base+136(FP), R3
	MOVD ldc+160(FP), R4
	LSL  $3, R4, R4          // ldc in bytes
	ADD  R4, R3, R5          // column 1
	ADD  R4, R5, R6          // column 2
	ADD  R4, R6, R7          // column 3

	VLD1 (R3), [V0.D2, V1.D2]
	VLD1 (R5), [V2.D2, V3.D2]
	VLD1 (R6), [V4.D2, V5.D2]
	VLD1 (R7), [V6.D2, V7.D2]

	CBZ R0, dd_done

dd_loop:
	VLD1  (R1), [V16.D2, V17.D2]
	ADD   R2, R1, R1
	FMOVD (R8), F20
	FMOVD (R9), F21
	FMOVD (R10), F22
	FMOVD (R11), F23
	ADD   $8, R8, R8
	ADD   $8, R9, R9
	ADD   $8, R10, R10
	ADD   $8, R11, R11
	VDUP  V20.D[0], V20.D2
	VDUP  V21.D[0], V21.D2
	VDUP  V22.D[0], V22.D2
	VDUP  V23.D[0], V23.D2
	VFMLA V20.D2, V16.D2, V0.D2
	VFMLA V20.D2, V17.D2, V1.D2
	VFMLA V21.D2, V16.D2, V2.D2
	VFMLA V21.D2, V17.D2, V3.D2
	VFMLA V22.D2, V16.D2, V4.D2
	VFMLA V22.D2, V17.D2, V5.D2
	VFMLA V23.D2, V16.D2, V6.D2
	VFMLA V23.D2, V17.D2, V7.D2
	SUBS  $1, R0, R0
	BNE   dd_loop

dd_done:
	VST1 [V0.D2, V1.D2], (R3)
	VST1 [V2.D2, V3.D2], (R5)
	VST1 [V4.D2, V5.D2], (R6)
	VST1 [V6.D2, V7.D2], (R7)
	RET

// func prefetchCols(a []float64, rows, cols, lda int)
//
// Each column's lines run from the one holding its first element to the
// one holding its last.
TEXT ·prefetchCols(SB), NOSPLIT, $0-48
	MOVD a_base+0(FP), R0
	MOVD rows+24(FP), R1
	MOVD cols+32(FP), R2
	MOVD lda+40(FP), R3
	LSL  $3, R1, R1          // column bytes
	LSL  $3, R3, R3          // column stride in bytes
pcol:
	ADD  R1, R0, R4          // the column's end
	AND  $~63, R0, R5        // the line of its first element
pline:
	PRFM (R5), PLDL1KEEP
	ADD  $64, R5, R5
	CMP  R4, R5
	BLO  pline
	ADD  R3, R0, R0
	SUBS $1, R2, R2
	BNE  pcol
	RET
