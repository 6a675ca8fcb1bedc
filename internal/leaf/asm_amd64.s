//go:build amd64 && !noasm

#include "textflag.h"

// The amd64 micro-kernels: an MR×4 block of C in eight vector
// accumulators, MR = 8 in YMM (AVX2/FMA) and 16 in ZMM (AVX-512F), one
// macro body instantiated in each width. Register plan, V = Y or Z:
//
//	V0..V7   the C block: column j upper half in V(2j), lower half in
//	         V(2j+1). Loaded before the k loop, stored once after — the
//	         accumulate (C += A·B) contract with no separate epilogue add —
//	         or, in the store form (C ← A·B), started at +0 and never read.
//	V8, V9   the MR A values of the current k step.
//	V10..V13 the 4 B values of the current k step, broadcast.
//
// Eight independent FMA chains keep both FMA pipes saturated (latency 4,
// throughput 2/cycle needs ≥ 8 in flight). The k loop is not unrolled:
// 6 loads + 8 FMAs per step already bound the loop on the FMA ports.
//
// Every C element sees the same fused operations in the same order in
// both widths — its own C value (+0 when storing) first, then ascending
// k — so the two families round identically (TestAVX512MatchesAVX2Bits),
// and a store is an accumulation into a C of +0, bit for bit.

// LOADC/STOREC move the C block at cp (column stride ldc bytes in R8,
// 3·ldc in R9) into and out of the accumulators; off is the byte offset
// of the lower half, 32 for YMM and 64 for ZMM.
#define LOADC(cp, off, V0, V1, V2, V3, V4, V5, V6, V7) \
	VMOVUPD (cp), V0; \
	VMOVUPD off(cp), V1; \
	VMOVUPD (cp)(R8*1), V2; \
	VMOVUPD off(cp)(R8*1), V3; \
	VMOVUPD (cp)(R8*2), V4; \
	VMOVUPD off(cp)(R8*2), V5; \
	VMOVUPD (cp)(R9*1), V6; \
	VMOVUPD off(cp)(R9*1), V7

#define STOREC(cp, off, V0, V1, V2, V3, V4, V5, V6, V7) \
	VMOVUPD V0, (cp); \
	VMOVUPD V1, off(cp); \
	VMOVUPD V2, (cp)(R8*1); \
	VMOVUPD V3, off(cp)(R8*1); \
	VMOVUPD V4, (cp)(R8*2); \
	VMOVUPD V5, off(cp)(R8*2); \
	VMOVUPD V6, (cp)(R9*1); \
	VMOVUPD V7, off(cp)(R9*1)

// ZEROC starts the accumulators at +0, the store form's LOADC. XOR is
// VXORPD in YMM and VPXORQ in ZMM: VXORPD on ZMM needs AVX512DQ, and the
// 16-row family is gated on AVX512F alone.
#define ZEROC(XOR, V0, V1, V2, V3, V4, V5, V6, V7) \
	XOR V0, V0, V0; \
	XOR V1, V1, V1; \
	XOR V2, V2, V2; \
	XOR V3, V3, V3; \
	XOR V4, V4, V4; \
	XOR V5, V5, V5; \
	XOR V6, V6, V6; \
	XOR V7, V7, V7

// FMA8 is the eight fused multiply-adds of one k step.
#define FMA8(A0, A1, B0, B1, B2, B3, V0, V1, V2, V3, V4, V5, V6, V7) \
	VFMADD231PD B0, A0, V0; \
	VFMADD231PD B0, A1, V1; \
	VFMADD231PD B1, A0, V2; \
	VFMADD231PD B1, A1, V3; \
	VFMADD231PD B2, A0, V4; \
	VFMADD231PD B2, A1, V5; \
	VFMADD231PD B3, A0, V6; \
	VFMADD231PD B3, A1, V7

// PANELBODY is the whole-panel kernel,
//
//	func(rows, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int, store bool)
//
// C[0:rows,0:n] += A·B on column-major operands read in place at their
// leading dimensions (a contiguous tile or a strided view alike), rows a
// positive multiple of MR, n of 4, k ≥ 1; with store set, C ← A·B, each
// block's accumulators started at +0 (ZEROC) instead of loaded from C
// (LOADC). All three loops run here: the
// column blocks outermost (the four B columns of a block stay in L1
// while the row blocks stream past them), the row blocks next, k
// innermost. The B columns of a block are one pointer and the index
// registers ldb (R10) and 3·ldb (R11), so a k step advances two
// pointers, not five.
//
//	AX   lda in bytes        BX   column blocks left
//	DX   B at this column block, DI C at this column block
//	R12  C at this block     R13  row blocks left     SI A at this row block
//	R14  A at this k step    R15  B at this k step    CX k steps left
#define PANELBODY(XOR, off, rstep, A0, A1, B0, B1, B2, B3, V0, V1, V2, V3, V4, V5, V6, V7) \
	MOVQ n+8(FP), BX; \
	SHRQ $2, BX; \
	MOVQ lda+48(FP), AX; \
	SHLQ $3, AX; \
	MOVQ b_base+56(FP), DX; \
	MOVQ ldb+80(FP), R10; \
	SHLQ $3, R10; \
	LEAQ (R10)(R10*2), R11; \
	MOVQ c_base+88(FP), DI; \
	MOVQ ldc+112(FP), R8; \
	SHLQ $3, R8; \
	LEAQ (R8)(R8*2), R9; \
jloop: \
	MOVQ a_base+24(FP), SI; \
	MOVQ DI, R12; \
	MOVQ rows+0(FP), R13; \
iloop: \
	CMPB store+120(FP), $0; \
	JNE  zeroc; \
	LOADC(R12, off, V0, V1, V2, V3, V4, V5, V6, V7); \
	JMP  kstart; \
zeroc: \
	ZEROC(XOR, V0, V1, V2, V3, V4, V5, V6, V7); \
kstart: \
	MOVQ SI, R14; \
	MOVQ DX, R15; \
	MOVQ k+16(FP), CX; \
kloop: \
	VMOVUPD      (R14), A0; \
	VMOVUPD      off(R14), A1; \
	VBROADCASTSD (R15), B0; \
	VBROADCASTSD (R15)(R10*1), B1; \
	VBROADCASTSD (R15)(R10*2), B2; \
	VBROADCASTSD (R15)(R11*1), B3; \
	FMA8(A0, A1, B0, B1, B2, B3, V0, V1, V2, V3, V4, V5, V6, V7); \
	ADDQ         AX, R14; \
	ADDQ         $8, R15; \
	DECQ         CX; \
	JNZ          kloop; \
	STOREC(R12, off, V0, V1, V2, V3, V4, V5, V6, V7); \
	ADDQ $rstep, SI; \
	ADDQ $rstep, R12; \
	SUBQ $(rstep/8), R13; \
	JNZ  iloop; \
	LEAQ (DX)(R10*4), DX; \
	LEAQ (DI)(R8*4), DI; \
	DECQ BX; \
	JNZ  jloop; \
	VZEROUPPER; \
	RET

// func panel8x4AVX2(rows, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int, store bool)
TEXT ·panel8x4AVX2(SB), NOSPLIT, $0-121
	PANELBODY(VXORPD, 32, 64, Y8, Y9, Y10, Y11, Y12, Y13, Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7)

// func panel16x4AVX512(rows, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int, store bool)
TEXT ·panel16x4AVX512(SB), NOSPLIT, $0-121
	PANELBODY(VPXORQ, 64, 128, Z8, Z9, Z10, Z11, Z12, Z13, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7)

// func prefetchCols(a []float64, rows, cols, lda int)
//
// Each column's lines run from the one holding its first element to the
// one holding its last.
TEXT ·prefetchCols(SB), NOSPLIT, $0-48
	MOVQ a_base+0(FP), SI
	MOVQ rows+24(FP), CX
	MOVQ cols+32(FP), BX
	MOVQ lda+40(FP), DX
	SHLQ $3, CX              // column bytes
	SHLQ $3, DX              // column stride in bytes
pcol:
	LEAQ (SI)(CX*1), DI      // the column's end
	MOVQ SI, AX
	ANDQ $-64, AX            // the line of its first element
pline:
	PREFETCHT0 (AX)
	ADDQ $64, AX
	CMPQ AX, DI
	JCS  pline
	ADDQ DX, SI
	DECQ BX
	JNZ  pcol
	RET
