//go:build amd64 && !noasm

#include "textflag.h"

// The amd64 micro-kernels: an MR×4 block of C in vector accumulators,
// MR = 8 in YMM (AVX2/FMA), 16 and 32 in ZMM (AVX-512F), one panel body
// (PANELBODY) instantiated with each width's block operations. Register
// plan, V = Y or Z:
//
//	MR = 8, 16   V0..V7   the C block: column j upper half in V(2j),
//	                      lower half in V(2j+1).
//	             V8, V9   the MR A values of the current k step.
//	             V10..V13 the 4 B values of the current k step, broadcast.
//	MR = 32      Z0..Z15  the C block: rows 0–15 in Z0..Z7 and rows
//	                      16–31 in Z8..Z15, each half laid out as above.
//	             Z16..Z19 the 32 A values of the current k step.
//	             Z20..Z23 the 4 B values of the current k step, broadcast.
//
// With a pack destination, the first column block also stores each k
// step's A vectors, already in registers, into a contiguous rows×k run
// at ld rows: BX carries the pack pointer at this k step and DI the
// run's column stride (rows·8 bytes) during that block, and every later
// column block reads the run in place of A (PANELBODY).
//
// The C block is loaded before the k loop and stored once after — the
// accumulate (C += A·B) contract with no separate epilogue add — or, in
// the store form (C ← A·B), started at +0 and never read.
//
// Eight independent FMA chains are the least that keeps both FMA pipes
// busy (latency 4, throughput 2/cycle), but they do not keep them fed:
// a 16×4 step issues 6 loads for 8 FMAs, and on hot L1 tiles it reaches
// 0.70–0.89 of a register-only FMA loop. The 32×4 step issues 8 loads
// for 16 FMAs over sixteen chains and reaches 0.73–0.95 (EXPERIMENTS.md,
// "A 32-row AVX-512 block"). Unrolling the k loop by two gains nothing
// over that.
//
// Every C element sees the same fused operations in the same order in
// every width — its own C value (+0 when storing) first, then ascending
// k — so the families round identically (TestAVX512MatchesAVX2Bits),
// and a store is an accumulation into a C of +0, bit for bit.

// LOADC/STOREC move eight accumulators, four columns of two row vectors
// at byte offsets o0 and o1 of the column, into and out of the C block
// at cp (column stride ldc bytes in R8, 3·ldc in R9).
#define LOADC(cp, o0, o1, V0, V1, V2, V3, V4, V5, V6, V7) \
	VMOVUPD o0(cp), V0; \
	VMOVUPD o1(cp), V1; \
	VMOVUPD o0(cp)(R8*1), V2; \
	VMOVUPD o1(cp)(R8*1), V3; \
	VMOVUPD o0(cp)(R8*2), V4; \
	VMOVUPD o1(cp)(R8*2), V5; \
	VMOVUPD o0(cp)(R9*1), V6; \
	VMOVUPD o1(cp)(R9*1), V7

#define STOREC(cp, o0, o1, V0, V1, V2, V3, V4, V5, V6, V7) \
	VMOVUPD V0, o0(cp); \
	VMOVUPD V1, o1(cp); \
	VMOVUPD V2, o0(cp)(R8*1); \
	VMOVUPD V3, o1(cp)(R8*1); \
	VMOVUPD V4, o0(cp)(R8*2); \
	VMOVUPD V5, o1(cp)(R8*2); \
	VMOVUPD V6, o0(cp)(R9*1); \
	VMOVUPD V7, o1(cp)(R9*1)

// ZEROC starts eight accumulators at +0, the store form's LOADC. XOR is
// VXORPD in YMM and VPXORQ in ZMM: VXORPD on ZMM needs AVX512DQ, and the
// ZMM families are gated on AVX512F alone.
#define ZEROC(XOR, V0, V1, V2, V3, V4, V5, V6, V7) \
	XOR V0, V0, V0; \
	XOR V1, V1, V1; \
	XOR V2, V2, V2; \
	XOR V3, V3, V3; \
	XOR V4, V4, V4; \
	XOR V5, V5, V5; \
	XOR V6, V6, V6; \
	XOR V7, V7, V7

// LOADB broadcasts the four B values of the k step at R15 (B's column
// stride ldb bytes in R10, 3·ldb in R11).
#define LOADB(B0, B1, B2, B3) \
	VBROADCASTSD (R15), B0; \
	VBROADCASTSD (R15)(R10*1), B1; \
	VBROADCASTSD (R15)(R10*2), B2; \
	VBROADCASTSD (R15)(R11*1), B3

// FMA8 is the eight fused multiply-adds of two A vectors against the
// four B broadcasts.
#define FMA8(A0, A1, B0, B1, B2, B3, V0, V1, V2, V3, V4, V5, V6, V7) \
	VFMADD231PD B0, A0, V0; \
	VFMADD231PD B0, A1, V1; \
	VFMADD231PD B1, A0, V2; \
	VFMADD231PD B1, A1, V3; \
	VFMADD231PD B2, A0, V4; \
	VFMADD231PD B2, A1, V5; \
	VFMADD231PD B3, A0, V6; \
	VFMADD231PD B3, A1, V7

// The block operations of each width, C at R12 and A's k step at R14:
// BLKLOADn/BLKZEROn/BLKSTOREn bring the C block in, start it at +0 and
// write it out; BLKSTEPn is one k step, and BLKPACKn stores the A
// vectors that step loaded at the pack pointer BX.
#define BLKLOAD8 LOADC(R12, 0, 32, Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7)
#define BLKZERO8 ZEROC(VXORPD, Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7)
#define BLKSTORE8 STOREC(R12, 0, 32, Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7)
#define BLKSTEP8 \
	VMOVUPD (R14), Y8; \
	VMOVUPD 32(R14), Y9; \
	LOADB(Y10, Y11, Y12, Y13); \
	FMA8(Y8, Y9, Y10, Y11, Y12, Y13, Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7)

#define BLKPACK8 \
	VMOVUPD Y8, (BX); \
	VMOVUPD Y9, 32(BX)

#define BLKLOAD16 LOADC(R12, 0, 64, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7)
#define BLKZERO16 ZEROC(VPXORQ, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7)
#define BLKSTORE16 STOREC(R12, 0, 64, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7)
#define BLKSTEP16 \
	VMOVUPD (R14), Z8; \
	VMOVUPD 64(R14), Z9; \
	LOADB(Z10, Z11, Z12, Z13); \
	FMA8(Z8, Z9, Z10, Z11, Z12, Z13, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7)

#define BLKPACK16 \
	VMOVUPD Z8, (BX); \
	VMOVUPD Z9, 64(BX)

#define BLKLOAD32 \
	LOADC(R12, 0, 64, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7); \
	LOADC(R12, 128, 192, Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15)
#define BLKZERO32 \
	ZEROC(VPXORQ, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7); \
	ZEROC(VPXORQ, Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15)
#define BLKSTORE32 \
	STOREC(R12, 0, 64, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7); \
	STOREC(R12, 128, 192, Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15)
#define BLKSTEP32 \
	VMOVUPD (R14), Z16; \
	VMOVUPD 64(R14), Z17; \
	VMOVUPD 128(R14), Z18; \
	VMOVUPD 192(R14), Z19; \
	LOADB(Z20, Z21, Z22, Z23); \
	FMA8(Z16, Z17, Z20, Z21, Z22, Z23, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7); \
	FMA8(Z18, Z19, Z20, Z21, Z22, Z23, Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15)
#define BLKPACK32 \
	VMOVUPD Z16, (BX); \
	VMOVUPD Z17, 64(BX); \
	VMOVUPD Z18, 128(BX); \
	VMOVUPD Z19, 192(BX)

// PANELBODY is the whole-panel kernel,
//
//	func(rows, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int, store bool, pack []float64)
//
// C[0:rows,0:n] += A·B on column-major operands read in place at their
// leading dimensions (a contiguous tile or a strided view alike), rows a
// positive multiple of MR, n of 4, k ≥ 1; with store set, C ← A·B, each
// block's accumulators started at +0 (BLKZERO) instead of loaded from C
// (BLKLOAD). rstep is MR·8, the bytes of one block's column. All three
// loops run here: the column blocks outermost (the four B columns of a
// block stay in L1 while the row blocks stream past them), the row
// blocks next, k innermost. The B columns of a block are one pointer and
// the index registers ldb (R10) and 3·ldb (R11), so a k step advances
// two pointers, not five.
//
// A strided A whose columns share cache sets (ld a power of two) leaves
// L1 between column blocks, and each block re-reads it. With pack not
// nil (rows·k elements), the first column block runs its own row loop
// whose k steps also store the A vectors they loaded (BLKPACK) into pack
// as one rows×k run at ld rows, and the later blocks read that run:
// two or four stores a k step, of data already in registers, and no
// pass of its own. Every C element sees the same operands in the same order
// either way, so the bits do not depend on pack.
//
//	AX   lda in bytes (rows·8 once A is the pack)
//	BX   column blocks left  DX   B at this column block
//	DI   C at this column block
//	R12  C at this block     R13  row blocks left     SI A at this row block
//	R14  A at this k step    R15  B at this k step    CX k steps left
//	BX, DI during the packing block: the pack at this k step, rows·8
//
// SI walks down the rows of each column block and is wound back after
// it, to A's top or, after the packing block, the pack's.
#define PANELBODY(rstep, BLKLOAD, BLKZERO, BLKSTEP, BLKPACK, BLKSTORE) \
	MOVQ a_base+24(FP), SI; \
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
	MOVQ n+8(FP), BX; \
	SHRQ $2, BX; \
	CMPQ pack_base+128(FP), $0; \
	JEQ  jloop; \
	MOVQ DI, R12; \
	MOVQ rows+0(FP), R13; \
	MOVQ R13, DI; \
	SHLQ $3, DI; \
piloop: \
	CMPB store+120(FP), $0; \
	JNE  pzeroc; \
	BLKLOAD; \
	JMP  pkstart; \
pzeroc: \
	BLKZERO; \
pkstart: \
	MOVQ SI, R14; \
	MOVQ DX, R15; \
	MOVQ k+16(FP), CX; \
	MOVQ SI, BX; \
	SUBQ a_base+24(FP), BX; \
	ADDQ pack_base+128(FP), BX; \
pkloop: \
	BLKSTEP; \
	BLKPACK; \
	ADDQ AX, R14; \
	ADDQ $8, R15; \
	ADDQ DI, BX; \
	DECQ CX; \
	JNZ  pkloop; \
	BLKSTORE; \
	ADDQ $rstep, SI; \
	ADDQ $rstep, R12; \
	SUBQ $(rstep/8), R13; \
	JNZ  piloop; \
	MOVQ pack_base+128(FP), SI; \
	MOVQ DI, AX; \
	MOVQ c_base+88(FP), DI; \
	MOVQ n+8(FP), BX; \
	SHRQ $2, BX; \
	JMP  jnext; \
jloop: \
	MOVQ DI, R12; \
	MOVQ rows+0(FP), R13; \
iloop: \
	CMPB store+120(FP), $0; \
	JNE  zeroc; \
	BLKLOAD; \
	JMP  kstart; \
zeroc: \
	BLKZERO; \
kstart: \
	MOVQ SI, R14; \
	MOVQ DX, R15; \
	MOVQ k+16(FP), CX; \
kloop: \
	BLKSTEP; \
	ADDQ AX, R14; \
	ADDQ $8, R15; \
	DECQ CX; \
	JNZ  kloop; \
	BLKSTORE; \
	ADDQ $rstep, SI; \
	ADDQ $rstep, R12; \
	SUBQ $(rstep/8), R13; \
	JNZ  iloop; \
	MOVQ rows+0(FP), R14; \
	SHLQ $3, R14; \
	SUBQ R14, SI; \
jnext: \
	LEAQ (DX)(R10*4), DX; \
	LEAQ (DI)(R8*4), DI; \
	DECQ BX; \
	JNZ  jloop; \
	VZEROUPPER; \
	RET

// func panel8x4AVX2(rows, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int, store bool, pack []float64)
TEXT ·panel8x4AVX2(SB), NOSPLIT, $0-152
	PANELBODY(64, BLKLOAD8, BLKZERO8, BLKSTEP8, BLKPACK8, BLKSTORE8)

// func panel16x4AVX512(rows, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int, store bool, pack []float64)
TEXT ·panel16x4AVX512(SB), NOSPLIT, $0-152
	PANELBODY(128, BLKLOAD16, BLKZERO16, BLKSTEP16, BLKPACK16, BLKSTORE16)

// func panel32x4AVX512(rows, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int, store bool, pack []float64)
TEXT ·panel32x4AVX512(SB), NOSPLIT, $0-152
	PANELBODY(256, BLKLOAD32, BLKZERO32, BLKSTEP32, BLKPACK32, BLKSTORE32)

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
