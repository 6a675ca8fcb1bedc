//go:build amd64 && !noasm

#include "textflag.h"

// Lane l of step g holds the state s₀ + (8g+l+1)·φ, mixed by the scalar
// loop's shifts, XORs and multiplies (VPMULLQ). z>>11 is below 2⁵³, so
// VCVTQQ2PD is exact, and so is ×2⁻⁵²: −1 rounds the value the scalar
// 2·(x·2⁻⁵³) − 1 rounds, and the bits are the loop's. lanes is k·φ, k = 1…8.
DATA lanes<>+0(SB)/8, $0x9e3779b97f4a7c15
DATA lanes<>+8(SB)/8, $0x3c6ef372fe94f82a
DATA lanes<>+16(SB)/8, $0xdaa66d2c7ddf743f
DATA lanes<>+24(SB)/8, $0x78dde6e5fd29f054
DATA lanes<>+32(SB)/8, $0x1715609f7c746c69
DATA lanes<>+40(SB)/8, $0xb54cda58fbbee87e
DATA lanes<>+48(SB)/8, $0x538454127b096493
DATA lanes<>+56(SB)/8, $0xf1bbcdcbfa53e0a8
GLOBL lanes<>(SB), RODATA|NOPTR, $64

// func seedFillAVX512(dst []float64, seed uint64)
TEXT ·seedFillAVX512(SB), NOSPLIT, $0-32
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	SHRQ $3, CX
	VPBROADCASTQ seed+24(FP), Z0
	VPADDQ lanes<>(SB), Z0, Z0
	VPBROADCASTQ lanes<>+56(SB), Z1 // 8φ, one step
	MOVQ $0xbf58476d1ce4e5b9, AX
	VPBROADCASTQ AX, Z2
	MOVQ $0x94d049bb133111eb, AX
	VPBROADCASTQ AX, Z3
	MOVQ $0x3cb0000000000000, AX    // 2⁻⁵²
	VPBROADCASTQ AX, Z4
	MOVQ $0x3ff0000000000000, AX    // 1.0
	VPBROADCASTQ AX, Z5
loop:
	VPSRLQ    $30, Z0, Z6
	VPXORQ    Z0, Z6, Z6
	VPMULLQ   Z2, Z6, Z6
	VPSRLQ    $27, Z6, Z7
	VPXORQ    Z7, Z6, Z6
	VPMULLQ   Z3, Z6, Z6
	VPSRLQ    $31, Z6, Z7
	VPXORQ    Z7, Z6, Z6
	VPSRLQ    $11, Z6, Z6
	VCVTQQ2PD Z6, Z6
	VMULPD    Z4, Z6, Z6
	VSUBPD    Z5, Z6, Z6
	VMOVUPD   Z6, (DI)
	VPADDQ    Z1, Z0, Z0
	ADDQ      $64, DI
	DECQ      CX
	JNZ       loop
	VZEROUPPER
	RET
