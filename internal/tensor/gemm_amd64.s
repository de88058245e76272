//go:build amd64 && !purego

#include "textflag.h"

// GEMM micro-kernels (DESIGN.md §14). Register convention shared by both
// kernels:
//
//	CX = kc (loop counter)   AX = ap (packed A strip, MR floats per k)
//	BX = bp (packed B strip, NR floats per k)
//	DI = &c[0][0]            SI = ldc in BYTES (shifted on entry)
//	R8 = 3*ldc bytes         R9 = &c[4][0]
//
// Each kernel loads the 8×NR C tile into vector registers, accumulates kc
// k-steps with a separate multiply and add per step (NO FMA: contraction
// would change the rounding and break the bitwise-determinism gates), and
// stores the tile back. Lanes never cross: lane j of an accumulator holds
// exactly C[i][j]'s running sum, k ascending — the same reduction schedule
// as the scalar reference kernel.

// func cpuidAsm(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidAsm(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbvAsm() (eax, edx uint32)
TEXT ·xgetbvAsm(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func microAVX28x8Asm(kc int, ap, bp, c *float32, ldc int)
//
// 8×8 tile in Y0–Y7. VBROADCASTSS from memory is a pure load µop, so the
// inner loop is bound by the two FP ports: 8 VMULPS + 8 VADDPS per k.
TEXT ·microAVX28x8Asm(SB), NOSPLIT, $0-40
	MOVQ kc+0(FP), CX
	MOVQ ap+8(FP), AX
	MOVQ bp+16(FP), BX
	MOVQ c+24(FP), DI
	MOVQ ldc+32(FP), SI
	SHLQ $2, SI
	LEAQ (SI)(SI*2), R8
	LEAQ (DI)(SI*4), R9

	VMOVUPS (DI), Y0
	VMOVUPS (DI)(SI*1), Y1
	VMOVUPS (DI)(SI*2), Y2
	VMOVUPS (DI)(R8*1), Y3
	VMOVUPS (R9), Y4
	VMOVUPS (R9)(SI*1), Y5
	VMOVUPS (R9)(SI*2), Y6
	VMOVUPS (R9)(R8*1), Y7

avx2_loop:
	VMOVUPS (BX), Y8

	VBROADCASTSS (AX), Y9
	VMULPS       Y8, Y9, Y9
	VADDPS       Y9, Y0, Y0

	VBROADCASTSS 4(AX), Y9
	VMULPS       Y8, Y9, Y9
	VADDPS       Y9, Y1, Y1

	VBROADCASTSS 8(AX), Y9
	VMULPS       Y8, Y9, Y9
	VADDPS       Y9, Y2, Y2

	VBROADCASTSS 12(AX), Y9
	VMULPS       Y8, Y9, Y9
	VADDPS       Y9, Y3, Y3

	VBROADCASTSS 16(AX), Y9
	VMULPS       Y8, Y9, Y9
	VADDPS       Y9, Y4, Y4

	VBROADCASTSS 20(AX), Y9
	VMULPS       Y8, Y9, Y9
	VADDPS       Y9, Y5, Y5

	VBROADCASTSS 24(AX), Y9
	VMULPS       Y8, Y9, Y9
	VADDPS       Y9, Y6, Y6

	VBROADCASTSS 28(AX), Y9
	VMULPS       Y8, Y9, Y9
	VADDPS       Y9, Y7, Y7

	ADDQ $32, AX
	ADDQ $32, BX
	DECQ CX
	JNZ  avx2_loop

	VMOVUPS Y0, (DI)
	VMOVUPS Y1, (DI)(SI*1)
	VMOVUPS Y2, (DI)(SI*2)
	VMOVUPS Y3, (DI)(R8*1)
	VMOVUPS Y4, (R9)
	VMOVUPS Y5, (R9)(SI*1)
	VMOVUPS Y6, (R9)(SI*2)
	VMOVUPS Y7, (R9)(R8*1)
	VZEROUPPER
	RET

// func microAVX5128x16Asm(kc int, ap, bp, c *float32, ldc int)
//
// 8×16 tile in Z0–Z7, one 64-byte B vector per k.
TEXT ·microAVX5128x16Asm(SB), NOSPLIT, $0-40
	MOVQ kc+0(FP), CX
	MOVQ ap+8(FP), AX
	MOVQ bp+16(FP), BX
	MOVQ c+24(FP), DI
	MOVQ ldc+32(FP), SI
	SHLQ $2, SI
	LEAQ (SI)(SI*2), R8
	LEAQ (DI)(SI*4), R9

	VMOVUPS (DI), Z0
	VMOVUPS (DI)(SI*1), Z1
	VMOVUPS (DI)(SI*2), Z2
	VMOVUPS (DI)(R8*1), Z3
	VMOVUPS (R9), Z4
	VMOVUPS (R9)(SI*1), Z5
	VMOVUPS (R9)(SI*2), Z6
	VMOVUPS (R9)(R8*1), Z7

avx512_loop:
	VMOVUPS (BX), Z8

	VBROADCASTSS (AX), Z9
	VMULPS       Z8, Z9, Z9
	VADDPS       Z9, Z0, Z0

	VBROADCASTSS 4(AX), Z9
	VMULPS       Z8, Z9, Z9
	VADDPS       Z9, Z1, Z1

	VBROADCASTSS 8(AX), Z9
	VMULPS       Z8, Z9, Z9
	VADDPS       Z9, Z2, Z2

	VBROADCASTSS 12(AX), Z9
	VMULPS       Z8, Z9, Z9
	VADDPS       Z9, Z3, Z3

	VBROADCASTSS 16(AX), Z9
	VMULPS       Z8, Z9, Z9
	VADDPS       Z9, Z4, Z4

	VBROADCASTSS 20(AX), Z9
	VMULPS       Z8, Z9, Z9
	VADDPS       Z9, Z5, Z5

	VBROADCASTSS 24(AX), Z9
	VMULPS       Z8, Z9, Z9
	VADDPS       Z9, Z6, Z6

	VBROADCASTSS 28(AX), Z9
	VMULPS       Z8, Z9, Z9
	VADDPS       Z9, Z7, Z7

	ADDQ $32, AX
	ADDQ $64, BX
	DECQ CX
	JNZ  avx512_loop

	VMOVUPS Z0, (DI)
	VMOVUPS Z1, (DI)(SI*1)
	VMOVUPS Z2, (DI)(SI*2)
	VMOVUPS Z3, (DI)(R8*1)
	VMOVUPS Z4, (R9)
	VMOVUPS Z5, (R9)(SI*1)
	VMOVUPS Z6, (R9)(SI*2)
	VMOVUPS Z7, (R9)(R8*1)
	VZEROUPPER
	RET
