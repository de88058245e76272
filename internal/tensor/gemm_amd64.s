//go:build amd64 && !purego

#include "textflag.h"

// GEMM micro-kernels (DESIGN.md §14). Register convention shared by both
// kernels:
//
//	CX = kc (loop counter)
//	AX = &a[0][k]   DX = aks (A depth stride)   R13 = ars (A row stride)
//	R10, R11, R12 = 3, 5, 7 × ars — with the scaled forms of R13 and R10
//	               every row r of the strip is one addressing mode off AX
//	BX = &b[k][0]   R9 = brs (B row stride)
//	DI = &c[0][0], then &c[4][0]   SI = ldc   R8 = 3*ldc
//
// all strides in BYTES (shifted on entry). A packed strip is (ars, aks) =
// (1, MR) or brs = NR floats; an operand read in place brings its own.
//
// Each kernel starts the 8×NR C tile in vector registers — loaded from C
// when acc is set, cleared to +0 when it is not (the first k-panel: C is
// then only written) — accumulates kc k-steps with a separate multiply and
// add per step (NO FMA: contraction would change the rounding and break
// the bitwise-determinism gates), and stores the tile back. Lanes never
// cross: lane j of an accumulator holds exactly C[i][j]'s running sum, k
// ascending — the same reduction schedule as the scalar reference kernel.
//
// Without acc the kernel still prefetches the tile's eight C rows before
// the k-loop: a store that misses waits for its line at the end of the
// call, and on a C larger than L2 walked one column strip at a time those
// misses would otherwise serialise (the contended 256×4096 A·Bᵀ ran at
// half speed without it). A prefetch is a hint: it never faults and
// changes no value. A is read one float at a time and B NR
// floats at a time, so neither is touched past its last element.

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

// func microAVX28x8Asm(kc int, a *float32, ars, aks int, b *float32, brs int, c *float32, ldc int, acc bool)
//
// 8×8 tile in Y0–Y7. VBROADCASTSS from memory is a pure load µop, so the
// inner loop is bound by the two FP ports: 8 VMULPS + 8 VADDPS per k.
TEXT ·microAVX28x8Asm(SB), NOSPLIT, $0-65
	MOVQ kc+0(FP), CX
	MOVQ a+8(FP), AX
	MOVQ ars+16(FP), R13
	MOVQ aks+24(FP), DX
	MOVQ b+32(FP), BX
	MOVQ brs+40(FP), R9
	MOVQ c+48(FP), DI
	MOVQ ldc+56(FP), SI
	SHLQ $2, R13
	SHLQ $2, DX
	SHLQ $2, R9
	SHLQ $2, SI
	LEAQ (R13)(R13*2), R10
	LEAQ (R13)(R13*4), R11
	LEAQ (R10)(R13*4), R12
	LEAQ (SI)(SI*2), R8

	CMPB acc+64(FP), $0
	JEQ  avx2_zero
	VMOVUPS (DI), Y0
	VMOVUPS (DI)(SI*1), Y1
	VMOVUPS (DI)(SI*2), Y2
	VMOVUPS (DI)(R8*1), Y3
	LEAQ    (DI)(SI*4), DI
	VMOVUPS (DI), Y4
	VMOVUPS (DI)(SI*1), Y5
	VMOVUPS (DI)(SI*2), Y6
	VMOVUPS (DI)(R8*1), Y7
	JMP     avx2_loop

avx2_zero:
	PREFETCHT0 (DI)
	PREFETCHT0 (DI)(SI*1)
	PREFETCHT0 (DI)(SI*2)
	PREFETCHT0 (DI)(R8*1)
	LEAQ       (DI)(SI*4), DI
	PREFETCHT0 (DI)
	PREFETCHT0 (DI)(SI*1)
	PREFETCHT0 (DI)(SI*2)
	PREFETCHT0 (DI)(R8*1)
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

avx2_loop:
	VMOVUPS (BX), Y8

	VBROADCASTSS (AX), Y9
	VMULPS       Y8, Y9, Y9
	VADDPS       Y9, Y0, Y0

	VBROADCASTSS (AX)(R13*1), Y9
	VMULPS       Y8, Y9, Y9
	VADDPS       Y9, Y1, Y1

	VBROADCASTSS (AX)(R13*2), Y9
	VMULPS       Y8, Y9, Y9
	VADDPS       Y9, Y2, Y2

	VBROADCASTSS (AX)(R10*1), Y9
	VMULPS       Y8, Y9, Y9
	VADDPS       Y9, Y3, Y3

	VBROADCASTSS (AX)(R13*4), Y9
	VMULPS       Y8, Y9, Y9
	VADDPS       Y9, Y4, Y4

	VBROADCASTSS (AX)(R11*1), Y9
	VMULPS       Y8, Y9, Y9
	VADDPS       Y9, Y5, Y5

	VBROADCASTSS (AX)(R10*2), Y9
	VMULPS       Y8, Y9, Y9
	VADDPS       Y9, Y6, Y6

	VBROADCASTSS (AX)(R12*1), Y9
	VMULPS       Y8, Y9, Y9
	VADDPS       Y9, Y7, Y7

	ADDQ DX, AX
	ADDQ R9, BX
	DECQ CX
	JNZ  avx2_loop

	VMOVUPS Y4, (DI)
	VMOVUPS Y5, (DI)(SI*1)
	VMOVUPS Y6, (DI)(SI*2)
	VMOVUPS Y7, (DI)(R8*1)
	MOVQ    c+48(FP), DI
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, (DI)(SI*1)
	VMOVUPS Y2, (DI)(SI*2)
	VMOVUPS Y3, (DI)(R8*1)
	VZEROUPPER
	RET

// func microAVX5128x16Asm(kc int, a *float32, ars, aks int, b *float32, brs int, c *float32, ldc int, acc bool)
//
// 8×16 tile in Z0–Z7, one 64-byte B vector per k.
TEXT ·microAVX5128x16Asm(SB), NOSPLIT, $0-65
	MOVQ kc+0(FP), CX
	MOVQ a+8(FP), AX
	MOVQ ars+16(FP), R13
	MOVQ aks+24(FP), DX
	MOVQ b+32(FP), BX
	MOVQ brs+40(FP), R9
	MOVQ c+48(FP), DI
	MOVQ ldc+56(FP), SI
	SHLQ $2, R13
	SHLQ $2, DX
	SHLQ $2, R9
	SHLQ $2, SI
	LEAQ (R13)(R13*2), R10
	LEAQ (R13)(R13*4), R11
	LEAQ (R10)(R13*4), R12
	LEAQ (SI)(SI*2), R8

	CMPB acc+64(FP), $0
	JEQ  avx512_zero
	VMOVUPS (DI), Z0
	VMOVUPS (DI)(SI*1), Z1
	VMOVUPS (DI)(SI*2), Z2
	VMOVUPS (DI)(R8*1), Z3
	LEAQ    (DI)(SI*4), DI
	VMOVUPS (DI), Z4
	VMOVUPS (DI)(SI*1), Z5
	VMOVUPS (DI)(SI*2), Z6
	VMOVUPS (DI)(R8*1), Z7
	JMP     avx512_loop

avx512_zero:
	PREFETCHT0 (DI)
	PREFETCHT0 (DI)(SI*1)
	PREFETCHT0 (DI)(SI*2)
	PREFETCHT0 (DI)(R8*1)
	LEAQ       (DI)(SI*4), DI
	PREFETCHT0 (DI)
	PREFETCHT0 (DI)(SI*1)
	PREFETCHT0 (DI)(SI*2)
	PREFETCHT0 (DI)(R8*1)
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7

avx512_loop:
	VMOVUPS (BX), Z8

	VBROADCASTSS (AX), Z9
	VMULPS       Z8, Z9, Z9
	VADDPS       Z9, Z0, Z0

	VBROADCASTSS (AX)(R13*1), Z9
	VMULPS       Z8, Z9, Z9
	VADDPS       Z9, Z1, Z1

	VBROADCASTSS (AX)(R13*2), Z9
	VMULPS       Z8, Z9, Z9
	VADDPS       Z9, Z2, Z2

	VBROADCASTSS (AX)(R10*1), Z9
	VMULPS       Z8, Z9, Z9
	VADDPS       Z9, Z3, Z3

	VBROADCASTSS (AX)(R13*4), Z9
	VMULPS       Z8, Z9, Z9
	VADDPS       Z9, Z4, Z4

	VBROADCASTSS (AX)(R11*1), Z9
	VMULPS       Z8, Z9, Z9
	VADDPS       Z9, Z5, Z5

	VBROADCASTSS (AX)(R10*2), Z9
	VMULPS       Z8, Z9, Z9
	VADDPS       Z9, Z6, Z6

	VBROADCASTSS (AX)(R12*1), Z9
	VMULPS       Z8, Z9, Z9
	VADDPS       Z9, Z7, Z7

	ADDQ DX, AX
	ADDQ R9, BX
	DECQ CX
	JNZ  avx512_loop

	VMOVUPS Z4, (DI)
	VMOVUPS Z5, (DI)(SI*1)
	VMOVUPS Z6, (DI)(SI*2)
	VMOVUPS Z7, (DI)(R8*1)
	MOVQ    c+48(FP), DI
	VMOVUPS Z0, (DI)
	VMOVUPS Z1, (DI)(SI*1)
	VMOVUPS Z2, (DI)(SI*2)
	VMOVUPS Z3, (DI)(R8*1)
	VZEROUPPER
	RET
