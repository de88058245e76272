//go:build amd64 && !purego

#include "textflag.h"

// Element-wise kernels (DESIGN.md §14.6), AVX2 bodies of the loops in
// vec.go. Shared shape: AX counts elements done, CX is the length, R8 the
// length rounded down to a whole number of 8-float vectors; a vector loop
// runs to R8 and a scalar loop of the same instructions, SS for PS, runs
// the ragged tail to CX, so no operand is touched past its last element.
// Every lane computes what the Go loop computes for that element, each
// multiply, add and subtract rounded on its own (NO FMA) and in the loop's
// order, so the result is bitwise the loop's.

// func sgdStepAVX2(w, grad, v []float32, lr, mom, wd float32)
//
// g = grad + wd·w; v = mom·v + g; w -= lr·v.
TEXT ·sgdStepAVX2(SB), NOSPLIT, $0-84
	MOVQ         w_base+0(FP), DI
	MOVQ         w_len+8(FP), CX
	MOVQ         grad_base+24(FP), SI
	MOVQ         v_base+48(FP), DX
	VBROADCASTSS lr+72(FP), Y13
	VBROADCASTSS mom+76(FP), Y14
	VBROADCASTSS wd+80(FP), Y15
	XORQ         AX, AX
	MOVQ         CX, R8
	ANDQ         $-8, R8
	JMP          sgd_vcheck

sgd_vloop:
	VMOVUPS (DI)(AX*4), Y0
	VMOVUPS (DX)(AX*4), Y2
	VMULPS  Y0, Y15, Y1
	VADDPS  (SI)(AX*4), Y1, Y1
	VMULPS  Y2, Y14, Y2
	VADDPS  Y1, Y2, Y2
	VMOVUPS Y2, (DX)(AX*4)
	VMULPS  Y2, Y13, Y3
	VSUBPS  Y3, Y0, Y0
	VMOVUPS Y0, (DI)(AX*4)
	ADDQ    $8, AX

sgd_vcheck:
	CMPQ AX, R8
	JLT  sgd_vloop
	JMP  sgd_scheck

sgd_sloop:
	VMOVSS (DI)(AX*4), X0
	VMOVSS (DX)(AX*4), X2
	VMULSS X0, X15, X1
	VADDSS (SI)(AX*4), X1, X1
	VMULSS X2, X14, X2
	VADDSS X1, X2, X2
	VMOVSS X2, (DX)(AX*4)
	VMULSS X2, X13, X3
	VSUBSS X3, X0, X0
	VMOVSS X0, (DI)(AX*4)
	INCQ   AX

sgd_scheck:
	CMPQ AX, CX
	JLT  sgd_sloop
	VZEROUPPER
	RET

// func addAVX2(dst, src []float32)
//
// dst += src.
TEXT ·addAVX2(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	XORQ AX, AX
	MOVQ CX, R8
	ANDQ $-8, R8
	JMP  add_vcheck

add_vloop:
	VMOVUPS (DI)(AX*4), Y0
	VADDPS  (SI)(AX*4), Y0, Y0
	VMOVUPS Y0, (DI)(AX*4)
	ADDQ    $8, AX

add_vcheck:
	CMPQ AX, R8
	JLT  add_vloop
	JMP  add_scheck

add_sloop:
	VMOVSS (DI)(AX*4), X0
	VADDSS (SI)(AX*4), X0, X0
	VMOVSS X0, (DI)(AX*4)
	INCQ   AX

add_scheck:
	CMPQ AX, CX
	JLT  add_sloop
	VZEROUPPER
	RET

// func scaleAVX2(s []float32, f float32)
//
// s *= f.
TEXT ·scaleAVX2(SB), NOSPLIT, $0-28
	MOVQ         s_base+0(FP), DI
	MOVQ         s_len+8(FP), CX
	VBROADCASTSS f+24(FP), Y15
	XORQ         AX, AX
	MOVQ         CX, R8
	ANDQ         $-8, R8
	JMP          scale_vcheck

scale_vloop:
	VMULPS  (DI)(AX*4), Y15, Y0
	VMOVUPS Y0, (DI)(AX*4)
	ADDQ    $8, AX

scale_vcheck:
	CMPQ AX, R8
	JLT  scale_vloop
	JMP  scale_scheck

scale_sloop:
	VMULSS (DI)(AX*4), X15, X0
	VMOVSS X0, (DI)(AX*4)
	INCQ   AX

scale_scheck:
	CMPQ AX, CX
	JLT  scale_sloop
	VZEROUPPER
	RET

// The ReLU pair is compare-and-mask. Predicate 0x16 is NLE_UQ, "not (a ≤
// b), true when unordered, quiet": against +0 it is all-ones for exactly
// the elements the loop's `v <= 0` lets through — the positive ones and
// every NaN — and zero for the rest, -0 included. ANDing with the mask
// copies the passing element's bits untouched (a NaN keeps its payload)
// and leaves +0 elsewhere.

// func reluAVX2(dst, x []float32)
TEXT ·reluAVX2(SB), NOSPLIT, $0-48
	MOVQ   dst_base+0(FP), DI
	MOVQ   dst_len+8(FP), CX
	MOVQ   x_base+24(FP), SI
	VXORPS Y15, Y15, Y15
	XORQ   AX, AX
	MOVQ   CX, R8
	ANDQ   $-8, R8
	JMP    relu_vcheck

relu_vloop:
	VMOVUPS (SI)(AX*4), Y0
	VCMPPS  $0x16, Y15, Y0, Y1
	VANDPS  Y0, Y1, Y1
	VMOVUPS Y1, (DI)(AX*4)
	ADDQ    $8, AX

relu_vcheck:
	CMPQ AX, R8
	JLT  relu_vloop
	JMP  relu_scheck

relu_sloop:
	VMOVSS (SI)(AX*4), X0
	VCMPSS $0x16, X15, X0, X1
	VANDPS X0, X1, X1
	VMOVSS X1, (DI)(AX*4)
	INCQ   AX

relu_scheck:
	CMPQ AX, CX
	JLT  relu_sloop
	VZEROUPPER
	RET

// func reluGradAVX2(dx, dy, out []float32)
//
// The mask comes from the forward output, the gradient goes through it.
TEXT ·reluGradAVX2(SB), NOSPLIT, $0-72
	MOVQ   dx_base+0(FP), DI
	MOVQ   dx_len+8(FP), CX
	MOVQ   dy_base+24(FP), SI
	MOVQ   out_base+48(FP), DX
	VXORPS Y15, Y15, Y15
	XORQ   AX, AX
	MOVQ   CX, R8
	ANDQ   $-8, R8
	JMP    rgrad_vcheck

rgrad_vloop:
	VMOVUPS (DX)(AX*4), Y0
	VCMPPS  $0x16, Y15, Y0, Y1
	VANDPS  (SI)(AX*4), Y1, Y1
	VMOVUPS Y1, (DI)(AX*4)
	ADDQ    $8, AX

rgrad_vcheck:
	CMPQ AX, R8
	JLT  rgrad_vloop
	JMP  rgrad_scheck

rgrad_sloop:
	VMOVSS (DX)(AX*4), X0
	VMOVSS (SI)(AX*4), X2
	VCMPSS $0x16, X15, X0, X1
	VANDPS X2, X1, X1
	VMOVSS X1, (DI)(AX*4)
	INCQ   AX

rgrad_scheck:
	CMPQ AX, CX
	JLT  rgrad_sloop
	VZEROUPPER
	RET

// BatchNorm's row sweeps (nn.BatchNorm): one call per batch row, the
// per-feature vectors stay in L1 between calls.

// func bnStatsAVX2(sum, sumsq, x []float32)
//
// sum += x; sumsq += x·x.
TEXT ·bnStatsAVX2(SB), NOSPLIT, $0-72
	MOVQ sum_base+0(FP), DI
	MOVQ sumsq_base+24(FP), SI
	MOVQ x_base+48(FP), DX
	MOVQ x_len+56(FP), CX
	XORQ AX, AX
	MOVQ CX, R8
	ANDQ $-8, R8
	JMP  bnstats_vcheck

bnstats_vloop:
	VMOVUPS (DX)(AX*4), Y0
	VADDPS  (DI)(AX*4), Y0, Y1
	VMOVUPS Y1, (DI)(AX*4)
	VMULPS  Y0, Y0, Y2
	VADDPS  (SI)(AX*4), Y2, Y2
	VMOVUPS Y2, (SI)(AX*4)
	ADDQ    $8, AX

bnstats_vcheck:
	CMPQ AX, R8
	JLT  bnstats_vloop
	JMP  bnstats_scheck

bnstats_sloop:
	VMOVSS (DX)(AX*4), X0
	VADDSS (DI)(AX*4), X0, X1
	VMOVSS X1, (DI)(AX*4)
	VMULSS X0, X0, X2
	VADDSS (SI)(AX*4), X2, X2
	VMOVSS X2, (SI)(AX*4)
	INCQ   AX

bnstats_scheck:
	CMPQ AX, CX
	JLT  bnstats_sloop
	VZEROUPPER
	RET

// func bnNormAVX2(xhat, out, x, mean, invStd, gamma, beta []float32)
//
// xhat = (x - mean)·invStd; out = gamma·xhat + beta.
TEXT ·bnNormAVX2(SB), NOSPLIT, $0-168
	MOVQ xhat_base+0(FP), DI
	MOVQ out_base+24(FP), SI
	MOVQ x_base+48(FP), DX
	MOVQ x_len+56(FP), CX
	MOVQ mean_base+72(FP), R9
	MOVQ invStd_base+96(FP), R10
	MOVQ gamma_base+120(FP), R11
	MOVQ beta_base+144(FP), R12
	XORQ AX, AX
	MOVQ CX, R8
	ANDQ $-8, R8
	JMP  bnnorm_vcheck

bnnorm_vloop:
	VMOVUPS (DX)(AX*4), Y0
	VSUBPS  (R9)(AX*4), Y0, Y0
	VMULPS  (R10)(AX*4), Y0, Y0
	VMOVUPS Y0, (DI)(AX*4)
	VMULPS  (R11)(AX*4), Y0, Y1
	VADDPS  (R12)(AX*4), Y1, Y1
	VMOVUPS Y1, (SI)(AX*4)
	ADDQ    $8, AX

bnnorm_vcheck:
	CMPQ AX, R8
	JLT  bnnorm_vloop
	JMP  bnnorm_scheck

bnnorm_sloop:
	VMOVSS (DX)(AX*4), X0
	VSUBSS (R9)(AX*4), X0, X0
	VMULSS (R10)(AX*4), X0, X0
	VMOVSS X0, (DI)(AX*4)
	VMULSS (R11)(AX*4), X0, X1
	VADDSS (R12)(AX*4), X1, X1
	VMOVSS X1, (SI)(AX*4)
	INCQ   AX

bnnorm_scheck:
	CMPQ AX, CX
	JLT  bnnorm_sloop
	VZEROUPPER
	RET

// func bnGradsAVX2(sumDy, sumDyXhat, dy, xhat []float32)
//
// sumDy += dy; sumDyXhat += dy·xhat.
TEXT ·bnGradsAVX2(SB), NOSPLIT, $0-96
	MOVQ sumDy_base+0(FP), DI
	MOVQ sumDyXhat_base+24(FP), SI
	MOVQ dy_base+48(FP), DX
	MOVQ dy_len+56(FP), CX
	MOVQ xhat_base+72(FP), R9
	XORQ AX, AX
	MOVQ CX, R8
	ANDQ $-8, R8
	JMP  bngrads_vcheck

bngrads_vloop:
	VMOVUPS (DX)(AX*4), Y0
	VADDPS  (DI)(AX*4), Y0, Y1
	VMOVUPS Y1, (DI)(AX*4)
	VMULPS  (R9)(AX*4), Y0, Y2
	VADDPS  (SI)(AX*4), Y2, Y2
	VMOVUPS Y2, (SI)(AX*4)
	ADDQ    $8, AX

bngrads_vcheck:
	CMPQ AX, R8
	JLT  bngrads_vloop
	JMP  bngrads_scheck

bngrads_sloop:
	VMOVSS (DX)(AX*4), X0
	VADDSS (DI)(AX*4), X0, X1
	VMOVSS X1, (DI)(AX*4)
	VMULSS (R9)(AX*4), X0, X2
	VADDSS (SI)(AX*4), X2, X2
	VMOVSS X2, (SI)(AX*4)
	INCQ   AX

bngrads_scheck:
	CMPQ AX, CX
	JLT  bngrads_sloop
	VZEROUPPER
	RET

// func bnDXAVX2(dx, dy, xhat, coef, sumDy, sumDyXhat []float32, n float32)
//
// dx = coef·((n·dy - sumDy) - xhat·sumDyXhat).
TEXT ·bnDXAVX2(SB), NOSPLIT, $0-148
	MOVQ         dx_base+0(FP), DI
	MOVQ         dx_len+8(FP), CX
	MOVQ         dy_base+24(FP), SI
	MOVQ         xhat_base+48(FP), DX
	MOVQ         coef_base+72(FP), R9
	MOVQ         sumDy_base+96(FP), R10
	MOVQ         sumDyXhat_base+120(FP), R11
	VBROADCASTSS n+144(FP), Y15
	XORQ         AX, AX
	MOVQ         CX, R8
	ANDQ         $-8, R8
	JMP          bndx_vcheck

bndx_vloop:
	VMULPS  (SI)(AX*4), Y15, Y0
	VSUBPS  (R10)(AX*4), Y0, Y0
	VMOVUPS (DX)(AX*4), Y1
	VMULPS  (R11)(AX*4), Y1, Y1
	VSUBPS  Y1, Y0, Y0
	VMULPS  (R9)(AX*4), Y0, Y0
	VMOVUPS Y0, (DI)(AX*4)
	ADDQ    $8, AX

bndx_vcheck:
	CMPQ AX, R8
	JLT  bndx_vloop
	JMP  bndx_scheck

bndx_sloop:
	VMULSS (SI)(AX*4), X15, X0
	VSUBSS (R10)(AX*4), X0, X0
	VMOVSS (DX)(AX*4), X1
	VMULSS (R11)(AX*4), X1, X1
	VSUBSS X1, X0, X0
	VMULSS (R9)(AX*4), X0, X0
	VMOVSS X0, (DI)(AX*4)
	INCQ   AX

bndx_scheck:
	CMPQ AX, CX
	JLT  bndx_sloop
	VZEROUPPER
	RET

// The fp16 pair (F16C + AVX2). Neither body rounds anything the loop would
// not: each converts a block of 8 with the hardware and keeps the result
// only where it is provably the loop's, and otherwise returns the count of
// elements done so far — always a multiple of 8 — so that the Go driver
// (narrowFP16F16C, widenFP16F16C) hands the block to the loop and resumes.

// func narrowBlocksF16C(dst []byte, src []float32) int
//
// VCVTPS2PH (imm 0: round to nearest even) → VCVTPH2PS → VPCMPEQD: a block
// is stored only when all 8 floats come back with their bits, which makes
// each one exactly a half (or a quiet NaN whose low 13 mantissa bits are
// zero) and its half the one the loop emits. Signalling NaNs (the
// instruction quiets them, the loop keeps the payload), f32 subnormals and
// every inexact value fail the compare and go to the loop.
TEXT ·narrowBlocksF16C(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), R8
	ANDQ $-8, R8
	XORQ AX, AX
	JMP  narrow_check

narrow_loop:
	VMOVUPS   (SI)(AX*4), Y0
	VCVTPS2PH $0, Y0, X1
	VCVTPH2PS X1, Y2
	VPCMPEQD  Y0, Y2, Y2
	VMOVMSKPS Y2, BX
	CMPL      BX, $0xff
	JNE       narrow_done
	VMOVDQU   X1, (DI)(AX*2)
	ADDQ      $8, AX

narrow_check:
	CMPQ AX, R8
	JLT  narrow_loop

narrow_done:
	MOVQ AX, ret+48(FP)
	VZEROUPPER
	RET

// func widenBlocksF16C(dst []float32, src []byte) int
//
// VCVTPH2PS widens every finite half exactly, subnormals included. A block
// holding an exponent-31 half (Inf or NaN — the instruction quiets a
// signalling NaN, the loop keeps it signalling) goes to the loop.
TEXT ·widenBlocksF16C(SB), NOSPLIT, $0-56
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), R8
	MOVQ         src_base+24(FP), SI
	ANDQ         $-8, R8
	XORQ         AX, AX
	MOVL         $0x7c007c00, BX
	VMOVD        BX, X15
	VPBROADCASTD X15, X15
	JMP          widen_check

widen_loop:
	VMOVDQU   (SI)(AX*2), X0
	VPAND     X15, X0, X1
	VPCMPEQW  X15, X1, X1
	VPTEST    X1, X1
	JNE       widen_done
	VCVTPH2PS X0, Y2
	VMOVUPS   Y2, (DI)(AX*4)
	ADDQ      $8, AX

widen_check:
	CMPQ AX, R8
	JLT  widen_loop

widen_done:
	MOVQ AX, ret+48(FP)
	VZEROUPPER
	RET
