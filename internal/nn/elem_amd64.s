//go:build amd64

#include "textflag.h"

// The elementwise passes of the batch path and Adam's update, four float64
// lanes at a time. Each lane does exactly the scalar code's operations on
// its own value, in the same order, with the correctly rounded VMULPD,
// VADDPD, VSUBPD, VDIVPD and VSQRTPD and never a fused multiply-add, so
// every kernel gives the scalar loop's bits (elementwise.go has the scalar
// forms). n counts float64 values and is a multiple of 4 except in
// sumRowsAVX2, which masks its own tail.

DATA one<>+0(SB)/8, $1.0
GLOBL one<>(SB), RODATA|NOPTR, $8

// func reluAVX2(x *float64, n int)
//
// x[i] = 0 where x[i] < 0, in place. VCMPPD predicate 1 (LT_OS) is false
// for −0 and NaN, so those pass through as `if v < 0 { v = 0 }` lets them;
// VANDNPD clears every bit of a negative lane, leaving +0.
TEXT ·reluAVX2(SB), NOSPLIT, $0-16
	MOVQ x+0(FP), DI
	MOVQ n+8(FP), CX
	SHRQ $2, CX
	JZ   reludone
	VXORPD Y15, Y15, Y15

reluloop:
	VMOVUPD (DI), Y0
	VCMPPD $1, Y15, Y0, Y1    // Y1 = x < 0
	VANDNPD Y0, Y1, Y0        // Y0 = x &^ Y1
	VMOVUPD Y0, (DI)
	ADDQ $32, DI
	DECQ CX
	JNZ  reluloop

reludone:
	VZEROUPPER
	RET

// func reluDeltaAVX2(d, grad, y *float64, n int)
//
// d[i] = grad[i]·(1 if y[i] > 0 else 0): predicate 14 (GT_OS) ANDed with
// 1.0 forms ReLU′ from the output, and the multiply stays, so a dead unit
// passes ±0 or NaN on from grad exactly as the scalar product does. d may
// alias grad.
TEXT ·reluDeltaAVX2(SB), NOSPLIT, $0-32
	MOVQ d+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ y+16(FP), DX
	MOVQ n+24(FP), CX
	SHRQ $2, CX
	JZ   rdeltadone
	VXORPD Y15, Y15, Y15
	VBROADCASTSD one<>(SB), Y14

rdeltaloop:
	VMOVUPD (DX), Y0
	VCMPPD $14, Y15, Y0, Y1   // Y1 = y > 0
	VANDPD Y14, Y1, Y1        // 1.0 or +0
	VMULPD (SI), Y1, Y1       // grad·ReLU′
	VMOVUPD Y1, (DI)
	ADDQ $32, DI
	ADDQ $32, SI
	ADDQ $32, DX
	DECQ CX
	JNZ  rdeltaloop

rdeltadone:
	VZEROUPPER
	RET

// func tanhDeltaAVX2(d, grad, y *float64, n int)
//
// d[i] = grad[i]·(1 − y[i]·y[i]): tanh′ from the output, each operation
// rounded as the scalar code rounds it. d may alias grad.
TEXT ·tanhDeltaAVX2(SB), NOSPLIT, $0-32
	MOVQ d+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ y+16(FP), DX
	MOVQ n+24(FP), CX
	SHRQ $2, CX
	JZ   tdeltadone
	VBROADCASTSD one<>(SB), Y14

tdeltaloop:
	VMOVUPD (DX), Y0
	VMULPD Y0, Y0, Y0         // y·y
	VSUBPD Y0, Y14, Y0        // 1 − y·y
	VMULPD (SI), Y0, Y0       // grad·(1 − y·y)
	VMOVUPD Y0, (DI)
	ADDQ $32, DI
	ADDQ $32, SI
	ADDQ $32, DX
	DECQ CX
	JNZ  tdeltaloop

tdeltadone:
	VZEROUPPER
	RET

// func sumRowsAVX2(sum, d *float64, n, w int)
//
// sum[o] += Σ_s d[s][o] for the n ≥ 1 rows of the row-major [n][w] matrix
// d: each lane is one column's sum, continued from sum[o] in ascending s.
// Sixteen columns at a time in Y0–Y3, so four add chains are in flight; the
// last w mod 16 columns run the same loop under the VMASKMOVPD masks in
// Y4–Y7, which read nothing and write nothing past column w.
TEXT ·sumRowsAVX2(SB), NOSPLIT, $0-32
	MOVQ sum+0(FP), DI
	MOVQ d+8(FP), SI
	MOVQ n+16(FP), R8
	MOVQ w+24(FP), R9
	MOVQ R9, R11
	SHLQ $3, R11              // R11 = row stride of d in bytes
	MOVQ R9, AX
	ANDQ $15, AX              // AX = t, the tail's width
	ANDQ $-16, R9
	SHLQ $3, R9               // R9 = whole-block width in bytes
	NEGQ AX
	LEAQ ·tailMask+128(SB), CX
	LEAQ (CX)(AX*8), CX       // tailMask + (16-t)·8
	VMOVDQU (CX), Y4
	VMOVDQU 32(CX), Y5
	VMOVDQU 64(CX), Y6
	VMOVDQU 96(CX), Y7
	XORQ BX, BX               // byte offset of the block's first column
	CMPQ BX, R9
	JGE  sumtail

sumblock:
	LEAQ (DI)(BX*1), DX
	VMOVUPD (DX), Y0
	VMOVUPD 32(DX), Y1
	VMOVUPD 64(DX), Y2
	VMOVUPD 96(DX), Y3
	LEAQ (SI)(BX*1), CX
	MOVQ R8, R10

sumrows:
	VADDPD (CX), Y0, Y0
	VADDPD 32(CX), Y1, Y1
	VADDPD 64(CX), Y2, Y2
	VADDPD 96(CX), Y3, Y3
	ADDQ R11, CX
	DECQ R10
	JNZ  sumrows

	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, 64(DX)
	VMOVUPD Y3, 96(DX)
	ADDQ $128, BX
	CMPQ BX, R9
	JLT  sumblock

sumtail:
	TESTQ AX, AX
	JZ    sumdone
	LEAQ (DI)(BX*1), DX
	VMASKMOVPD (DX), Y4, Y0
	VMASKMOVPD 32(DX), Y5, Y1
	VMASKMOVPD 64(DX), Y6, Y2
	VMASKMOVPD 96(DX), Y7, Y3
	LEAQ (SI)(BX*1), CX
	MOVQ R8, R10

sumtailrows:
	VMASKMOVPD (CX), Y4, Y8
	VMASKMOVPD 32(CX), Y5, Y9
	VMASKMOVPD 64(CX), Y6, Y10
	VMASKMOVPD 96(CX), Y7, Y11
	VADDPD Y8, Y0, Y0
	VADDPD Y9, Y1, Y1
	VADDPD Y10, Y2, Y2
	VADDPD Y11, Y3, Y3
	ADDQ R11, CX
	DECQ R10
	JNZ  sumtailrows

	VMASKMOVPD Y0, Y4, (DX)
	VMASKMOVPD Y1, Y5, 32(DX)
	VMASKMOVPD Y2, Y6, 64(DX)
	VMASKMOVPD Y3, Y7, 96(DX)

sumdone:
	VZEROUPPER
	RET

// func adamAVX2(w, grad, m, v *float64, n int, k *adamConsts)
//
// One Adam step on n parameters, in the scalar code's operation order:
// gi = grad·scale; m = β1·m + (1−β1)·gi; v = β2·v + ((1−β2)·gi)·gi;
// w −= (lr·(m/bc1)) / (√(v/bc2) + eps); grad = 0. VDIVPD and VSQRTPD are
// correctly rounded like DIVSD and SQRTSD, and no step is fused.
TEXT ·adamAVX2(SB), NOSPLIT, $0-48
	MOVQ w+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ m+16(FP), R8
	MOVQ v+24(FP), R9
	MOVQ n+32(FP), CX
	MOVQ k+40(FP), AX
	SHRQ $2, CX
	JZ   adamdone
	VBROADCASTSD 0(AX), Y15   // scale
	VBROADCASTSD 8(AX), Y14   // β1
	VBROADCASTSD 16(AX), Y13  // 1−β1
	VBROADCASTSD 24(AX), Y12  // β2
	VBROADCASTSD 32(AX), Y11  // 1−β2
	VBROADCASTSD 40(AX), Y10  // bc1
	VBROADCASTSD 48(AX), Y9   // bc2
	VBROADCASTSD 56(AX), Y8   // lr
	VBROADCASTSD 64(AX), Y7   // eps
	VXORPD Y6, Y6, Y6
	XORQ BX, BX

adamloop:
	VMOVUPD (SI)(BX*1), Y0
	VMULPD Y15, Y0, Y0        // gi
	VMOVUPD Y6, (SI)(BX*1)    // grad = 0
	VMOVUPD (R8)(BX*1), Y1
	VMULPD Y14, Y1, Y1        // β1·m
	VMULPD Y13, Y0, Y2        // (1−β1)·gi
	VADDPD Y2, Y1, Y1
	VMOVUPD Y1, (R8)(BX*1)
	VMOVUPD (R9)(BX*1), Y3
	VMULPD Y12, Y3, Y3        // β2·v
	VMULPD Y11, Y0, Y4        // (1−β2)·gi
	VMULPD Y0, Y4, Y4         // ·gi
	VADDPD Y4, Y3, Y3
	VMOVUPD Y3, (R9)(BX*1)
	VDIVPD Y10, Y1, Y1        // m/bc1
	VMULPD Y1, Y8, Y1         // lr·(m/bc1)
	VDIVPD Y9, Y3, Y3         // v/bc2
	VSQRTPD Y3, Y3
	VADDPD Y7, Y3, Y3         // √(v/bc2) + eps
	VDIVPD Y3, Y1, Y1
	VMOVUPD (DI)(BX*1), Y5
	VSUBPD Y1, Y5, Y5         // w − step
	VMOVUPD Y5, (DI)(BX*1)
	ADDQ $32, BX
	DECQ CX
	JNZ  adamloop

adamdone:
	VZEROUPPER
	RET
