//go:build amd64

#include "textflag.h"

// QSUM4 reduces four 8-lane int32 accumulators, one per weight row, to the
// four row sums [a b c d] in the low xmm of A, using T as scratch. Integer
// addition is exact, so the order the lanes are combined in is immaterial.
#define QSUM4(A, B, C, D, T, XA, XT) \
	VPHADDD      B, A, A; \
	VPHADDD      D, C, T; \
	VPHADDD      T, A, A; \
	VEXTRACTI128 $1, A, XT; \
	VPADDD       XT, XA, XA

// QMAC accumulates one 16-column step of weight row W (already loaded)
// against sample X into ACC: VPMADDWD forms eight int32 lanes, each the sum
// of two adjacent int16×int16 products of that row.
#define QMAC(X, W, ACC) \
	VPMADDWD X, W, Y15; \
	VPADDD   Y15, ACC, ACC

// func matmulQ15AVX2(w, x *int16, acc *int32, rows4, cols16, n, accStride int)
//
// Tiled int16 matrix product, the batched form of a mat-vec: rows4 groups of
// four weight rows (each cols16 int16s, cols16 a multiple of 16) against n
// activation rows (cols16 int16s apart). Sample s's 4·rows4 int32 sums
// Σ_c w[r][c]·x[s][c] land accStride bytes after sample s-1's.
//
// Each group of four weight rows is held while the samples stream past it
// two at a time (a 4×2 tile, eight ymm accumulators), then one at a time
// for an odd last sample, so a weight row is loaded once per two samples.
// Every accumulator lane sums a column subset of one row (two adjacent
// columns per VPMADDWD, every 16th pair after that), so the row-L1 bound
// the caller enforces (Σ|w|·32768 + |b| ≤ 2^31−1, checkAccBounds) bounds
// every intermediate lane too: none can wrap.
TEXT ·matmulQ15AVX2(SB), NOSPLIT, $0-56
	MOVQ w+0(FP), SI
	MOVQ x+8(FP), DX
	MOVQ rows4+24(FP), CX
	MOVQ cols16+32(FP), R8
	SHLQ $1, R8                  // R8 = row stride in bytes, weights and samples alike

group:
	LEAQ (SI)(R8*1), R9          // weight rows 1, 2, 3
	LEAQ (SI)(R8*2), R10
	LEAQ (R9)(R8*2), R11
	MOVQ acc+16(FP), DI          // sample 0's sums for this group
	MOVQ DX, R12                 // sample cursors
	LEAQ (DX)(R8*1), R13
	MOVQ n+40(FP), BX            // samples remaining
	CMPQ BX, $2
	JLT  single

pair:
	VPXOR Y0, Y0, Y0             // rows 0-3 × sample 0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	VPXOR Y4, Y4, Y4             // rows 0-3 × sample 1
	VPXOR Y5, Y5, Y5
	VPXOR Y6, Y6, Y6
	VPXOR Y7, Y7, Y7
	XORQ  AX, AX                 // byte offset along the row

pairk:
	VMOVDQU (R12)(AX*1), Y8
	VMOVDQU (R13)(AX*1), Y9
	VMOVDQU (SI)(AX*1), Y10
	QMAC(Y8, Y10, Y0)
	QMAC(Y9, Y10, Y4)
	VMOVDQU (R9)(AX*1), Y10
	QMAC(Y8, Y10, Y1)
	QMAC(Y9, Y10, Y5)
	VMOVDQU (R10)(AX*1), Y10
	QMAC(Y8, Y10, Y2)
	QMAC(Y9, Y10, Y6)
	VMOVDQU (R11)(AX*1), Y10
	QMAC(Y8, Y10, Y3)
	QMAC(Y9, Y10, Y7)
	ADDQ $32, AX
	CMPQ AX, R8
	JNE  pairk

	QSUM4(Y0, Y1, Y2, Y3, Y8, X0, X8)
	VMOVDQU X0, (DI)
	ADDQ    accStride+48(FP), DI
	QSUM4(Y4, Y5, Y6, Y7, Y8, X4, X8)
	VMOVDQU X4, (DI)
	ADDQ    accStride+48(FP), DI

	LEAQ (R12)(R8*2), R12
	LEAQ (R13)(R8*2), R13
	SUBQ $2, BX
	CMPQ BX, $2
	JGE  pair

single:
	TESTQ BX, BX
	JE    nextgroup
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	XORQ  AX, AX

singlek:
	VMOVDQU (R12)(AX*1), Y8
	VPMADDWD (SI)(AX*1), Y8, Y4
	VPADDD   Y4, Y0, Y0
	VPMADDWD (R9)(AX*1), Y8, Y5
	VPADDD   Y5, Y1, Y1
	VPMADDWD (R10)(AX*1), Y8, Y6
	VPADDD   Y6, Y2, Y2
	VPMADDWD (R11)(AX*1), Y8, Y7
	VPADDD   Y7, Y3, Y3
	ADDQ $32, AX
	CMPQ AX, R8
	JNE  singlek

	QSUM4(Y0, Y1, Y2, Y3, Y8, X0, X8)
	VMOVDQU X0, (DI)

nextgroup:
	ADDQ $16, acc+16(FP)         // the next group's four sums
	LEAQ (SI)(R8*4), SI          // and its four weight rows
	DECQ CX
	JNE  group
	VZEROUPPER
	RET

// func requantQ15AVX2(dst *int16, acc, bias *int32, groups8, rows, dstStride, accStride int, k *requantConsts)
//
// The layer epilogue: for rows samples (their sums accStride bytes apart in
// acc, their outputs dstStride bytes apart in dst) and groups8 groups of
// eight outputs, dst = max(floor, sat16(((s·mult + rnd) >> shift))) with
// s = acc + bias, eight outputs per step. AVX2 has neither a 64-bit
// arithmetic shift nor a 64-bit clamp, so (see requantConsts) s is clamped
// to [lo, hi] first, past which the output saturates anyway and within
// which the result fits int32, and the shift is taken logically on
// p + 2^62 > 0, subtracting 2^(62−shift) after: floor division either way.
// VPACKSSDW then saturates to int16 exactly as sat16 does.
TEXT ·requantQ15AVX2(SB), NOSPLIT, $0-64
	MOVQ dst+0(FP), DI
	MOVQ acc+8(FP), SI
	MOVQ bias+16(FP), DX
	MOVQ rows+32(FP), CX
	MOVQ k+56(FP), AX
	VPBROADCASTQ 0(AX), Y10      // mult
	VPBROADCASTQ 8(AX), Y11      // rnd + 2^62
	VPBROADCASTQ 16(AX), Y12     // 2^(62−shift)
	VMOVQ        24(AX), X13     // shift
	VPBROADCASTD 32(AX), Y14     // lo
	VPBROADCASTD 40(AX), Y15     // hi
	VPBROADCASTW 48(AX), X9      // floor

rqrow:
	XORQ BX, BX                  // byte offset into this sample's sums and the biases
	XORQ R8, R8                  // byte offset into its outputs
	MOVQ groups8+24(FP), R9

rqcol:
	VMOVDQU   (SI)(BX*1), Y0
	VPADDD    (DX)(BX*1), Y0, Y0
	VPMAXSD   Y14, Y0, Y0
	VPMINSD   Y15, Y0, Y0
	VPSRLQ    $32, Y0, Y1        // odd lanes into the low dwords
	VPMULDQ   Y10, Y0, Y0        // even lanes · mult, int64
	VPMULDQ   Y10, Y1, Y1        // odd lanes · mult
	VPADDQ    Y11, Y0, Y0
	VPADDQ    Y11, Y1, Y1
	VPSRLQ    X13, Y0, Y0
	VPSRLQ    X13, Y1, Y1
	VPSUBQ    Y12, Y0, Y0
	VPSUBQ    Y12, Y1, Y1
	VPSLLQ    $32, Y1, Y1
	VPBLENDD  $0xAA, Y1, Y0, Y0  // eight int32 results in order
	VPACKSSDW Y0, Y0, Y0         // [r0-3 r0-3 | r4-7 r4-7], saturated
	VPERMQ    $0x08, Y0, Y0      // [r0-3 r4-7] in the low half
	VPMAXSW   X9, X0, X0
	VMOVDQU   X0, (DI)(R8*1)
	ADDQ $32, BX
	ADDQ $16, R8
	DECQ R9
	JNE  rqcol

	ADDQ accStride+48(FP), SI
	ADDQ dstStride+40(FP), DI
	DECQ CX
	JNE  rqrow
	VZEROUPPER
	RET
