//go:build amd64

#include "textflag.h"

// func mulNN4x8(c, a, b *float64, m4, p8, k, ldb int)
//
// c[r][q] += Σ_j a[r][j]·b[j][q] over the first m4 rows and p8 columns of
// c (m4 a positive multiple of 4, p8 of 8, k ≥ 1): a is m4×k, b is k rows
// of ldb values, c rows are ldb values apart, all float64 row-major.
//
// One 4×8 tile of c lives in eight ymm accumulators, two per row (Y0–Y7).
// Each j step loads b[j][q:q+8] into Y8/Y9, then per row broadcasts
// a[r][j] into Y10 and runs VMULPD, VMULPD, VADDPD, VADDPD. Every lane is
// one sum continued in ascending j, and each product is rounded before it
// is added — never VFMADD*, whose single rounding would break the scalar
// code's bit pattern. A tile reads and writes exactly its 64 bytes of
// each of its four c rows.
TEXT ·mulNN4x8(SB), NOSPLIT, $0-56
	MOVQ c+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ m4+24(FP), R8
	MOVQ p8+32(FP), R9
	MOVQ k+40(FP), R10
	MOVQ ldb+48(FP), R11
	SHLQ $3, R9               // R9 = tiled width of a c row in bytes
	SHLQ $3, R11              // R11 = row stride of b and c in bytes
	MOVQ R10, R12
	SHLQ $3, R12              // R12 = row stride of a in bytes

rowblock:
	XORQ BX, BX               // byte offset of the tile's first column

colblock:
	LEAQ (DI)(BX*1), R13      // c rows 0 and 1 of the tile
	VMOVUPD (R13), Y0
	VMOVUPD 32(R13), Y1
	VMOVUPD (R13)(R11*1), Y2
	VMOVUPD 32(R13)(R11*1), Y3
	LEAQ (R13)(R11*2), R13    // c rows 2 and 3
	VMOVUPD (R13), Y4
	VMOVUPD 32(R13), Y5
	VMOVUPD (R13)(R11*1), Y6
	VMOVUPD 32(R13)(R11*1), Y7

	MOVQ SI, AX               // a[0][j] at (AX), a[1][j] at (AX)(R12*1)
	LEAQ (SI)(R12*2), R13     // a[2][j] at (R13), a[3][j] at (R13)(R12*1)
	LEAQ (DX)(BX*1), CX       // b[j][q]
	MOVQ R10, R14             // j steps left

jloop:
	VMOVUPD (CX), Y8
	VMOVUPD 32(CX), Y9

	VBROADCASTSD (AX), Y10
	VMULPD Y8, Y10, Y11
	VMULPD Y9, Y10, Y12
	VADDPD Y11, Y0, Y0
	VADDPD Y12, Y1, Y1

	VBROADCASTSD (AX)(R12*1), Y10
	VMULPD Y8, Y10, Y11
	VMULPD Y9, Y10, Y12
	VADDPD Y11, Y2, Y2
	VADDPD Y12, Y3, Y3

	VBROADCASTSD (R13), Y10
	VMULPD Y8, Y10, Y11
	VMULPD Y9, Y10, Y12
	VADDPD Y11, Y4, Y4
	VADDPD Y12, Y5, Y5

	VBROADCASTSD (R13)(R12*1), Y10
	VMULPD Y8, Y10, Y11
	VMULPD Y9, Y10, Y12
	VADDPD Y11, Y6, Y6
	VADDPD Y12, Y7, Y7

	ADDQ $8, AX
	ADDQ $8, R13
	ADDQ R11, CX
	DECQ R14
	JNZ  jloop

	LEAQ (DI)(BX*1), R13
	VMOVUPD Y0, (R13)
	VMOVUPD Y1, 32(R13)
	VMOVUPD Y2, (R13)(R11*1)
	VMOVUPD Y3, 32(R13)(R11*1)
	LEAQ (R13)(R11*2), R13
	VMOVUPD Y4, (R13)
	VMOVUPD Y5, 32(R13)
	VMOVUPD Y6, (R13)(R11*1)
	VMOVUPD Y7, 32(R13)(R11*1)

	ADDQ $64, BX
	CMPQ BX, R9
	JLT  colblock

	LEAQ (DI)(R11*4), DI      // next four rows of c and a
	LEAQ (SI)(R12*4), SI
	SUBQ $4, R8
	JGT  rowblock

	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
