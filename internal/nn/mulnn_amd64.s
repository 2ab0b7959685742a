//go:build amd64

#include "textflag.h"

// tailMask is 16 all-ones quadwords followed by 16 zero ones. The 8 (or 16)
// quadwords starting at tailMask+(16-t)*8 are a VMASKMOVPD mask that selects
// the first t lanes: the masked loads and stores of a partial column block.
DATA ·tailMask+0(SB)/8, $-1
DATA ·tailMask+8(SB)/8, $-1
DATA ·tailMask+16(SB)/8, $-1
DATA ·tailMask+24(SB)/8, $-1
DATA ·tailMask+32(SB)/8, $-1
DATA ·tailMask+40(SB)/8, $-1
DATA ·tailMask+48(SB)/8, $-1
DATA ·tailMask+56(SB)/8, $-1
DATA ·tailMask+64(SB)/8, $-1
DATA ·tailMask+72(SB)/8, $-1
DATA ·tailMask+80(SB)/8, $-1
DATA ·tailMask+88(SB)/8, $-1
DATA ·tailMask+96(SB)/8, $-1
DATA ·tailMask+104(SB)/8, $-1
DATA ·tailMask+112(SB)/8, $-1
DATA ·tailMask+120(SB)/8, $-1
GLOBL ·tailMask(SB), RODATA|NOPTR, $256

// func mulNN4x8(c, a, b *float64, m4, p, k, ldb, ars, acs int)
//
// c[r][q] += Σ_j a[r][j]·b[j][q] over the first m4 rows and all p columns
// of c (m4 a positive multiple of 4, p ≥ 1, k ≥ 1). b is k rows and c is m4
// rows of ldb ≥ p values; a[r][j] is at a + r·ars + j·acs values, so a is
// read row-major (ars = k, acs = 1) or, for aᵀ·b, straight out of a k×m
// matrix (ars = 1, acs = m) with no transposed copy.
//
// One 4×8 tile of c lives in eight ymm accumulators, two per row (Y0–Y7).
// Each j step loads b[j][q:q+8] into Y8/Y9, then per row broadcasts
// a[r][j] into Y10 and runs VMULPD, VMULPD, VADDPD, VADDPD. Every lane is
// one sum continued in ascending j, and each product is rounded before it
// is added — never VFMADD*, whose single rounding would break the scalar
// code's bit pattern. The last p mod 8 columns run the same tile with
// VMASKMOVPD loads and stores of b and c under the masks in Y13/Y14: the
// masked-off lanes read as zero and are never written, so every tile reads
// and writes exactly its columns of each of its four c rows.
TEXT ·mulNN4x8(SB), NOSPLIT, $0-72
	MOVQ c+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ m4+24(FP), R8
	MOVQ p+32(FP), R9
	MOVQ ldb+48(FP), R11
	MOVQ ars+56(FP), R12
	MOVQ acs+64(FP), R10
	SHLQ $3, R11              // R11 = row stride of b and c in bytes
	SHLQ $3, R12              // R12 = a's stride between tile rows in bytes
	SHLQ $3, R10              // R10 = a's stride between j steps in bytes
	LEAQ (R12)(R12*2), R13    // R13 = three tile rows of a

	MOVQ R9, AX
	ANDQ $7, AX               // AX = t, the tail's width
	ANDQ $-8, R9
	SHLQ $3, R9               // R9 = whole-tile width of a c row in bytes
	NEGQ AX
	LEAQ ·tailMask+128(SB), CX
	LEAQ (CX)(AX*8), CX       // tailMask + (16-t)·8
	VMOVDQU (CX), Y13         // lanes 0–3 of the tail mask
	VMOVDQU 32(CX), Y14       // lanes 4–7

rowblock:
	XORQ BX, BX               // byte offset of the tile's first column
	CMPQ BX, R9
	JGE  tail

colblock:
	LEAQ (DI)(BX*1), CX       // c rows 0 and 1 of the tile
	VMOVUPD (CX), Y0
	VMOVUPD 32(CX), Y1
	VMOVUPD (CX)(R11*1), Y2
	VMOVUPD 32(CX)(R11*1), Y3
	LEAQ (CX)(R11*2), CX      // c rows 2 and 3
	VMOVUPD (CX), Y4
	VMOVUPD 32(CX), Y5
	VMOVUPD (CX)(R11*1), Y6
	VMOVUPD 32(CX)(R11*1), Y7

	MOVQ SI, AX               // a[r][j] at (AX), (AX)(R12*1), (AX)(R12*2), (AX)(R13*1)
	LEAQ (DX)(BX*1), CX       // b[j][q]
	MOVQ k+40(FP), R14        // j steps left

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

	VBROADCASTSD (AX)(R12*2), Y10
	VMULPD Y8, Y10, Y11
	VMULPD Y9, Y10, Y12
	VADDPD Y11, Y4, Y4
	VADDPD Y12, Y5, Y5

	VBROADCASTSD (AX)(R13*1), Y10
	VMULPD Y8, Y10, Y11
	VMULPD Y9, Y10, Y12
	VADDPD Y11, Y6, Y6
	VADDPD Y12, Y7, Y7

	ADDQ R10, AX
	ADDQ R11, CX
	DECQ R14
	JNZ  jloop

	LEAQ (DI)(BX*1), CX
	VMOVUPD Y0, (CX)
	VMOVUPD Y1, 32(CX)
	VMOVUPD Y2, (CX)(R11*1)
	VMOVUPD Y3, 32(CX)(R11*1)
	LEAQ (CX)(R11*2), CX
	VMOVUPD Y4, (CX)
	VMOVUPD Y5, 32(CX)
	VMOVUPD Y6, (CX)(R11*1)
	VMOVUPD Y7, 32(CX)(R11*1)

	ADDQ $64, BX
	CMPQ BX, R9
	JLT  colblock

tail:
	MOVQ p+32(FP), CX
	TESTQ $7, CX
	JZ   nextrows

	LEAQ (DI)(BX*1), CX       // the same tile on the last p mod 8 columns
	VMASKMOVPD (CX), Y13, Y0
	VMASKMOVPD 32(CX), Y14, Y1
	VMASKMOVPD (CX)(R11*1), Y13, Y2
	VMASKMOVPD 32(CX)(R11*1), Y14, Y3
	LEAQ (CX)(R11*2), CX
	VMASKMOVPD (CX), Y13, Y4
	VMASKMOVPD 32(CX), Y14, Y5
	VMASKMOVPD (CX)(R11*1), Y13, Y6
	VMASKMOVPD 32(CX)(R11*1), Y14, Y7

	MOVQ SI, AX
	LEAQ (DX)(BX*1), CX
	MOVQ k+40(FP), R14

tailj:
	VMASKMOVPD (CX), Y13, Y8
	VMASKMOVPD 32(CX), Y14, Y9

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

	VBROADCASTSD (AX)(R12*2), Y10
	VMULPD Y8, Y10, Y11
	VMULPD Y9, Y10, Y12
	VADDPD Y11, Y4, Y4
	VADDPD Y12, Y5, Y5

	VBROADCASTSD (AX)(R13*1), Y10
	VMULPD Y8, Y10, Y11
	VMULPD Y9, Y10, Y12
	VADDPD Y11, Y6, Y6
	VADDPD Y12, Y7, Y7

	ADDQ R10, AX
	ADDQ R11, CX
	DECQ R14
	JNZ  tailj

	LEAQ (DI)(BX*1), CX
	VMASKMOVPD Y0, Y13, (CX)
	VMASKMOVPD Y1, Y14, 32(CX)
	VMASKMOVPD Y2, Y13, (CX)(R11*1)
	VMASKMOVPD Y3, Y14, 32(CX)(R11*1)
	LEAQ (CX)(R11*2), CX
	VMASKMOVPD Y4, Y13, (CX)
	VMASKMOVPD Y5, Y14, 32(CX)
	VMASKMOVPD Y6, Y13, (CX)(R11*1)
	VMASKMOVPD Y7, Y14, 32(CX)(R11*1)

nextrows:
	LEAQ (DI)(R11*4), DI      // next four rows of c and a
	LEAQ (SI)(R12*4), SI
	SUBQ $4, R8
	JGT  rowblock

	VZEROUPPER
	RET

// func transposeAVX2(dst, src *float64, rows8, cols4, rows, cols int)
//
// dst[c][r] = src[r][c] for the first rows8 rows and cols4 columns of the
// row-major rows×cols src (rows8 a positive multiple of 8, cols4 of 4), dst
// being cols×rows. One 8×4 block at a time: eight VMOVUPD loads, one per
// src row, two 4×4 transposes in registers (VUNPCKLPD/VUNPCKHPD, then
// VPERM2F128), and two stores into each of four dst rows. Each dst row
// thus gets 64 contiguous bytes — a whole cache line when rows is a
// multiple of 8 — and each src line is finished by the next block, so no
// partly used line has to survive in cache: power-of-two row strides would
// map those lines to a handful of sets and evict them.
TEXT ·transposeAVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ rows8+16(FP), R8
	MOVQ cols4+24(FP), R9
	MOVQ rows+32(FP), R10
	MOVQ cols+40(FP), R11
	SHLQ $3, R9               // R9 = block columns' width in bytes
	SHLQ $3, R10              // R10 = dst row stride in bytes
	SHLQ $3, R11              // R11 = src row stride in bytes
	LEAQ (R11)(R11*2), R12    // three src rows
	LEAQ (R10)(R10*2), R13    // three dst rows

tblockrow:
	XORQ BX, BX               // byte offset of the block in its src rows
	MOVQ DI, DX               // the block's first dst row

tblock:
	LEAQ (SI)(BX*1), CX       // src rows 0–3 of the block
	LEAQ (CX)(R11*4), AX      // src rows 4–7
	VMOVUPD (CX), Y0          // [a0 a1 a2 a3]
	VMOVUPD (CX)(R11*1), Y1   // [b0 b1 b2 b3]
	VMOVUPD (CX)(R11*2), Y2   // [c0 c1 c2 c3]
	VMOVUPD (CX)(R12*1), Y3   // [d0 d1 d2 d3]
	VMOVUPD (AX), Y8
	VMOVUPD (AX)(R11*1), Y9
	VMOVUPD (AX)(R11*2), Y10
	VMOVUPD (AX)(R12*1), Y11
	VUNPCKLPD Y1, Y0, Y4      // [a0 b0 a2 b2]
	VUNPCKHPD Y1, Y0, Y5      // [a1 b1 a3 b3]
	VUNPCKLPD Y3, Y2, Y6      // [c0 d0 c2 d2]
	VUNPCKHPD Y3, Y2, Y7      // [c1 d1 c3 d3]
	VPERM2F128 $0x20, Y6, Y4, Y0 // [a0 b0 c0 d0]
	VPERM2F128 $0x20, Y7, Y5, Y1 // [a1 b1 c1 d1]
	VPERM2F128 $0x31, Y6, Y4, Y2 // [a2 b2 c2 d2]
	VPERM2F128 $0x31, Y7, Y5, Y3 // [a3 b3 c3 d3]
	VUNPCKLPD Y9, Y8, Y12
	VUNPCKHPD Y9, Y8, Y13
	VUNPCKLPD Y11, Y10, Y14
	VUNPCKHPD Y11, Y10, Y15
	VPERM2F128 $0x20, Y14, Y12, Y8
	VPERM2F128 $0x20, Y15, Y13, Y9
	VPERM2F128 $0x31, Y14, Y12, Y10
	VPERM2F128 $0x31, Y15, Y13, Y11
	VMOVUPD Y0, (DX)
	VMOVUPD Y8, 32(DX)
	VMOVUPD Y1, (DX)(R10*1)
	VMOVUPD Y9, 32(DX)(R10*1)
	VMOVUPD Y2, (DX)(R10*2)
	VMOVUPD Y10, 32(DX)(R10*2)
	VMOVUPD Y3, (DX)(R13*1)
	VMOVUPD Y11, 32(DX)(R13*1)
	LEAQ (DX)(R10*4), DX
	ADDQ $32, BX
	CMPQ BX, R9
	JLT  tblock

	LEAQ (SI)(R11*8), SI      // next eight src rows
	ADDQ $64, DI              // are the next eight dst columns
	SUBQ $8, R8
	JGT  tblockrow

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
