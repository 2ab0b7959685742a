//go:build amd64

#include "textflag.h"

// The per-sample forward product y = y + W·x of one Dense layer, W row-major
// [out][in]. Each lane of an accumulator is one output o: it starts from
// y[o] (the bias) and takes W[o][i]·x[i] over i ascending, one VFMADD231PD
// per term with W in the multiplicand and x in the multiplier, the
// operands math.FMA(W[o][i], x[i], s) has in Dense.forward. A lane needs
// column i of its block of W, so each step reads a block of rows and
// transposes it in registers; nothing is cached between calls.
//
// One block's sum is a chain of dependent multiply-adds, bound by their
// latency, so the kernel keeps four blocks in flight: each step broadcasts
// x[i] once into a register the four blocks share, then runs the four
// transposes and chains. Outputs past the last whole group of four blocks
// run one block at a time. The kernel takes whole blocks of rows and of
// columns only: the caller continues the last in mod 4 terms of every sum
// and runs the last out mod 4 outputs.

// YBLOCK continues acc, one block of four outputs whose row 0 at the
// current column is CX, by four columns with the multipliers in Y4–Y7.
// Each of Y8–Y11 is two half rows, two columns of rows r and r+2 (an xmm
// load and a VINSERTF128 from memory), so one VUNPCKLPD/VUNPCKHPD of a
// pair makes a whole column.
#define YBLOCK(acc) \
	VMOVUPD     (CX), X8; \
	VINSERTF128 $1, (CX)(R10*2), Y8, Y8; \
	VMOVUPD     (CX)(R10*1), X9; \
	VINSERTF128 $1, (CX)(R11*1), Y9, Y9; \
	VMOVUPD     16(CX), X10; \
	VINSERTF128 $1, 16(CX)(R10*2), Y10, Y10; \
	VMOVUPD     16(CX)(R10*1), X11; \
	VINSERTF128 $1, 16(CX)(R11*1), Y11, Y11; \
	VUNPCKLPD   Y9, Y8, Y12; \
	VUNPCKHPD   Y9, Y8, Y13; \
	VUNPCKLPD   Y11, Y10, Y14; \
	VUNPCKHPD   Y11, Y10, Y15; \
	VFMADD231PD Y4, Y12, acc; \
	VFMADD231PD Y5, Y13, acc; \
	VFMADD231PD Y6, Y14, acc; \
	VFMADD231PD Y7, Y15, acc

// YBCAST broadcasts x[i] … x[i+3], at AX, into Y4–Y7.
#define YBCAST \
	VBROADCASTSD (AX), Y4; \
	VBROADCASTSD 8(AX), Y5; \
	VBROADCASTSD 16(AX), Y6; \
	VBROADCASTSD 24(AX), Y7

// func gemv4x4(y, w, x *float64, out4, in4, in int)
//
// y[o] += Σ_{i<in4} W[o][i]·x[i] for o < out4, in the order above, on ymm:
// out4 and in4 positive multiples of 4, W rows in values apart. Blocks are
// four outputs, steps four columns. It needs AVX2 and FMA3, so it serves
// the avx512 tier as well.
TEXT ·gemv4x4(SB), NOSPLIT, $0-48
	MOVQ y+0(FP), DI
	MOVQ w+8(FP), SI
	MOVQ x+16(FP), DX
	MOVQ out4+24(FP), R8
	MOVQ in4+32(FP), R9
	MOVQ in+40(FP), R10
	SHLQ $3, R9               // R9 = a block row's width in bytes
	SHLQ $3, R10              // R10 = W's row stride in bytes
	LEAQ (R10)(R10*2), R11    // three rows
	MOVQ R10, R12
	SHLQ $2, R12              // R12 = one block of four rows

ygroup:
	CMPQ R8, $16
	JLT  ysingle
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	MOVQ SI, BX
	MOVQ DX, AX
	MOVQ R9, R13

ygroupstep:
	YBCAST
	MOVQ BX, CX
	YBLOCK(Y0)
	ADDQ R12, CX
	YBLOCK(Y1)
	ADDQ R12, CX
	YBLOCK(Y2)
	ADDQ R12, CX
	YBLOCK(Y3)
	ADDQ $32, BX
	ADDQ $32, AX
	SUBQ $32, R13
	JNZ  ygroupstep

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ $128, DI
	LEAQ (SI)(R12*4), SI      // the next 16 rows
	SUBQ $16, R8
	JMP  ygroup

ysingle:
	TESTQ R8, R8
	JZ    ydone
	VMOVUPD (DI), Y0
	MOVQ SI, CX
	MOVQ DX, AX
	MOVQ R9, R13

ysinglestep:
	YBCAST
	YBLOCK(Y0)
	ADDQ $32, CX
	ADDQ $32, AX
	SUBQ $32, R13
	JNZ  ysinglestep

	VMOVUPD Y0, (DI)
	ADDQ $32, DI
	ADDQ R12, SI
	SUBQ $4, R8
	JMP  ysingle

ydone:
	VZEROUPPER
	RET
