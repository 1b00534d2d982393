//go:build amd64 && !purego

#include "textflag.h"

// Every destination element is its own chain: load it, add each product in
// row order (VMULPD rounds the product and VADDPD the sum, as MULSD and
// ADDSD do in the scalar loop — there is no fused multiply-add anywhere in
// this file), store it. Eight elements a pass in two independent vectors,
// then four, then one at a time with the scalar forms of the same
// instructions. axpyRowsAVX2 writes rather than adds: its first pass over
// dst loads each element through an all-zero mask (VANDPD), so the chain
// starts at +0 exactly as over a cleared dst, and every later pass through
// an all-ones mask, which is the plain load.

// func cpuHasAVX2() bool
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVL $0, AX
	CPUID
	CMPL AX, $7
	JB   no

	// Leaf 1: ECX bit 27 (OSXSAVE) and bit 28 (AVX).
	MOVL $1, AX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  no

	// XCR0 bits 1 and 2: the OS saves the XMM and YMM state.
	MOVL   $0, CX
	XGETBV
	ANDL   $6, AX
	CMPL   AX, $6
	JNE    no

	// Leaf 7, sub-leaf 0: EBX bit 5 (AVX2).
	MOVL $7, AX
	MOVL $0, CX
	CPUID
	ANDL $0x20, BX
	JZ   no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// func axpyAVX2(a float64, x, y []float64)
TEXT ·axpyAVX2(SB), NOSPLIT, $0-56
	MOVQ         x_base+8(FP), SI
	MOVQ         x_len+16(FP), CX
	MOVQ         y_base+32(FP), DI
	VBROADCASTSD a+0(FP), Y0
	XORQ         AX, AX
	MOVQ         CX, DX
	ANDQ         $-8, DX

axpy8:
	CMPQ    AX, DX
	JAE     axpy4
	VMULPD  (SI)(AX*8), Y0, Y1
	VMULPD  32(SI)(AX*8), Y0, Y2
	VADDPD  (DI)(AX*8), Y1, Y1
	VADDPD  32(DI)(AX*8), Y2, Y2
	VMOVUPD Y1, (DI)(AX*8)
	VMOVUPD Y2, 32(DI)(AX*8)
	ADDQ    $8, AX
	JMP     axpy8

axpy4:
	MOVQ    CX, DX
	ANDQ    $-4, DX
	CMPQ    AX, DX
	JAE     axpy1
	VMULPD  (SI)(AX*8), Y0, Y1
	VADDPD  (DI)(AX*8), Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ    $4, AX

axpy1:
	CMPQ   AX, CX
	JAE    axpydone
	VMULSD (SI)(AX*8), X0, X1
	VADDSD (DI)(AX*8), X1, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ   AX
	JMP    axpy1

axpydone:
	VZEROUPPER
	RET

// rowEnd loads row index p from idx, fails unless 0 <= p < rows,
// broadcasts g[p·stride] into gy and leaves in ptr the end of row p of src:
// src + (p+1)·n·8. R14 holds rows, R13 the stride in bytes, CX the row
// length n; AX is clobbered.
#define rowEnd(idx, ptr, gy) \
	MOVLQSX      idx, ptr; \
	CMPQ         ptr, R14; \
	JAE          bad; \
	MOVQ         ptr, AX; \
	IMULQ        R13, AX; \
	VBROADCASTSD (BX)(AX*1), gy; \
	INCQ         ptr; \
	IMULQ        CX, ptr; \
	LEAQ         (SI)(ptr*8), ptr

// func axpyRowsAVX2(dst, src, g []float64, stride, rows int, idx []int32) bool
//
// DI is the end of dst and every row pointer the end of its row, so one
// index AX runs from -n up to 0 over all of them. Y8 is the load mask: +0
// until the first pass over dst ends, all ones after it. R14 is free: ABI0
// code may clobber it, and the ABI wrapper restores it on return.
TEXT ·axpyRowsAVX2(SB), NOSPLIT, $0-113
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	LEAQ (DI)(CX*8), DI
	MOVQ src_base+24(FP), SI
	MOVQ g_base+48(FP), BX
	MOVQ stride+72(FP), R13
	SHLQ $3, R13
	MOVQ rows+80(FP), R14
	MOVQ idx_base+88(FP), R8
	MOVQ idx_len+96(FP), R9
	LEAQ (R8)(R9*4), R9
	VXORPD Y8, Y8, Y8

group:
	LEAQ 16(R8), AX
	CMPQ AX, R9
	JA   single
	rowEnd(0(R8), R10, Y0)
	rowEnd(4(R8), R11, Y1)
	rowEnd(8(R8), R12, Y2)
	rowEnd(12(R8), DX, Y3)
	ADDQ $16, R8
	MOVQ CX, AX
	NEGQ AX

group8:
	CMPQ    AX, $-8
	JGT     group4
	VANDPD  (DI)(AX*8), Y8, Y4
	VANDPD  32(DI)(AX*8), Y8, Y5
	VMULPD  (R10)(AX*8), Y0, Y6
	VMULPD  32(R10)(AX*8), Y0, Y7
	VADDPD  Y6, Y4, Y4
	VADDPD  Y7, Y5, Y5
	VMULPD  (R11)(AX*8), Y1, Y6
	VMULPD  32(R11)(AX*8), Y1, Y7
	VADDPD  Y6, Y4, Y4
	VADDPD  Y7, Y5, Y5
	VMULPD  (R12)(AX*8), Y2, Y6
	VMULPD  32(R12)(AX*8), Y2, Y7
	VADDPD  Y6, Y4, Y4
	VADDPD  Y7, Y5, Y5
	VMULPD  (DX)(AX*8), Y3, Y6
	VMULPD  32(DX)(AX*8), Y3, Y7
	VADDPD  Y6, Y4, Y4
	VADDPD  Y7, Y5, Y5
	VMOVUPD Y4, (DI)(AX*8)
	VMOVUPD Y5, 32(DI)(AX*8)
	ADDQ    $8, AX
	JMP     group8

group4:
	CMPQ    AX, $-4
	JGT     group1
	VANDPD  (DI)(AX*8), Y8, Y4
	VMULPD  (R10)(AX*8), Y0, Y6
	VADDPD  Y6, Y4, Y4
	VMULPD  (R11)(AX*8), Y1, Y6
	VADDPD  Y6, Y4, Y4
	VMULPD  (R12)(AX*8), Y2, Y6
	VADDPD  Y6, Y4, Y4
	VMULPD  (DX)(AX*8), Y3, Y6
	VADDPD  Y6, Y4, Y4
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ    $4, AX

group1:
	TESTQ  AX, AX
	JZ     grouped
	VMOVSD (DI)(AX*8), X4
	VANDPD X8, X4, X4
	VMULSD (R10)(AX*8), X0, X6
	VADDSD X6, X4, X4
	VMULSD (R11)(AX*8), X1, X6
	VADDSD X6, X4, X4
	VMULSD (R12)(AX*8), X2, X6
	VADDSD X6, X4, X4
	VMULSD (DX)(AX*8), X3, X6
	VADDSD X6, X4, X4
	VMOVSD X4, (DI)(AX*8)
	INCQ   AX
	JMP    group1

grouped:
	VPCMPEQQ Y8, Y8, Y8
	JMP      group

	// The last len(idx) % 4 rows, one pass over dst each.
single:
	CMPQ R8, R9
	JAE  rowsdone
	rowEnd(0(R8), R10, Y0)
	ADDQ $4, R8
	MOVQ CX, AX
	NEGQ AX

single8:
	CMPQ    AX, $-8
	JGT     single4
	VMULPD  (R10)(AX*8), Y0, Y6
	VMULPD  32(R10)(AX*8), Y0, Y7
	VANDPD  (DI)(AX*8), Y8, Y4
	VANDPD  32(DI)(AX*8), Y8, Y5
	VADDPD  Y4, Y6, Y6
	VADDPD  Y5, Y7, Y7
	VMOVUPD Y6, (DI)(AX*8)
	VMOVUPD Y7, 32(DI)(AX*8)
	ADDQ    $8, AX
	JMP     single8

single4:
	CMPQ    AX, $-4
	JGT     single1
	VMULPD  (R10)(AX*8), Y0, Y6
	VANDPD  (DI)(AX*8), Y8, Y4
	VADDPD  Y4, Y6, Y6
	VMOVUPD Y6, (DI)(AX*8)
	ADDQ    $4, AX

single1:
	TESTQ  AX, AX
	JZ     singled
	VMULSD (R10)(AX*8), X0, X6
	VMOVSD (DI)(AX*8), X4
	VANDPD X8, X4, X4
	VADDSD X4, X6, X6
	VMOVSD X6, (DI)(AX*8)
	INCQ   AX
	JMP    single1

singled:
	VPCMPEQQ Y8, Y8, Y8
	JMP      single

rowsdone:
	VZEROUPPER
	MOVB $1, ret+112(FP)
	RET

bad:
	VZEROUPPER
	MOVB $0, ret+112(FP)
	RET
