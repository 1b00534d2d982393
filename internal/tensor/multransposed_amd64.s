//go:build amd64 && !purego

#include "textflag.h"

// Lanes over the batch: a tile is four rows of w against eight columns of
// xT (eight batch rows), eight accumulators that stay in registers for the
// whole k loop. Each k loads the tile's eight xT entries once, broadcasts
// each of the four w entries once, and adds every product to its own
// accumulator — VMULPD rounds the product and VADDPD the sum, as MULSD and
// ADDSD do in the scalar loop; there is no fused multiply-add anywhere in
// this file. Every accumulator starts at +0 and takes k in ascending order,
// so each lane is one whole chain. The last n % 4 rows of w take a one-row
// tile of two accumulators. A tile's results go straight to out's rows:
// the four-row tile's by two in-register 4×4 transposes (VUNPCKLPD,
// VUNPCKHPD, VPERM2F128 — moves, no arithmetic), the one-row tile's one
// element at a time, and a lane past the batch's last row is not stored.

// kstep adds w[r][AX]·xT[AX][l:l+8] (Y8, Y9) into the row's accumulators.
#define kstep(wrow, acc0, acc1) \
	VBROADCASTSD (wrow)(AX*8), Y10; \
	VMULPD       Y8, Y10, Y14;      \
	VMULPD       Y9, Y10, Y15;      \
	VADDPD       Y14, acc0, acc0;   \
	VADDPD       Y15, acc1, acc1

// transpose4 writes the 4×4 block whose rows are a0–a3 into Y12–Y15 as its
// columns; Y8–Y11 are clobbered.
#define transpose4(a0, a1, a2, a3) \
	VUNPCKLPD  a1, a0, Y8;       \
	VUNPCKHPD  a1, a0, Y9;       \
	VUNPCKLPD  a3, a2, Y10;      \
	VUNPCKHPD  a3, a2, Y11;      \
	VPERM2F128 $0x20, Y10, Y8, Y12; \
	VPERM2F128 $0x20, Y11, Y9, Y13; \
	VPERM2F128 $0x31, Y10, Y8, Y14; \
	VPERM2F128 $0x31, Y11, Y9, Y15

// func mulTransposedAVX2(out, xT, w []float64, b, n, k, lanes int)
//
// SI is xT, DI &out[0][j], R10–R13 rows j to j+3 of w, R8 an xT row in
// bytes, R9 an out row in bytes, BX the tile's first lane, CX k and DX the
// rows of w left. In the k loop R14 is the tile's xT column at step AX; in
// the stores AX is the batch rows left from lane BX and R14 the out row
// being written. R14 is free: ABI0 code may clobber it, and the ABI wrapper
// restores it on return.
TEXT ·mulTransposedAVX2(SB), NOSPLIT, $0-104
	MOVQ out_base+0(FP), DI
	MOVQ xT_base+24(FP), SI
	MOVQ w_base+48(FP), R10
	MOVQ n+80(FP), DX
	MOVQ DX, R9
	SHLQ $3, R9
	MOVQ k+88(FP), CX
	MOVQ lanes+96(FP), R8
	SHLQ $3, R8

quad:
	CMPQ DX, $4
	JB   single
	LEAQ (R10)(CX*8), R11
	LEAQ (R11)(CX*8), R12
	LEAQ (R12)(CX*8), R13
	XORQ BX, BX

quadtile:
	CMPQ   BX, lanes+96(FP)
	JAE    quadnext
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	LEAQ   (SI)(BX*8), R14
	XORQ   AX, AX

quadk:
	CMPQ    AX, CX
	JAE     quadstore
	VMOVUPD (R14), Y8
	VMOVUPD 32(R14), Y9
	kstep(R10, Y0, Y1)
	kstep(R11, Y2, Y3)
	kstep(R12, Y4, Y5)
	kstep(R13, Y6, Y7)
	ADDQ    R8, R14
	INCQ    AX
	JMP     quadk

quadstore:
	MOVQ       b+72(FP), AX
	SUBQ       BX, AX
	MOVQ       BX, R14
	IMULQ      R9, R14
	ADDQ       DI, R14
	transpose4(Y0, Y2, Y4, Y6)
	VMOVUPD    Y12, (R14)
	CMPQ       AX, $1
	JBE        quadstored
	ADDQ       R9, R14
	VMOVUPD    Y13, (R14)
	CMPQ       AX, $2
	JBE        quadstored
	ADDQ       R9, R14
	VMOVUPD    Y14, (R14)
	CMPQ       AX, $3
	JBE        quadstored
	ADDQ       R9, R14
	VMOVUPD    Y15, (R14)
	CMPQ       AX, $4
	JBE        quadstored
	ADDQ       R9, R14
	transpose4(Y1, Y3, Y5, Y7)
	VMOVUPD    Y12, (R14)
	CMPQ       AX, $5
	JBE        quadstored
	ADDQ       R9, R14
	VMOVUPD    Y13, (R14)
	CMPQ       AX, $6
	JBE        quadstored
	ADDQ       R9, R14
	VMOVUPD    Y14, (R14)
	CMPQ       AX, $7
	JBE        quadstored
	ADDQ       R9, R14
	VMOVUPD    Y15, (R14)

quadstored:
	ADDQ $8, BX
	JMP  quadtile

quadnext:
	LEAQ (R13)(CX*8), R10
	ADDQ $32, DI
	SUBQ $4, DX
	JMP  quad

	// The last n % 4 rows of w, one at a time.
single:
	TESTQ DX, DX
	JZ    done
	XORQ  BX, BX

singletile:
	CMPQ   BX, lanes+96(FP)
	JAE    singlenext
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	LEAQ   (SI)(BX*8), R14
	XORQ   AX, AX

singlek:
	CMPQ    AX, CX
	JAE     singlestore
	VMOVUPD (R14), Y8
	VMOVUPD 32(R14), Y9
	kstep(R10, Y0, Y1)
	ADDQ    R8, R14
	INCQ    AX
	JMP     singlek

	// Lane q of Y0 (q < 4) or Y1 goes to out[BX+q][j].
singlestore:
	MOVQ         b+72(FP), AX
	SUBQ         BX, AX
	MOVQ         BX, R14
	IMULQ        R9, R14
	ADDQ         DI, R14
	VEXTRACTF128 $1, Y0, X2
	VEXTRACTF128 $1, Y1, X3
	VMOVSD       X0, (R14)
	CMPQ         AX, $1
	JBE          singlestored
	ADDQ         R9, R14
	VMOVHPD      X0, (R14)
	CMPQ         AX, $2
	JBE          singlestored
	ADDQ         R9, R14
	VMOVSD       X2, (R14)
	CMPQ         AX, $3
	JBE          singlestored
	ADDQ         R9, R14
	VMOVHPD      X2, (R14)
	CMPQ         AX, $4
	JBE          singlestored
	ADDQ         R9, R14
	VMOVSD       X1, (R14)
	CMPQ         AX, $5
	JBE          singlestored
	ADDQ         R9, R14
	VMOVHPD      X1, (R14)
	CMPQ         AX, $6
	JBE          singlestored
	ADDQ         R9, R14
	VMOVSD       X3, (R14)
	CMPQ         AX, $7
	JBE          singlestored
	ADDQ         R9, R14
	VMOVHPD      X3, (R14)

singlestored:
	ADDQ $8, BX
	JMP  singletile

singlenext:
	LEAQ (R10)(CX*8), R10
	ADDQ $8, DI
	DECQ DX
	JMP  single

done:
	VZEROUPPER
	RET
