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
//
// The epilogue runs on each transposed row before its store: VADDPD adds
// b[j..j+3] (the one-row tile's b[j], broadcast) with the chain's sum as the
// first source, as the scalar loop's s += b[j] does; then, under relu,
// VMAXPD with the sum as the first Intel-order source and +0 as the second.
// MAXPD returns its second source unless the first is greater, so a value
// > 0 stays and −0, NaN, −Inf and +0 itself all become +0: exactly the
// scalar loop's gate.

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

// epilogue4 adds the bias vector b to each transposed row, Y12–Y15, the
// row as the first source.
#define epilogue4(b) \
	VADDPD b, Y12, Y12; \
	VADDPD b, Y13, Y13; \
	VADDPD b, Y14, Y14; \
	VADDPD b, Y15, Y15

// relu4 gates each transposed row, Y12–Y15, by max(row, zero), the row as
// the first Intel-order source: zero must hold +0.
#define relu4(zero) \
	VMAXPD zero, Y12, Y12; \
	VMAXPD zero, Y13, Y13; \
	VMAXPD zero, Y14, Y14; \
	VMAXPD zero, Y15, Y15

// func mulTransposedAVX2(out, xT, w, b []float64, rows, n, k, lanes int, relu bool)
//
// SI is xT, DI &out[0][j], R10–R13 rows j to j+3 of w, R8 an xT row in
// bytes, R9 an out row in bytes, BX the tile's first lane, CX k and DX the
// rows of w left. In the k loop R14 is the tile's xT column at step AX; in
// the epilogue AX is &b[j], and in the stores the batch rows left from lane
// BX, with R14 the out row being written. R14 is free: ABI0 code may
// clobber it, and the ABI wrapper restores it on return. The epilogue
// keeps b[j..j+3] in Y0 and +0 in Y2, which the first transpose has freed.
TEXT ·mulTransposedAVX2(SB), NOSPLIT, $0-129
	MOVQ out_base+0(FP), DI
	MOVQ xT_base+24(FP), SI
	MOVQ w_base+48(FP), R10
	MOVQ n+104(FP), DX
	MOVQ DX, R9
	SHLQ $3, R9
	MOVQ k+112(FP), CX
	MOVQ lanes+120(FP), R8
	SHLQ $3, R8

quad:
	CMPQ DX, $4
	JB   single
	LEAQ (R10)(CX*8), R11
	LEAQ (R11)(CX*8), R12
	LEAQ (R12)(CX*8), R13
	XORQ BX, BX

quadtile:
	CMPQ   BX, lanes+120(FP)
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
	transpose4(Y0, Y2, Y4, Y6)
	MOVQ       DI, AX
	SUBQ       out_base+0(FP), AX
	ADDQ       b_base+72(FP), AX
	VMOVUPD    (AX), Y0
	VXORPD     Y2, Y2, Y2
	epilogue4(Y0)
	CMPB       relu+128(FP), $0
	JEQ        quadlo
	relu4(Y2)

quadlo:
	MOVQ       rows+96(FP), AX
	SUBQ       BX, AX
	MOVQ       BX, R14
	IMULQ      R9, R14
	ADDQ       DI, R14
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
	epilogue4(Y0)
	CMPB       relu+128(FP), $0
	JEQ        quadhi
	relu4(Y2)

quadhi:
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
	CMPQ   BX, lanes+120(FP)
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

	// The epilogue on both vectors, then lane q of Y0 (q < 4) or Y1 goes
	// to out[BX+q][j].
singlestore:
	MOVQ         DI, AX
	SUBQ         out_base+0(FP), AX
	ADDQ         b_base+72(FP), AX
	VBROADCASTSD (AX), Y2
	VADDPD       Y2, Y0, Y0
	VADDPD       Y2, Y1, Y1
	CMPB         relu+128(FP), $0
	JEQ          singleout
	VXORPD       Y3, Y3, Y3
	VMAXPD       Y3, Y0, Y0
	VMAXPD       Y3, Y1, Y1

singleout:
	MOVQ         rows+96(FP), AX
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
