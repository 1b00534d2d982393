//go:build amd64 && !purego

#include "textflag.h"

// Every word is x = (x + v)·0.5: VADDPD rounds the sum and VMULPD the
// halving, as ADDSD and MULSD do in the scalar loop (there is no fused
// multiply-add in this file). Eight words a pass in two vectors, then one at
// a time with the scalar forms of the same instructions.

DATA half<>+0(SB)/8, $0.5
GLOBL half<>(SB), RODATA|NOPTR, $8

// func midpointAVX2(x, v []float64)
TEXT ·midpointAVX2(SB), NOSPLIT, $0-48
	MOVQ         x_base+0(FP), DI
	MOVQ         x_len+8(FP), CX
	MOVQ         v_base+24(FP), SI
	VBROADCASTSD half<>(SB), Y0
	XORQ         AX, AX
	MOVQ         CX, DX
	ANDQ         $-8, DX

mid8:
	CMPQ    AX, DX
	JAE     mid1
	VMOVUPD (DI)(AX*8), Y1
	VMOVUPD 32(DI)(AX*8), Y2
	VADDPD  (SI)(AX*8), Y1, Y1
	VADDPD  32(SI)(AX*8), Y2, Y2
	VMULPD  Y0, Y1, Y1
	VMULPD  Y0, Y2, Y2
	VMOVUPD Y1, (DI)(AX*8)
	VMOVUPD Y2, 32(DI)(AX*8)
	ADDQ    $8, AX
	JMP     mid8

mid1:
	CMPQ   AX, CX
	JAE    middone
	VMOVSD (DI)(AX*8), X1
	VADDSD (SI)(AX*8), X1, X1
	VMULSD X0, X1, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ   AX
	JMP    mid1

middone:
	VZEROUPPER
	RET
