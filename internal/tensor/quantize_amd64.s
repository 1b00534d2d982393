//go:build amd64 && !purego

#include "textflag.h"

// Every word is quantizeGeneric's: a = |x| / norm · s (VANDPD, VDIVPD,
// VMULPD), ⌊a⌋ by VROUNDPD toward zero, a − ⌊a⌋ by VSUBPD, then the draw
// test — VPCMPGTQ of the fraction's bits over u's — and the ordered x < 0 of
// VCMPPD select 1.0 and the sign bit by masks.
// There is no fused multiply-add in this file. Four words a pass, then one
// at a time with the same instructions on the low lane.

DATA absMask<>+0(SB)/8, $0x7fffffffffffffff
GLOBL absMask<>(SB), RODATA|NOPTR, $8
DATA signMask<>+0(SB)/8, $0x8000000000000000
GLOBL signMask<>(SB), RODATA|NOPTR, $8
DATA oneF64<>+0(SB)/8, $1.0
GLOBL oneF64<>(SB), RODATA|NOPTR, $8

// func quantizeAVX2(out, x, u []float64, norm, s float64)
TEXT ·quantizeAVX2(SB), NOSPLIT, $0-88
	MOVQ         out_base+0(FP), DI
	MOVQ         x_base+24(FP), SI
	MOVQ         x_len+32(FP), CX
	MOVQ         u_base+48(FP), DX
	VBROADCASTSD norm+72(FP), Y14
	VBROADCASTSD s+80(FP), Y13
	VBROADCASTSD absMask<>(SB), Y15
	VBROADCASTSD oneF64<>(SB), Y12
	VBROADCASTSD signMask<>(SB), Y11
	VPXOR        Y10, Y10, Y10
	XORQ         AX, AX
	MOVQ         CX, BX
	ANDQ         $-4, BX

q4:
	CMPQ     AX, BX
	JAE      q1
	VMOVUPD  (SI)(AX*8), Y0
	VANDPD   Y15, Y0, Y1
	VDIVPD   Y14, Y1, Y1
	VMULPD   Y13, Y1, Y1
	VROUNDPD $3, Y1, Y2
	VSUBPD   Y2, Y1, Y1
	VMOVUPD  (DX)(AX*8), Y3
	VPCMPGTQ Y3, Y1, Y1
	VANDPD   Y12, Y1, Y1
	VADDPD   Y1, Y2, Y2
	VCMPPD   $0x11, Y10, Y0, Y0
	VANDPD   Y11, Y0, Y0
	VXORPD   Y0, Y2, Y2
	VMOVUPD  Y2, (DI)(AX*8)
	ADDQ     $4, AX
	JMP      q4

q1:
	CMPQ     AX, CX
	JAE      qdone
	VMOVSD   (SI)(AX*8), X0
	VANDPD   X15, X0, X1
	VDIVPD   X14, X1, X1
	VMULPD   X13, X1, X1
	VROUNDPD $3, X1, X2
	VSUBPD   X2, X1, X1
	VMOVSD   (DX)(AX*8), X3
	VPCMPGTQ X3, X1, X1
	VANDPD   X12, X1, X1
	VADDPD   X1, X2, X2
	VCMPPD   $0x11, X10, X0, X0
	VANDPD   X11, X0, X0
	VXORPD   X0, X2, X2
	VMOVSD   X2, (DI)(AX*8)
	INCQ     AX
	JMP      q1

qdone:
	VZEROUPPER
	RET
