//go:build amd64 && !purego

#include "textflag.h"

// Four columns at a time, walking down the rows: each row loads the four
// gradients and compares them and the four outputs against +0 in lanes —
// VCMPPD LT_OQ for 0 < y (false for NaN), ORed with all ones when every
// unit passes, and NEQ_UQ for g != 0 (true for NaN). The gate is a VANDPD
// of the gradients with the first mask, and the gated row is added into the
// four sums with VADDPD, the sum as the first source, as the scalar loop's
// s += v does. VMOVMSKPD of both masks ANDed gives the four columns' list
// bits: each column writes the row index at its list's end, and the end
// advances by the bit. No arithmetic here but the one VADDPD a row, and no
// fused multiply-add.

// push writes row CX at the list end ptr and advances ptr by four bytes
// when bit b of AX is set; BX is clobbered.
#define push(b, ptr) \
	MOVL CX, (ptr);   \
	MOVL AX, BX;      \
	SHRL $b, BX;      \
	ANDL $1, BX;      \
	LEAQ (ptr)(BX*4), ptr

// func maskedColumnsAVX2(sums []float64, lists, ends []int32, g, y []float64, rows, n int, all bool)
//
// DX is the group's first column, R14 the end of the whole groups, R9 rows,
// R8 a row in bytes. Down a group SI and DI walk g and y, CX is the row and
// R10–R13 the four lists' ends, as pointers. Y0 holds the four sums, Y6
// all ones when every unit passes (all) and +0 otherwise, Y7 +0. R14 is
// free: ABI0 code may clobber it, and the ABI wrapper restores it on
// return.
TEXT ·maskedColumnsAVX2(SB), NOSPLIT, $0-137
	MOVQ     rows+120(FP), R9
	MOVQ     n+128(FP), R8
	MOVQ     R8, R14
	ANDQ     $-4, R14
	SHLQ     $3, R8
	VXORPD   Y7, Y7, Y7
	VXORPD   Y6, Y6, Y6
	CMPB     all+136(FP), $0
	JEQ      start
	VPCMPEQQ Y6, Y6, Y6

start:
	XORQ DX, DX

group:
	CMPQ   DX, R14
	JAE    done
	MOVQ   g_base+72(FP), SI
	LEAQ   (SI)(DX*8), SI
	MOVQ   y_base+96(FP), DI
	LEAQ   (DI)(DX*8), DI
	MOVQ   DX, R10
	IMULQ  R9, R10
	SHLQ   $2, R10
	ADDQ   lists_base+24(FP), R10
	MOVQ   R9, BX
	SHLQ   $2, BX
	LEAQ   (R10)(BX*1), R11
	LEAQ   (R11)(BX*1), R12
	LEAQ   (R12)(BX*1), R13
	VXORPD Y0, Y0, Y0
	XORQ   CX, CX

row:
	CMPQ      CX, R9
	JAE       groupdone
	VMOVUPD   (SI), Y1
	VCMPPD    $0x11, (DI), Y7, Y3
	VORPD     Y6, Y3, Y3
	VCMPPD    $0x04, Y7, Y1, Y4
	VANDPD    Y3, Y1, Y5
	VADDPD    Y5, Y0, Y0
	VANDPD    Y3, Y4, Y4
	VMOVMSKPD Y4, AX
	push(0, R10)
	push(1, R11)
	push(2, R12)
	push(3, R13)
	ADDQ      R8, SI
	ADDQ      R8, DI
	INCQ      CX
	JMP       row

	// The four sums, and each list's end as an index into lists.
groupdone:
	MOVQ    sums_base+0(FP), AX
	VMOVUPD Y0, (AX)(DX*8)
	MOVQ    lists_base+24(FP), AX
	MOVQ    ends_base+48(FP), BX
	SUBQ    AX, R10
	SHRQ    $2, R10
	MOVL    R10, (BX)(DX*4)
	SUBQ    AX, R11
	SHRQ    $2, R11
	MOVL    R11, 4(BX)(DX*4)
	SUBQ    AX, R12
	SHRQ    $2, R12
	MOVL    R12, 8(BX)(DX*4)
	SUBQ    AX, R13
	SHRQ    $2, R13
	MOVL    R13, 12(BX)(DX*4)
	ADDQ    $4, DX
	JMP     group

done:
	VZEROUPPER
	RET
