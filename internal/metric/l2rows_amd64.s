#include "textflag.h"

// SQUARES loads one row of a block into reg: the chunk of 8 coordinates
// at R13 bytes into the row, with the lanes K1 leaves out zero, as they
// are in q's chunk (Z16); then q − x and its square, each rounded on its
// own, never fused. Lane i of a block is position min(i, R11), so a
// block shorter than 8 repeats its last row instead of reading one the
// batch does not name.
#define SQUARES(i, reg) \
	MOVQ      $i, R10; \
	CMPQ      R10, R11; \
	CMOVQGT   R11, R10; \
	MOVLQSX   (DI)(R10*4), R10; \
	IMULQ     DX, R10; \
	VMOVUPD.Z (R12)(R10*1), K1, reg; \
	VSUBPD    reg, Z16, reg; \
	VMULPD    reg, reg, reg

// TRANSPOSE turns the squares of rows 0–7 in Z0–Z7, lane j coordinate j,
// into Z20–Z27, register j coordinate j and lane i row i: the pairs of
// rows interleaved (VUNPCKL/HPD), then two rounds of 128-bit lane
// shuffles.
#define TRANSPOSE \
	VUNPCKLPD  Z1, Z0, Z20; \
	VUNPCKHPD  Z1, Z0, Z21; \
	VUNPCKLPD  Z3, Z2, Z22; \
	VUNPCKHPD  Z3, Z2, Z23; \
	VUNPCKLPD  Z5, Z4, Z24; \
	VUNPCKHPD  Z5, Z4, Z25; \
	VUNPCKLPD  Z7, Z6, Z26; \
	VUNPCKHPD  Z7, Z6, Z27; \
	VSHUFF64X2 $0x88, Z22, Z20, Z0; \
	VSHUFF64X2 $0xdd, Z22, Z20, Z1; \
	VSHUFF64X2 $0x88, Z23, Z21, Z2; \
	VSHUFF64X2 $0xdd, Z23, Z21, Z3; \
	VSHUFF64X2 $0x88, Z26, Z24, Z4; \
	VSHUFF64X2 $0xdd, Z26, Z24, Z5; \
	VSHUFF64X2 $0x88, Z27, Z25, Z6; \
	VSHUFF64X2 $0xdd, Z27, Z25, Z7; \
	VSHUFF64X2 $0x88, Z4, Z0, Z20; \
	VSHUFF64X2 $0x88, Z6, Z2, Z21; \
	VSHUFF64X2 $0x88, Z5, Z1, Z22; \
	VSHUFF64X2 $0x88, Z7, Z3, Z23; \
	VSHUFF64X2 $0xdd, Z4, Z0, Z24; \
	VSHUFF64X2 $0xdd, Z6, Z2, Z25; \
	VSHUFF64X2 $0xdd, Z5, Z1, Z26; \
	VSHUFF64X2 $0xdd, Z7, Z3, Z27

// func l2RowsAVX512(dist, q *float64, dim int, rows *float64, pos *int32, n int, r float64) uint64
//
// A block is 8 positions, one per lane of Z17, which sums the squares
// of its row's coordinates in L2's order: 8 coordinates at a time, each
// chunk's squares transposed so that coordinate j of all 8 rows is one
// register, and added one register after the other. The first chunk's
// sum starts at its coordinate 0, which is what L2's 0 + d₀² is; lanes
// past the row's last coordinate add +0, which changes no sum of
// squares. Then VSQRTPD, the ordered compare with r (LE_OQ) and a
// store of the block's lanes; the hit mask enters the result at bit 8
// per block.
TEXT ·l2RowsAVX512(SB), NOSPLIT, $0-64
	MOVQ         dist+0(FP), R9
	MOVQ         q+8(FP), R8
	MOVQ         dim+16(FP), DX
	MOVQ         rows+24(FP), SI
	MOVQ         pos+32(FP), DI
	MOVQ         n+40(FP), BX
	VBROADCASTSD r+48(FP), Z18

	// K4 = the lanes of a row's last chunk, its first (dim-1)%8+1;
	// K5 = all eight.
	LEAQ  -1(DX), CX
	ANDL  $7, CX
	MOVL  $2, R10
	SHLL  CX, R10
	DECL  R10
	KMOVW R10, K4
	MOVL  $0xff, R10
	KMOVW R10, K5
	SHLQ  $3, DX     // a row's size in bytes
	XORL  AX, AX
	XORL  CX, CX     // the block's first bit in the result

block:
	// R11 = the block's last lane, min(n left, 8) - 1; K3 = its lanes.
	LEAQ    -1(BX), R11
	MOVQ    $7, R10
	CMPQ    R11, R10
	CMOVQGT R10, R11
	MOVQ    CX, R13
	MOVQ    R11, CX
	MOVL    $2, R10
	SHLL    CX, R10
	DECL    R10
	KMOVW   R10, K3
	MOVQ    R13, CX
	XORL    R13, R13 // the chunk's offset in a row, in bytes

	// The loop starts a cache line, as query's boxMaskAVX512's does, so
	// that where the linker puts the function cannot split it across
	// two.
	PCALIGN $64

chunk:
	// R12 = the chunk in row 0; K1 = its lanes.
	LEAQ      (SI)(R13*1), R12
	LEAQ      64(R13), R10
	KMOVW     K5, K1
	CMPQ      R10, DX
	JLE       loadq
	KMOVW     K4, K1
loadq:
	VMOVUPD.Z (R8)(R13*1), K1, Z16
	SQUARES(0, Z0)
	SQUARES(1, Z1)
	SQUARES(2, Z2)
	SQUARES(3, Z3)
	SQUARES(4, Z4)
	SQUARES(5, Z5)
	SQUARES(6, Z6)
	SQUARES(7, Z7)
	TRANSPOSE
	TESTQ     R13, R13
	JNZ       more
	VMOVAPD   Z20, Z17
	JMP       rest
more:
	VADDPD    Z20, Z17, Z17
rest:
	VADDPD    Z21, Z17, Z17
	VADDPD    Z22, Z17, Z17
	VADDPD    Z23, Z17, Z17
	VADDPD    Z24, Z17, Z17
	VADDPD    Z25, Z17, Z17
	VADDPD    Z26, Z17, Z17
	VADDPD    Z27, Z17, Z17
	ADDQ      $64, R13
	CMPQ      R13, DX
	JLT       chunk

	VSQRTPD Z17, Z17
	VCMPPD  $0x12, Z18, Z17, K3, K2 // dist <= r, in the block's lanes
	VMOVUPD Z17, K3, (R9)
	KMOVW   K2, R10
	SHLQ    CX, R10
	ORQ     R10, AX
	ADDQ    $8, CX
	ADDQ    $32, DI
	ADDQ    $64, R9
	SUBQ    $8, BX
	JG      block

	VZEROUPPER
	MOVQ AX, ret+56(FP)
	RET
