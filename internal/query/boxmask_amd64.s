#include "textflag.h"

// func boxMaskAVX512(pts *float64, n, k int, lo, hi *[16]float64) uint64
//
// The rows are read last to first, so that each row's bit enters the
// result at the bottom: the carry of KORTESTW is set when the row's lane
// mask, OR'd with the lanes that are not the row's, is all ones — every
// coordinate inside — and ADCQ shifts it in. The compares are ordered
// (GE_OQ, LE_OQ): a NaN on either side is false, as in Bounds.Contains.
// A row's lanes past k are masked off its load, so nothing after the
// last row is read.
TEXT ·boxMaskAVX512(SB), NOSPLIT, $0-48
	MOVQ pts+0(FP), SI
	MOVQ n+8(FP), BX
	MOVQ k+16(FP), CX
	MOVQ lo+24(FP), R8
	MOVQ hi+32(FP), R9

	// DX = a row's size in bytes; SI = the last row.
	LEAQ  (CX*8), DX
	LEAQ  -1(BX), AX
	IMULQ DX, AX
	ADDQ  AX, SI
	XORL  AX, AX

	// K1 = the lanes of the row's last register: its first k
	// coordinates when k ≤ 8, its last k-8 when k > 8, so R10 =
	// 1<<((k-1)%8+1) - 1.
	DECL  CX
	ANDL  $7, CX
	MOVL  $2, R10
	SHLL  CX, R10
	DECL  R10
	KMOVW R10, K1
	CMPQ  DX, $64
	JA    wide

	// k ≤ 8: K3 = the lanes of a 16-bit mask that are not the row's.
	KNOTW     K1, K3
	VMOVUPD.Z (R8), K1, Z1
	VMOVUPD.Z (R9), K1, Z2

narrow:
	VMOVUPD.Z (SI), K1, Z0
	VCMPPD    $0x1d, Z1, Z0, K1, K2 // x >= lo
	VCMPPD    $0x12, Z2, Z0, K2, K2 // and x <= hi
	KORTESTW  K3, K2
	ADCQ      AX, AX
	SUBQ      DX, SI
	DECQ      BX
	JNZ       narrow
	JMP       done

wide:
	// 8 < k ≤ 16: lanes 0–7 of the first register are the first eight
	// coordinates, K1 those of the second; K3 = the lanes of neither in
	// the 16-bit mask KUNPCKBW makes of the two registers' masks.
	SHLL      $8, R10
	ORL       $0xff, R10
	NOTL      R10
	KMOVW     R10, K3
	VMOVUPD   (R8), Z1
	VMOVUPD   (R9), Z2
	VMOVUPD.Z 64(R8), K1, Z3
	VMOVUPD.Z 64(R9), K1, Z4

wideloop:
	VMOVUPD   (SI), Z0
	VMOVUPD.Z 64(SI), K1, Z5
	VCMPPD    $0x1d, Z1, Z0, K2
	VCMPPD    $0x12, Z2, Z0, K2, K2
	VCMPPD    $0x1d, Z3, Z5, K1, K4
	VCMPPD    $0x12, Z4, Z5, K4, K4
	KUNPCKBW  K2, K4, K5 // K5 = K4 (high byte) : K2 (low byte)
	KORTESTW  K3, K5
	ADCQ      AX, AX
	SUBQ      DX, SI
	DECQ      BX
	JNZ       wideloop

done:
	VZEROUPPER
	MOVQ AX, ret+40(FP)
	RET
