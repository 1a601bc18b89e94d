//go:build amd64 && !purego

#include "textflag.h"

// Both kernels keep four min and four max accumulators, all seeded with one
// non-NaN value. VMINPS/VMAXPS return their second source when either
// operand is NaN; the accumulator is always the second source, so a NaN
// element leaves it unchanged, as rangeOf's v < mn and v > mx do. When both
// operands are zeros the second source is returned too, so which sign of
// zero survives depends on lane order (see rangeVector).

// func rangeF32AVX2(p *float32, n int, seed float32) (mn, mx float32)
// n is a positive multiple of 32.
TEXT ·rangeF32AVX2(SB), NOSPLIT, $0-32
	MOVQ p+0(FP), SI
	MOVQ n+8(FP), CX
	VBROADCASTSS seed+16(FP), Y0
	VMOVAPS Y0, Y1
	VMOVAPS Y0, Y2
	VMOVAPS Y0, Y3
	VMOVAPS Y0, Y4
	VMOVAPS Y0, Y5
	VMOVAPS Y0, Y6
	VMOVAPS Y0, Y7
	SHRQ $5, CX
loop32:
	VMOVUPS (SI), Y8
	VMOVUPS 32(SI), Y9
	VMOVUPS 64(SI), Y10
	VMOVUPS 96(SI), Y11
	VMINPS Y0, Y8, Y0
	VMAXPS Y4, Y8, Y4
	VMINPS Y1, Y9, Y1
	VMAXPS Y5, Y9, Y5
	VMINPS Y2, Y10, Y2
	VMAXPS Y6, Y10, Y6
	VMINPS Y3, Y11, Y3
	VMAXPS Y7, Y11, Y7
	ADDQ $128, SI
	DECQ CX
	JNZ loop32
	VMINPS Y0, Y1, Y0
	VMINPS Y2, Y3, Y2
	VMINPS Y0, Y2, Y0
	VMAXPS Y4, Y5, Y4
	VMAXPS Y6, Y7, Y6
	VMAXPS Y4, Y6, Y4
	VEXTRACTF128 $1, Y0, X1
	VEXTRACTF128 $1, Y4, X5
	VMINPS X0, X1, X0
	VMAXPS X4, X5, X4
	VPSHUFD $0x4E, X0, X1
	VPSHUFD $0x4E, X4, X5
	VMINPS X0, X1, X0
	VMAXPS X4, X5, X4
	VPSHUFD $0xB1, X0, X1
	VPSHUFD $0xB1, X4, X5
	VMINPS X0, X1, X0
	VMAXPS X4, X5, X4
	VMOVSS X0, mn+24(FP)
	VMOVSS X4, mx+28(FP)
	VZEROUPPER
	RET

// func rangeF64AVX2(p *float64, n int, seed float64) (mn, mx float64)
// n is a positive multiple of 16.
TEXT ·rangeF64AVX2(SB), NOSPLIT, $0-40
	MOVQ p+0(FP), SI
	MOVQ n+8(FP), CX
	VBROADCASTSD seed+16(FP), Y0
	VMOVAPD Y0, Y1
	VMOVAPD Y0, Y2
	VMOVAPD Y0, Y3
	VMOVAPD Y0, Y4
	VMOVAPD Y0, Y5
	VMOVAPD Y0, Y6
	VMOVAPD Y0, Y7
	SHRQ $4, CX
loop64:
	VMOVUPD (SI), Y8
	VMOVUPD 32(SI), Y9
	VMOVUPD 64(SI), Y10
	VMOVUPD 96(SI), Y11
	VMINPD Y0, Y8, Y0
	VMAXPD Y4, Y8, Y4
	VMINPD Y1, Y9, Y1
	VMAXPD Y5, Y9, Y5
	VMINPD Y2, Y10, Y2
	VMAXPD Y6, Y10, Y6
	VMINPD Y3, Y11, Y3
	VMAXPD Y7, Y11, Y7
	ADDQ $128, SI
	DECQ CX
	JNZ loop64
	VMINPD Y0, Y1, Y0
	VMINPD Y2, Y3, Y2
	VMINPD Y0, Y2, Y0
	VMAXPD Y4, Y5, Y4
	VMAXPD Y6, Y7, Y6
	VMAXPD Y4, Y6, Y4
	VEXTRACTF128 $1, Y0, X1
	VEXTRACTF128 $1, Y4, X5
	VMINPD X0, X1, X0
	VMAXPD X4, X5, X4
	VPSHUFD $0x4E, X0, X1
	VPSHUFD $0x4E, X4, X5
	VMINPD X0, X1, X0
	VMAXPD X4, X5, X4
	VMOVSD X0, mn+24(FP)
	VMOVSD X4, mx+32(FP)
	VZEROUPPER
	RET
