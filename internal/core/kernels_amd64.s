//go:build amd64 && !purego

#include "textflag.h"

// AVX2 run kernels of the host codec: each call works through a run of
// consecutive blocks and comes back to Go only for a block Go must handle.
// Per block they mirror, operation for operation, the Go loop they replace
// (fusedForward, allWithin, the fused loop of decodeRunGo) so that every
// stream byte and every decoded bit is the same; DESIGN.md §5b3 gives the
// argument. The arithmetic is the Go kernels' own: separate multiply and
// add (never FMA), floor by VROUNDPD, conversions under the default
// round-to-nearest MXCSR.

DATA half<>+0(SB)/8, $0x3FE0000000000000 // 0.5
GLOBL half<>(SB), RODATA|NOPTR, $8
DATA minI32<>+0(SB)/8, $0xC1E0000000000000 // -2147483648.0
GLOBL minI32<>(SB), RODATA|NOPTR, $8
DATA maxI32<>+0(SB)/8, $0x41DFFFFFFFC00000 // 2147483647.0
GLOBL maxI32<>(SB), RODATA|NOPTR, $8
DATA absMask64<>+0(SB)/8, $0x7FFFFFFFFFFFFFFF
GLOBL absMask64<>(SB), RODATA|NOPTR, $8
DATA absMask32<>+0(SB)/4, $0x7FFFFFFF
GLOBL absMask32<>(SB), RODATA|NOPTR, $4

// laneBit holds 1<<i in dword lane i: bit i of a packed sign or plane byte
// belongs to lane i.
DATA laneBit<>+0(SB)/4, $1
DATA laneBit<>+4(SB)/4, $2
DATA laneBit<>+8(SB)/4, $4
DATA laneBit<>+12(SB)/4, $8
DATA laneBit<>+16(SB)/4, $16
DATA laneBit<>+20(SB)/4, $32
DATA laneBit<>+24(SB)/4, $64
DATA laneBit<>+28(SB)/4, $128
GLOBL laneBit<>(SB), RODATA|NOPTR, $32

DATA seven<>+0(SB)/4, $7
GLOBL seven<>(SB), RODATA|NOPTR, $4

DATA lowByte<>+0(SB)/4, $0xFF
GLOBL lowByte<>(SB), RODATA|NOPTR, $4

// eight advances a shift count held in the low dword of an X register.
DATA eight<>+0(SB)/8, $8
DATA eight<>+8(SB)/8, $0
GLOBL eight<>(SB), RODATA|NOPTR, $16

// spread is the VPSHUFB control that copies byte j of a broadcast dword
// into the eight bytes 8j..8j+7 (j = 0, 1 in the low lane, 2, 3 in the
// high); byteBit holds 1<<(i%8) in byte i.
DATA spread<>+0(SB)/8, $0x0000000000000000
DATA spread<>+8(SB)/8, $0x0101010101010101
DATA spread<>+16(SB)/8, $0x0202020202020202
DATA spread<>+24(SB)/8, $0x0303030303030303
GLOBL spread<>(SB), RODATA|NOPTR, $32
DATA byteBit<>+0(SB)/8, $0x8040201008040201
DATA byteBit<>+8(SB)/8, $0x8040201008040201
DATA byteBit<>+16(SB)/8, $0x8040201008040201
DATA byteBit<>+24(SB)/8, $0x8040201008040201
GLOBL byteBit<>(SB), RODATA|NOPTR, $32

// unpack undoes the lane interleave of VPACKUSDW/VPACKUSWB: packing groups
// A, B, C, D leaves the dwords (four elements each) in the order A0 B0 C0
// D0 A1 B1 C1 D1; element order is A0 A1 B0 B1 C0 C1 D0 D1.
DATA unpack<>+0(SB)/4, $0
DATA unpack<>+4(SB)/4, $4
DATA unpack<>+8(SB)/4, $1
DATA unpack<>+12(SB)/4, $5
DATA unpack<>+16(SB)/4, $2
DATA unpack<>+20(SB)/4, $6
DATA unpack<>+24(SB)/4, $3
DATA unpack<>+28(SB)/4, $7
GLOBL unpack<>(SB), RODATA|NOPTR, $32

// Constant registers of the forward kernels.
#define RECIP Y15
#define HALF  Y14
#define MINI  Y13
#define MAXI  Y12
#define TWOE  Y11
#define EPS   Y10
#define ABSM  Y9
#define PREV  Y8
#define ACC   Y7

// FWD_CONSTANTS sets, once per run, the registers above that hold the same
// value for every block and do not come from arguments.
#define FWD_CONSTANTS \
	VBROADCASTSD half<>(SB), HALF; \
	VBROADCASTSD minI32<>(SB), MINI; \
	VBROADCASTSD maxI32<>(SB), MAXI; \
	VBROADCASTSD absMask64<>(SB), ABSM

// QUANT quantizes the four doubles in YX: f = floor(x·recip + 0.5), the
// int32 range mask (false for NaN and ±Inf), the code p = int32(f) in XP.
// YF is left holding f·2ε, YOK the range mask. YP aliases XP. Wherever the
// range mask holds, f is an integer that int32 represents, so float64(p)
// is f and f·2ε is the Go kernel's float64(p)·2ε; elsewhere the block goes
// verbatim whatever the lane computes.
#define QUANT(YX, YF, XP, YP, YOK) \
	VMULPD RECIP, YX, YF; \
	VADDPD HALF, YF, YF; \
	VROUNDPD $9, YF, YF; \
	VCMPPD $2, YF, MINI, YOK; \
	VCMPPD $2, MAXI, YF, YP; \
	VANDPD YP, YOK, YOK; \
	VCVTTPD2DQY YF, XP; \
	VMULPD TWOE, YF, YF

// STRICT ANDs into YOK the strictness mask |rec − x| ≤ ε, rec in YF.
#define STRICT(YX, YF, YOK) \
	VSUBPD YX, YF, YF; \
	VANDPD ABSM, YF, YF; \
	VCMPPD $2, EPS, YF, YF; \
	VANDPD YF, YOK, YOK

// HALF32 runs four float32 at off(R12) through QUANT and STRICT, the
// reconstruction rounded to float32 as the decoder will round it.
#define HALF32(off, YX, YF, XF, XP, YP, YOK) \
	VCVTPS2PD off(R12), YX; \
	QUANT(YX, YF, XP, YP, YOK); \
	VCVTPD2PSY YF, XF; \
	VCVTPS2PD XF, YF; \
	STRICT(YX, YF, YOK)

// HALF64 is HALF32 for four float64 at off(R12).
#define HALF64(off, YX, YF, XP, YP, YOK) \
	VMOVUPD off(R12), YX; \
	QUANT(YX, YF, XP, YP, YOK); \
	STRICT(YX, YF, YOK)

// DELTA takes the eight codes p0..p7 (low four in Y3, high four in X5) and
// the previous group's codes in PREV: Lorenzo delta against the lane-rotated
// codes [prev7, p0..p6], sign byte to (R8), magnitudes to (R13) and into
// ACC. VPABSD maps MinInt32 to 2³¹ as the Go kernel's branch-free |d| does.
#define DELTA \
	VINSERTI128 $1, X5, Y3, Y3; \
	VPERM2I128 $0x21, Y3, PREV, Y4; \
	VPALIGNR $12, Y4, Y3, Y4; \
	VMOVDQA Y3, PREV; \
	VPSUBD Y4, Y3, Y3; \
	VMOVMSKPS Y3, AX; \
	MOVB AX, (R8); \
	VPABSD Y3, Y3; \
	VPOR Y3, ACC, ACC; \
	VMOVDQU Y3, (R13)

// EMIT finishes a block after the forward loop: width from ACC into R11,
// header at (DI), then the planes; it falls through with the block written.
// The loop left R8 just past the sign bytes, where plane 0 begins.
// CX = groups = bytes per plane, R9 = hdr, DX = magnitudes. DI and SI are
// free once the header is written.
//
// Plane k, byte j is bit k of the eight magnitudes of group j, lane i at
// bit i. Four groups at a time (a quad, 32 magnitudes) go through the byte
// domain: byte b of every magnitude is packed into one register in element
// order, and VPMOVMSKB of that register is four consecutive bytes of plane
// 8b+7; doubling the bytes brings plane 8b+6 to the top, and so on down.
// All eight planes of a layer are always written. Those at or above w hold
// zeros and land past the block's last byte, inside the room for a width-32
// block the caller reserved, where the next block overwrites them; writing
// them costs less than the mispredicted exit of a loop that runs w times.
// Groups left over when groups is not a multiple of four take the dword
// route: shift so that plane w−1 is every lane's top bit, VMOVMSKPS, double.
#define EMIT \
	VEXTRACTI128 $1, ACC, X0; \
	VPOR X0, X7, X0; \
	VPSHUFD $0x4E, X0, X1; \
	VPOR X1, X0, X0; \
	VPSHUFD $0xB1, X0, X1; \
	VPOR X1, X0, X0; \
	VMOVD X0, AX; \
	XORQ R11, R11; \
	TESTL AX, AX; \
	JZ header; \
	BSRL AX, R11; \
	INCQ R11; \
header: \
	CMPQ R9, $4; \
	JNE header8; \
	MOVL R11, (DI); \
	JMP planes; \
header8: \
	MOVB R11, (DI); \
planes: \
	TESTQ R11, R11; \
	JZ done; \
	MOVQ CX, R10; \
	SHRQ $2, R10; \
	JZ leftover; \
	LEAQ 7(R11), R14; \
	SHRQ $3, R14; \
	VPBROADCASTD lowByte<>(SB), Y1; \
	VMOVDQU unpack<>(SB), Y2; \
	VPXOR X6, X6, X6; \
	MOVQ R8, SI; \
layer: \
	MOVQ DX, R12; \
	LEAQ (CX)(CX*2), R13; \
	LEAQ (R13)(CX*4), R13; \
	ADDQ SI, R13; \
	MOVQ R10, BX; \
quad: \
	VMOVDQU (R12), Y0; \
	VMOVDQU 32(R12), Y3; \
	VMOVDQU 64(R12), Y4; \
	VMOVDQU 96(R12), Y5; \
	VPSRLD X6, Y0, Y0; \
	VPSRLD X6, Y3, Y3; \
	VPSRLD X6, Y4, Y4; \
	VPSRLD X6, Y5, Y5; \
	VPAND Y1, Y0, Y0; \
	VPAND Y1, Y3, Y3; \
	VPAND Y1, Y4, Y4; \
	VPAND Y1, Y5, Y5; \
	VPACKUSDW Y3, Y0, Y0; \
	VPACKUSDW Y5, Y4, Y4; \
	VPACKUSWB Y4, Y0, Y0; \
	VPERMD Y0, Y2, Y0; \
	MOVQ R13, DI; \
	PLANE8; PLANE8; PLANE8; PLANE8; PLANE8; PLANE8; PLANE8; \
	VPMOVMSKB Y0, AX; \
	MOVL AX, (DI); \
	ADDQ $128, R12; \
	ADDQ $4, R13; \
	DECQ BX; \
	JNZ quad; \
	LEAQ (SI)(CX*8), SI; \
	VPADDD eight<>(SB), X6, X6; \
	DECQ R14; \
	JNZ layer; \
leftover: \
	MOVQ CX, BX; \
	ANDQ $-4, BX; \
	CMPQ BX, CX; \
	JGE done; \
	MOVQ BX, AX; \
	SHLQ $5, AX; \
	ADDQ AX, DX; \
	MOVQ $32, AX; \
	SUBQ R11, AX; \
	VMOVQ AX, X6; \
	MOVQ R11, R10; \
	DECQ R10; \
	IMULQ CX, R10; \
	ADDQ R8, R10; \
leftgroup: \
	VMOVDQU (DX), Y0; \
	VPSLLD X6, Y0, Y0; \
	LEAQ (R10)(BX*1), R12; \
	MOVQ R11, R13; \
leftplane: \
	VMOVMSKPS Y0, AX; \
	MOVB AX, (R12); \
	VPADDD Y0, Y0, Y0; \
	SUBQ CX, R12; \
	DECQ R13; \
	JNZ leftplane; \
	ADDQ $32, DX; \
	INCQ BX; \
	CMPQ BX, CX; \
	JLT leftgroup; \
done:

// PLANE8 stores the quad's four bytes of the plane now in the top bit of
// every byte of Y0 and moves on to the plane below.
#define PLANE8 \
	VPMOVMSKB Y0, AX; \
	MOVL AX, (DI); \
	VPADDB Y0, Y0, Y0; \
	SUBQ CX, DI

// The forward run kernels keep what must survive a block in the frame,
// because EMIT needs every general register: dcur and scur are where the
// next block is written and read, wcur its entry in the width table, wend
// the table's end.

// FWD_ENTER starts a run: the cursors go into the frame and the constants
// into their registers. On entry DI = dst, SI = src, AX = widths, BX = n;
// the function bodies load them, because vet reads an argument name inside
// a macro as the previous function's.
#define FWD_ENTER \
	MOVQ DI, dcur-8(SP); \
	MOVQ SI, scur-16(SP); \
	MOVQ AX, wcur-24(SP); \
	ADDQ BX, AX; \
	MOVQ AX, wend-32(SP); \
	FWD_CONSTANTS

// FWD_NEXT follows EMIT: the width in R11 goes into the table and the
// cursors move on, dcur by hdr bytes for a zero block and by
// hdr + (w+1)·groups otherwise, scur by 8·groups elements of size bytes
// (shift = log2(8·size)).
#define FWD_NEXT(shift) \
	MOVQ wcur-24(SP), AX; \
	MOVB R11, (AX); \
	INCQ AX; \
	MOVQ AX, wcur-24(SP); \
	LEAQ 1(R11), AX; \
	IMULQ CX, AX; \
	XORQ BX, BX; \
	TESTQ R11, R11; \
	CMOVQEQ BX, AX; \
	ADDQ R9, AX; \
	ADDQ AX, dcur-8(SP); \
	MOVQ CX, AX; \
	SHLQ $shift, AX; \
	ADDQ AX, scur-16(SP)

// func encodeRunF32AVX2(dst *byte, src *float32, abs *uint32, widths *byte, n, groups, hdr, limit int, recip, twoE, eps float64, zeroT float32) (done, used int)
//
// Encodes up to n consecutive blocks of 8·groups float32 from src, one
// after another into dst, using abs (8·groups uint32) as scratch, and
// records each block's width in widths (0: a bare zero header was written).
// It stops before a block that must be stored verbatim, and before any
// block that would start more than limit bytes into dst: the caller sets
// limit so that hdr + 33·groups bytes, which a block may scribble over
// whatever its width, remain past it. done is the number of blocks encoded,
// used the bytes they take; dst past used is undefined.
TEXT ·encodeRunF32AVX2(SB), NOSPLIT, $32-112
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ widths+24(FP), AX
	MOVQ n+32(FP), BX
	MOVQ groups+40(FP), CX
	MOVQ hdr+48(FP), R9
	VBROADCASTSD recip+64(FP), RECIP
	VBROADCASTSD twoE+72(FP), TWOE
	VBROADCASTSD eps+80(FP), EPS
	FWD_ENTER
block:
	MOVQ wcur-24(SP), AX
	CMPQ AX, wend-32(SP)
	JAE stop
	MOVQ dcur-8(SP), DI
	MOVQ DI, AX
	SUBQ dst+0(FP), AX
	CMPQ AX, limit+56(FP)
	JGT stop
	MOVQ scur-16(SP), SI
	MOVQ abs+16(FP), DX

	// Zero-block prescan: |x| ≤ zeroT in every lane. NaN compares false;
	// zeroT = −1 (prescan off) fails every lane.
	VBROADCASTSS zeroT+88(FP), Y1
	VPBROADCASTD absMask32<>(SB), Y2
	MOVQ SI, R12
	MOVQ CX, R14
	VPXOR ACC, ACC, ACC
prescan:
	VANDPS (R12), Y2, Y0
	VCMPPS $2, Y1, Y0, Y0
	VMOVMSKPS Y0, AX
	CMPL AX, $0xFF
	JNE forward
	ADDQ $32, R12
	DECQ R14
	JNZ prescan
	JMP finish

forward:
	VPXOR PREV, PREV, PREV
	MOVQ SI, R12
	MOVQ DX, R13
	MOVQ CX, R14
	LEAQ (DI)(R9*1), R8
group:
	HALF32(0, Y0, Y1, X1, X3, Y3, Y2)
	HALF32(16, Y0, Y1, X1, X5, Y5, Y6)
	VANDPD Y6, Y2, Y2
	VMOVMSKPD Y2, AX
	CMPL AX, $0xF
	JNE stop // verbatim: the block is Go's
	DELTA
	ADDQ $32, R12
	ADDQ $32, R13
	INCQ R8
	DECQ R14
	JNZ group
finish:
	EMIT
	FWD_NEXT(5)
	JMP block
stop:
	VZEROUPPER
	MOVQ wcur-24(SP), AX
	SUBQ widths+24(FP), AX
	MOVQ AX, done+96(FP)
	MOVQ dcur-8(SP), AX
	SUBQ dst+0(FP), AX
	MOVQ AX, used+104(FP)
	RET

// func encodeRunF64AVX2(dst *byte, src *float64, abs *uint32, widths *byte, n, groups, hdr, limit int, recip, twoE, eps, zeroT float64) (done, used int)
//
// encodeRunF32AVX2 for float64 elements.
TEXT ·encodeRunF64AVX2(SB), NOSPLIT, $32-112
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ widths+24(FP), AX
	MOVQ n+32(FP), BX
	MOVQ groups+40(FP), CX
	MOVQ hdr+48(FP), R9
	VBROADCASTSD recip+64(FP), RECIP
	VBROADCASTSD twoE+72(FP), TWOE
	VBROADCASTSD eps+80(FP), EPS
	FWD_ENTER
block:
	MOVQ wcur-24(SP), AX
	CMPQ AX, wend-32(SP)
	JAE stop
	MOVQ dcur-8(SP), DI
	MOVQ DI, AX
	SUBQ dst+0(FP), AX
	CMPQ AX, limit+56(FP)
	JGT stop
	MOVQ scur-16(SP), SI
	MOVQ abs+16(FP), DX

	VBROADCASTSD zeroT+88(FP), Y1
	MOVQ SI, R12
	MOVQ CX, R14
	VPXOR ACC, ACC, ACC
prescan:
	VANDPD (R12), ABSM, Y0
	VANDPD 32(R12), ABSM, Y3
	VCMPPD $2, Y1, Y0, Y0
	VCMPPD $2, Y1, Y3, Y3
	VANDPD Y3, Y0, Y0
	VMOVMSKPD Y0, AX
	CMPL AX, $0xF
	JNE forward
	ADDQ $64, R12
	DECQ R14
	JNZ prescan
	JMP finish

forward:
	VPXOR PREV, PREV, PREV
	MOVQ SI, R12
	MOVQ DX, R13
	MOVQ CX, R14
	LEAQ (DI)(R9*1), R8
group:
	HALF64(0, Y0, Y1, X3, Y3, Y2)
	HALF64(32, Y0, Y1, X5, Y5, Y6)
	VANDPD Y6, Y2, Y2
	VMOVMSKPD Y2, AX
	CMPL AX, $0xF
	JNE stop // verbatim: the block is Go's
	DELTA
	ADDQ $64, R12
	ADDQ $32, R13
	INCQ R8
	DECQ R14
	JNZ group
finish:
	EMIT
	FWD_NEXT(6)
	JMP block
stop:
	VZEROUPPER
	MOVQ wcur-24(SP), AX
	SUBQ widths+24(FP), AX
	MOVQ AX, done+96(FP)
	MOVQ dcur-8(SP), AX
	SUBQ dst+0(FP), AX
	MOVQ AX, used+104(FP)
	RET

// The inverse kernels. Register plan, across the run: DI = where the next
// group is written, AX = where the next block starts in the body, CX =
// groups = bytes per plane, DX = groups rounded down to whole quads;
// Y15 = 2ε, Y14 = laneBit, Y13 = seven, Y11 = spread, Y10 = byteBit, Y8 = 0;
// in the frame, wcur and wend are the width table's cursor and end, hdrb the
// header size. Within a block: SI = signs, R10 = plane 0, R11 = w, BX =
// index of the group (or of a quad's first group) being decoded, Y12 = the
// running code, the previous group's lane 7 in every lane.

// QUADPLANES rebuilds the magnitudes of the four groups BX..BX+3 in Y4..Y7,
// the reverse of EMIT's byte route. Layer by layer (eight planes, one byte
// of every magnitude), from the layer's top plane down: the quad's four
// bytes of a plane are broadcast, VPSHUFB spreads byte j over the eight
// byte lanes of group j, the bit mask and compare turn lane i's bit into 0
// or −1, and u = 2u − mask shifts it in. The finished bytes are widened to
// dwords and ORed in at the layer's shift. Only planes below w are read.
#define QUADPLANES \
	VPXOR Y4, Y4, Y4; \
	VPXOR Y5, Y5, Y5; \
	VPXOR Y6, Y6, Y6; \
	VPXOR Y7, Y7, Y7; \
	VPXOR X9, X9, X9; \
	LEAQ (R10)(BX*1), R8; \
	MOVQ R11, R14; \
qlayer: \
	MOVQ R14, R9; \
	CMPQ R9, $8; \
	JLE qshort; \
	MOVQ $8, R9; \
qshort: \
	SUBQ R9, R14; \
	LEAQ -1(R9), R12; \
	IMULQ CX, R12; \
	ADDQ R8, R12; \
	VPXOR Y0, Y0, Y0; \
qplane: \
	VPBROADCASTD (R12), Y1; \
	VPSHUFB Y11, Y1, Y1; \
	VPAND Y10, Y1, Y1; \
	VPCMPEQB Y10, Y1, Y1; \
	VPADDB Y0, Y0, Y0; \
	VPSUBB Y1, Y0, Y0; \
	SUBQ CX, R12; \
	DECQ R9; \
	JNZ qplane; \
	VEXTRACTI128 $1, Y0, X1; \
	VPSRLDQ $8, X0, X2; \
	VPSRLDQ $8, X1, X3; \
	VPMOVZXBD X0, Y0; \
	VPMOVZXBD X2, Y2; \
	VPMOVZXBD X1, Y1; \
	VPMOVZXBD X3, Y3; \
	VPSLLD X9, Y0, Y0; \
	VPSLLD X9, Y2, Y2; \
	VPSLLD X9, Y1, Y1; \
	VPSLLD X9, Y3, Y3; \
	VPOR Y0, Y4, Y4; \
	VPOR Y2, Y5, Y5; \
	VPOR Y1, Y6, Y6; \
	VPOR Y3, Y7, Y7; \
	LEAQ (R8)(CX*8), R8; \
	VPADDD eight<>(SB), X9, X9; \
	TESTQ R14, R14; \
	JNZ qlayer

// GROUPPLANES rebuilds the magnitudes of group BX alone in Y0, for the
// groups a quad does not cover: each plane byte is broadcast to every dword
// lane and lane i keeps bit i, from plane w−1 down.
#define GROUPPLANES \
	VPXOR Y0, Y0, Y0; \
	LEAQ -1(R11), R12; \
	IMULQ CX, R12; \
	ADDQ R10, R12; \
	ADDQ BX, R12; \
	MOVQ R11, R13; \
gplane: \
	VPBROADCASTB (R12), Y1; \
	VPAND Y14, Y1, Y1; \
	VPCMPEQD Y14, Y1, Y1; \
	VPADDD Y0, Y0, Y0; \
	VPSUBD Y1, Y0, Y0; \
	SUBQ CX, R12; \
	DECQ R13; \
	JNZ gplane

// CODES turns the magnitudes in YU and the sign byte at off(SI)(BX) into
// values: the sign byte becomes a 0/−1 mask m per lane and (u ^ m) − m is
// mergeSign; an in-register prefix sum plus the running code undoes the
// Lorenzo delta with int32 wraparound; the codes, as float64, times 2ε are
// left in Y2 (lanes 0–3) and Y3 (lanes 4–7).
#define CODES(YU, off) \
	VPBROADCASTB off(SI)(BX*1), Y1; \
	VPAND Y14, Y1, Y1; \
	VPCMPEQD Y14, Y1, Y1; \
	VPXOR Y1, YU, Y0; \
	VPSUBD Y1, Y0, Y0; \
	VPSLLDQ $4, Y0, Y1; \
	VPADDD Y1, Y0, Y0; \
	VPSLLDQ $8, Y0, Y1; \
	VPADDD Y1, Y0, Y0; \
	VPERM2I128 $0x08, Y0, Y0, Y1; \
	VPSHUFD $0xFF, Y1, Y1; \
	VPADDD Y1, Y0, Y0; \
	VPADDD Y12, Y0, Y0; \
	VPERMD Y0, Y13, Y12; \
	VEXTRACTI128 $1, Y0, X3; \
	VCVTDQ2PD X0, Y2; \
	VCVTDQ2PD X3, Y3; \
	VMULPD Y15, Y2, Y2; \
	VMULPD Y15, Y3, Y3

// PUT32 and PUT64 round Y2, Y3 to the element type and store the group.
#define PUT32(off) \
	VCVTPD2PSY Y2, X2; \
	VCVTPD2PSY Y3, X3; \
	VMOVUPS X2, off(DI); \
	VMOVUPS X3, off+16(DI)

#define PUT64(off) \
	VMOVUPD Y2, off(DI); \
	VMOVUPD Y3, off+32(DI)

// ZERO32 and ZERO64 store one group of zeros.
#define ZERO32 \
	VMOVUPS Y8, (DI)

#define ZERO64 \
	VMOVUPD Y8, (DI); \
	VMOVUPD Y8, 32(DI)

// INVERSE_RUN is either decoder but for the element type: PUT stores one
// group, ZERO one group of zeros, size is a group's bytes. Block by block
// down the width table: a zero block is filled with vector stores, a coded
// one decoded quads first, then the groups left over, and the first entry
// above 32 (a verbatim block, which is Go's) ends the run. The table is the
// Go scan's, which has checked that every block it sizes lies inside the
// body; no header byte is read here.
#define INVERSE_RUN(PUT, ZERO, size) \
	VMOVDQU laneBit<>(SB), Y14; \
	VPBROADCASTD seven<>(SB), Y13; \
	VMOVDQU spread<>(SB), Y11; \
	VMOVDQU byteBit<>(SB), Y10; \
	VPXOR Y8, Y8, Y8; \
	MOVQ CX, DX; \
	ANDQ $-4, DX; \
block: \
	MOVQ wcur-8(SP), R8; \
	CMPQ R8, wend-16(SP); \
	JAE stop; \
	MOVBLZX (R8), R11; \
	CMPQ R11, $32; \
	JHI stop; \
	INCQ R8; \
	MOVQ R8, wcur-8(SP); \
	MOVQ hdrb-24(SP), SI; \
	ADDQ AX, SI; \
	TESTQ R11, R11; \
	JZ zero; \
	LEAQ (SI)(CX*1), R10; \
	MOVQ R11, AX; \
	IMULQ CX, AX; \
	ADDQ R10, AX; \
	VPXOR Y12, Y12, Y12; \
	XORQ BX, BX; \
	TESTQ DX, DX; \
	JZ leftover; \
quad: \
	QUADPLANES; \
	CODES(Y4, 0); \
	PUT(0); \
	CODES(Y5, 1); \
	PUT(size); \
	CODES(Y6, 2); \
	PUT(2*size); \
	CODES(Y7, 3); \
	PUT(3*size); \
	ADDQ $(4*size), DI; \
	ADDQ $4, BX; \
	CMPQ BX, DX; \
	JLT quad; \
leftover: \
	CMPQ BX, CX; \
	JGE block; \
group: \
	GROUPPLANES; \
	CODES(Y0, 0); \
	PUT(0); \
	ADDQ $size, DI; \
	INCQ BX; \
	CMPQ BX, CX; \
	JLT group; \
	JMP block; \
zero: \
	MOVQ SI, AX; \
	MOVQ CX, BX; \
zfill: \
	ZERO; \
	ADDQ $size, DI; \
	DECQ BX; \
	JNZ zfill; \
	JMP block; \
stop: \
	VZEROUPPER

// func decodeRunF32AVX2(out *float32, body, widths *byte, n, groups, hdr int, twoE float64) (done, used int)
//
// Decodes up to n consecutive blocks of 8·groups float32 into out, the
// first of them starting at body, block b's width (0 for a zero block)
// taken from widths[b]. It stops before a block whose entry is above 32.
// done is the number of blocks decoded, used the body bytes they took.
TEXT ·decodeRunF32AVX2(SB), NOSPLIT, $24-72
	MOVQ out+0(FP), DI
	MOVQ body+8(FP), AX
	MOVQ widths+16(FP), BX
	MOVQ BX, wcur-8(SP)
	ADDQ n+24(FP), BX
	MOVQ BX, wend-16(SP)
	MOVQ groups+32(FP), CX
	MOVQ hdr+40(FP), BX
	MOVQ BX, hdrb-24(SP)
	VBROADCASTSD twoE+48(FP), Y15
	INVERSE_RUN(PUT32, ZERO32, 32)
	MOVQ wcur-8(SP), BX
	SUBQ widths+16(FP), BX
	MOVQ BX, done+56(FP)
	SUBQ body+8(FP), AX
	MOVQ AX, used+64(FP)
	RET

// func decodeRunF64AVX2(out *float64, body, widths *byte, n, groups, hdr int, twoE float64) (done, used int)
//
// decodeRunF32AVX2 for float64 elements.
TEXT ·decodeRunF64AVX2(SB), NOSPLIT, $24-72
	MOVQ out+0(FP), DI
	MOVQ body+8(FP), AX
	MOVQ widths+16(FP), BX
	MOVQ BX, wcur-8(SP)
	ADDQ n+24(FP), BX
	MOVQ BX, wend-16(SP)
	MOVQ groups+32(FP), CX
	MOVQ hdr+40(FP), BX
	MOVQ BX, hdrb-24(SP)
	VBROADCASTSD twoE+48(FP), Y15
	INVERSE_RUN(PUT64, ZERO64, 64)
	MOVQ wcur-8(SP), BX
	SUBQ widths+16(FP), BX
	MOVQ BX, done+56(FP)
	SUBQ body+8(FP), AX
	MOVQ AX, used+64(FP)
	RET

// The AVX-512 inverse kernels: the same reverse pass at sixteen dword lanes,
// two groups to a ZMM register, using AVX512F and AVX512BW at 512 bits only.
// Register plan, across the run: DI = where the next group is written, AX
// = where the next block starts in the body, CX = groups = bytes per
// plane, R8 = the width table's cursor, R14 = the clamp table in the
// frame; Z15 = 2ε, Z16..Z23 = 1<<k in every byte for k = 0..7, Z14 = 1 and
// Z13 = 15 and Z24 = 7 in every dword, Z8 = 0, K5 = dwords 8..15; in the
// frame, wend is the width table's end and hdrb the header size. Within a
// block: SI = signs, R10 = plane 0, R11 = w, BX = index of the group (or
// of a quad's first group) being decoded, Z12 = the running code, the last
// decoded lane in every lane. Z0..Z15 hold what VEX stores name through
// their low halves.

DATA one<>+0(SB)/4, $1
GLOBL one<>(SB), RODATA|NOPTR, $4
DATA fifteen<>+0(SB)/4, $15
GLOBL fifteen<>(SB), RODATA|NOPTR, $4
DATA lowBits<>+0(SB)/4, $0x01010101
GLOBL lowBits<>(SB), RODATA|NOPTR, $4

// clamp is the clamp table before the prologue widens and scales it, 16
// bytes a row: row r, for a layer whose planes 0..r exist, holds min(k, r)
// in byte k, which times groups is the body offset of plane k (plane r
// standing in for those above it), and in byte 8 the mask of bits 0..r.
DATA clamp<>+0(SB)/8, $0x0000000000000000
DATA clamp<>+8(SB)/1, $0x01
DATA clamp<>+16(SB)/8, $0x0101010101010100
DATA clamp<>+24(SB)/1, $0x03
DATA clamp<>+32(SB)/8, $0x0202020202020100
DATA clamp<>+40(SB)/1, $0x07
DATA clamp<>+48(SB)/8, $0x0303030303020100
DATA clamp<>+56(SB)/1, $0x0f
DATA clamp<>+64(SB)/8, $0x0404040403020100
DATA clamp<>+72(SB)/1, $0x1f
DATA clamp<>+80(SB)/8, $0x0505050403020100
DATA clamp<>+88(SB)/1, $0x3f
DATA clamp<>+96(SB)/8, $0x0606050403020100
DATA clamp<>+104(SB)/1, $0x7f
DATA clamp<>+112(SB)/8, $0x0706050403020100
DATA clamp<>+120(SB)/1, $0xff
GLOBL clamp<>(SB), RODATA|NOPTR, $128

// CLAMPROW writes one row of the clamp table to the frame as dwords, 64
// bytes a row: Z9 holds groups in dwords 0..7, which scales the offsets,
// and 0x01010101 in the rest, which copies the mask to every byte.
#define CLAMPROW(src, dst) \
	VPMOVZXBD clamp<>+src(SB), Z10; \
	VPMULLD Z9, Z10, Z10; \
	VMOVDQU32 Z10, dst(R14)

// PLANE512 adds plane k of a layer into the layer's byte of the 32
// magnitudes of a quad, in bytes 0..31 of Z6: R12 is the layer's plane 0
// at the quad's first group, R13 the clamp row. The plane's four bytes are
// an opmask, bit i for magnitude i, and the bytes it selects take bit k,
// Wk.
#define PLANE512(k, Wk) \
	MOVL (4*k)(R13), R9; \
	KMOVD (R12)(R9*1), K1; \
	VPADDB Wk, Z6, K1, Z6

// LAYER512 builds a layer — eight planes, one byte of every magnitude —
// without a branch, which is what a width that changes from block to
// block costs least as. In a block's top layer, whose planes at and above
// w do not exist, the clamp row re-reads plane w−1 in their place; the
// caller masks off the bits they set. No byte outside the block is read.
#define LAYER512 \
	VPXORD Z6, Z6, Z6; \
	PLANE512(0, Z16); \
	PLANE512(1, Z17); \
	PLANE512(2, Z18); \
	PLANE512(3, Z19); \
	PLANE512(4, Z20); \
	PLANE512(5, Z21); \
	PLANE512(6, Z22); \
	PLANE512(7, Z23)

// NARROWQUAD512 decodes the four groups BX..BX+3 of a block of width 8 or
// less into codes relative to the block's running code, in Z0 (groups BX,
// BX+1) and Z1 (BX+2, BX+3). A magnitude is one byte, and a group's
// deltas sum to at most 8·255 in size, so the sign merge (VPSUBW from zero
// under the sign bits) and the prefix sum within each group (three in-lane
// steps of VPSLLDQ and an add, a group to each 128-bit lane) are exact in
// int16 words. Widened to dwords, the second group of each register adds
// the first's last sum, lane 7, broadcast into lanes 8..15.
#define NARROWQUAD512 \
	LEAQ -1(R11), R9; \
	SHLQ $6, R9; \
	LEAQ (R14)(R9*1), R13; \
	LEAQ (R10)(BX*1), R12; \
	LAYER512; \
	VPANDD.BCST 32(R13), Z6, Z6; \
	VPMOVZXBW Y6, Z0; \
	KMOVD (SI)(BX*1), K3; \
	VPSUBW Z0, Z8, K3, Z0; \
	VPSLLDQ $2, Z0, Z2; \
	VPADDW Z2, Z0, Z0; \
	VPSLLDQ $4, Z0, Z2; \
	VPADDW Z2, Z0, Z0; \
	VPSLLDQ $8, Z0, Z2; \
	VPADDW Z2, Z0, Z0; \
	VEXTRACTI64X4 $1, Z0, Y1; \
	VPMOVSXWD Y0, Z0; \
	VPMOVSXWD Y1, Z1; \
	VPERMD.Z Z0, Z24, K5, Z2; \
	VPADDD Z2, Z0, Z0; \
	VPERMD.Z Z1, Z24, K5, Z3; \
	VPADDD Z3, Z1, Z1

// QUADPLANES512 rebuilds the magnitudes of the four groups BX..BX+3 of a
// block wider than 8 in Z0 and Z1, a layer at a time from the top layer
// down, shifting what is done up by a byte between layers.
#define QUADPLANES512 \
	LEAQ -1(R11), R9; \
	MOVQ R9, DX; \
	SHRQ $3, DX; \
	ANDQ $7, R9; \
	SHLQ $6, R9; \
	LEAQ (R14)(R9*1), R13; \
	MOVQ DX, R9; \
	IMULQ CX, R9; \
	LEAQ (R10)(R9*8), R12; \
	ADDQ BX, R12; \
	LAYER512; \
	VPANDD.BCST 32(R13), Z6, Z6; \
	VEXTRACTI32X4 $1, Z6, X7; \
	VPMOVZXBD X6, Z0; \
	VPMOVZXBD X7, Z1; \
	LEAQ (7*64)(R14), R13; \
qlayer: \
	MOVQ CX, R9; \
	SHLQ $3, R9; \
	SUBQ R9, R12; \
	LAYER512; \
	VEXTRACTI32X4 $1, Z6, X7; \
	VPSLLD $8, Z0, Z0; \
	VPSLLD $8, Z1, Z1; \
	VPMOVZXBD X6, Z2; \
	VPMOVZXBD X7, Z3; \
	VPORD Z2, Z0, Z0; \
	VPORD Z3, Z1, Z1; \
	DECQ DX; \
	JNZ qlayer

// GROUPPLANES512 rebuilds the magnitudes of group BX alone in lanes 0–7 of
// Z0, for the groups a quad does not cover; lanes 8–15 stay 0. It walks
// the w planes from plane 0 up, the plane's bit doubling in Z11; AX + BX
// is where plane w would begin. A plane's byte goes through a general
// register, because the one-byte opmask load is AVX512DQ.
#define GROUPPLANES512 \
	VPXORD Z0, Z0, Z0; \
	VMOVDQA32 Z14, Z11; \
	LEAQ (R10)(BX*1), R12; \
	LEAQ (AX)(BX*1), R13; \
gplane: \
	MOVBLZX (R12), R9; \
	KMOVW R9, K1; \
	VPORD Z11, Z0, K1, Z0; \
	VPADDD Z11, Z11, Z11; \
	ADDQ CX, R12; \
	CMPQ R12, R13; \
	JB gplane

// SCAN16 merges the signs in opmask KS into the magnitudes in U — a set
// bit negates its lane, which is mergeSign — and turns the deltas into
// their inclusive prefix sum across the sixteen lanes in four steps of
// VALIGND, which shifts lanes up by 1, 2, 4 and 8 with zeros behind, and
// an add. The sums wrap as int32, as the Go loop's do; the caller adds the
// running code. Lanes with a zero magnitude and a clear sign bit add
// nothing, so a lone group in lanes 0–7 leaves its last sum in lane 15 too.
#define SCAN16(U, KS, T) \
	VPSUBD U, Z8, KS, U; \
	VALIGND $15, Z8, U, T; \
	VPADDD T, U, U; \
	VALIGND $14, Z8, U, T; \
	VPADDD T, U, U; \
	VALIGND $12, Z8, U, T; \
	VPADDD T, U, U; \
	VALIGND $8, Z8, U, T; \
	VPADDD T, U, U

// LOW32 and LOW64 dequantize the eight codes in YS — float64(code), then
// times 2ε, as the Go loop does, each a separate rounding — and store them
// at off(DI) as the element type: VCVTPD2PS rounds to float32 under the
// default MXCSR exactly as Go's conversion does.
#define LOW32(YS, off) \
	VCVTDQ2PD YS, Z2; \
	VMULPD Z15, Z2, Z2; \
	VCVTPD2PS Z2, Y2; \
	VMOVUPS Y2, off(DI)

#define LOW64(YS, off) \
	VCVTDQ2PD YS, Z2; \
	VMULPD Z15, Z2, Z2; \
	VMOVUPD Z2, off(DI)

// ZERO2F32 and ZERO2F64 store two groups of zeros; ZERO32 and ZERO64
// store one.
#define ZERO2F32 \
	VMOVUPS Z8, (DI)

#define ZERO2F64 \
	VMOVUPD Z8, (DI); \
	VMOVUPD Z8, 64(DI)

// INVERSE_RUN512 is INVERSE_RUN at sixteen lanes: PUT8 dequantizes and
// stores eight codes, ZERO stores one group of zeros and ZERO2 two, size
// is a group's bytes. The stops and the order of the work are
// INVERSE_RUN's. A quad is two registers whose prefix sums are independent
// until the running code is added: lane 15 of the first, broadcast, is
// what the second adds.
#define INVERSE_RUN512(PUT8, ZERO, ZERO2, size) \
	VPXORD Z8, Z8, Z8; \
	VPBROADCASTD fifteen<>(SB), Z13; \
	VPBROADCASTD seven<>(SB), Z24; \
	VPBROADCASTD one<>(SB), Z14; \
	VPBROADCASTD lowBits<>(SB), Z16; \
	VPADDD Z16, Z16, Z17; \
	VPADDD Z17, Z17, Z18; \
	VPADDD Z18, Z18, Z19; \
	VPADDD Z19, Z19, Z20; \
	VPADDD Z20, Z20, Z21; \
	VPADDD Z21, Z21, Z22; \
	VPADDD Z22, Z22, Z23; \
	MOVL $0xFF00, R9; \
	KMOVW R9, K5; \
	VPBROADCASTD CX, Z9; \
	VMOVDQA32 Z16, K5, Z9; \
	CLAMPROW(0, 0); \
	CLAMPROW(16, 64); \
	CLAMPROW(32, 128); \
	CLAMPROW(48, 192); \
	CLAMPROW(64, 256); \
	CLAMPROW(80, 320); \
	CLAMPROW(96, 384); \
	CLAMPROW(112, 448); \
block: \
	CMPQ R8, wend-8(SP); \
	JAE stop; \
	MOVBLZX (R8), R11; \
	CMPQ R11, $32; \
	JHI stop; \
	INCQ R8; \
	MOVQ hdrb-16(SP), SI; \
	ADDQ AX, SI; \
	TESTQ R11, R11; \
	JZ zero; \
	LEAQ (SI)(CX*1), R10; \
	MOVQ R11, AX; \
	IMULQ CX, AX; \
	ADDQ R10, AX; \
	VPXORD Z12, Z12, Z12; \
	XORQ BX, BX; \
quads: \
	LEAQ 4(BX), R9; \
	CMPQ R9, CX; \
	JGT leftover; \
	CMPQ R11, $8; \
	JA wide; \
	NARROWQUAD512; \
	JMP carry; \
wide: \
	QUADPLANES512; \
	KMOVW (SI)(BX*1), K3; \
	KMOVW 2(SI)(BX*1), K4; \
	SCAN16(Z0, K3, Z4); \
	SCAN16(Z1, K4, Z5); \
carry: \
	VPADDD Z12, Z0, Z0; \
	VPERMD Z0, Z13, Z12; \
	VPADDD Z12, Z1, Z1; \
	VPERMD Z1, Z13, Z12; \
	VEXTRACTI64X4 $1, Z0, Y4; \
	VEXTRACTI64X4 $1, Z1, Y5; \
	PUT8(Y0, 0); \
	PUT8(Y4, size); \
	PUT8(Y1, 2*size); \
	PUT8(Y5, 3*size); \
	ADDQ $(4*size), DI; \
	ADDQ $4, BX; \
	JMP quads; \
leftover: \
	CMPQ BX, CX; \
	JGE block; \
	GROUPPLANES512; \
	MOVBLZX (SI)(BX*1), R9; \
	KMOVW R9, K3; \
	SCAN16(Z0, K3, Z4); \
	VPADDD Z12, Z0, Z0; \
	VPERMD Z0, Z13, Z12; \
	PUT8(Y0, 0); \
	ADDQ $size, DI; \
	INCQ BX; \
	JMP leftover; \
zero: \
	MOVQ SI, AX; \
	MOVQ CX, BX; \
	SUBQ $2, BX; \
	JLT zlast; \
zfill: \
	ZERO2; \
	ADDQ $(2*size), DI; \
	SUBQ $2, BX; \
	JGE zfill; \
zlast: \
	CMPQ BX, $-1; \
	JNE block; \
	ZERO; \
	ADDQ $size, DI; \
	JMP block; \
stop: \
	VZEROUPPER

// func decodeRunF32AVX512(out *float32, body, widths *byte, n, groups, hdr int, twoE float64) (done, used int)
//
// decodeRunF32AVX2 on the AVX-512 kernel: same arguments, same stops, same
// bits.
TEXT ·decodeRunF32AVX512(SB), NOSPLIT, $528-72
	MOVQ out+0(FP), DI
	MOVQ body+8(FP), AX
	MOVQ widths+16(FP), R8
	MOVQ n+24(FP), R9
	ADDQ R8, R9
	MOVQ R9, wend-8(SP)
	MOVQ groups+32(FP), CX
	MOVQ hdr+40(FP), R9
	MOVQ R9, hdrb-16(SP)
	LEAQ tab-528(SP), R14
	VBROADCASTSD twoE+48(FP), Z15
	INVERSE_RUN512(LOW32, ZERO32, ZERO2F32, 32)
	SUBQ widths+16(FP), R8
	MOVQ R8, done+56(FP)
	SUBQ body+8(FP), AX
	MOVQ AX, used+64(FP)
	RET

// func decodeRunF64AVX512(out *float64, body, widths *byte, n, groups, hdr int, twoE float64) (done, used int)
//
// decodeRunF32AVX512 for float64 elements.
TEXT ·decodeRunF64AVX512(SB), NOSPLIT, $528-72
	MOVQ out+0(FP), DI
	MOVQ body+8(FP), AX
	MOVQ widths+16(FP), R8
	MOVQ n+24(FP), R9
	ADDQ R8, R9
	MOVQ R9, wend-8(SP)
	MOVQ groups+32(FP), CX
	MOVQ hdr+40(FP), R9
	MOVQ R9, hdrb-16(SP)
	LEAQ tab-528(SP), R14
	VBROADCASTSD twoE+48(FP), Z15
	INVERSE_RUN512(LOW64, ZERO64, ZERO2F64, 64)
	SUBQ widths+16(FP), R8
	MOVQ R8, done+56(FP)
	SUBQ body+8(FP), AX
	MOVQ AX, used+64(FP)
	RET
