//go:build amd64 && !purego

#include "textflag.h"

// Sixteen SHA-256 compressions side by side: dword lane i of every ZMM
// register belongs to hash lane i, so the round function is the scalar one
// with each 32-bit operation replaced by its 16-wide form (VPRORD for the
// rotations, one VPTERNLOGD each for Ch, Maj and the three-way XORs of the
// sigmas), and the message schedule is computed in the vector domain too.
// The only data movement is on the way in: sixteen 64-byte loads, one per
// lane, byte-swapped and transposed so that register t holds message word
// t of all lanes. Only 512-bit EVEX forms are used (AVX512F + AVX512BW).

DATA k256<>+0(SB)/8, $0x71374491428a2f98
DATA k256<>+8(SB)/8, $0xe9b5dba5b5c0fbcf
DATA k256<>+16(SB)/8, $0x59f111f13956c25b
DATA k256<>+24(SB)/8, $0xab1c5ed5923f82a4
DATA k256<>+32(SB)/8, $0x12835b01d807aa98
DATA k256<>+40(SB)/8, $0x550c7dc3243185be
DATA k256<>+48(SB)/8, $0x80deb1fe72be5d74
DATA k256<>+56(SB)/8, $0xc19bf1749bdc06a7
DATA k256<>+64(SB)/8, $0xefbe4786e49b69c1
DATA k256<>+72(SB)/8, $0x240ca1cc0fc19dc6
DATA k256<>+80(SB)/8, $0x4a7484aa2de92c6f
DATA k256<>+88(SB)/8, $0x76f988da5cb0a9dc
DATA k256<>+96(SB)/8, $0xa831c66d983e5152
DATA k256<>+104(SB)/8, $0xbf597fc7b00327c8
DATA k256<>+112(SB)/8, $0xd5a79147c6e00bf3
DATA k256<>+120(SB)/8, $0x1429296706ca6351
DATA k256<>+128(SB)/8, $0x2e1b213827b70a85
DATA k256<>+136(SB)/8, $0x53380d134d2c6dfc
DATA k256<>+144(SB)/8, $0x766a0abb650a7354
DATA k256<>+152(SB)/8, $0x92722c8581c2c92e
DATA k256<>+160(SB)/8, $0xa81a664ba2bfe8a1
DATA k256<>+168(SB)/8, $0xc76c51a3c24b8b70
DATA k256<>+176(SB)/8, $0xd6990624d192e819
DATA k256<>+184(SB)/8, $0x106aa070f40e3585
DATA k256<>+192(SB)/8, $0x1e376c0819a4c116
DATA k256<>+200(SB)/8, $0x34b0bcb52748774c
DATA k256<>+208(SB)/8, $0x4ed8aa4a391c0cb3
DATA k256<>+216(SB)/8, $0x682e6ff35b9cca4f
DATA k256<>+224(SB)/8, $0x78a5636f748f82ee
DATA k256<>+232(SB)/8, $0x8cc7020884c87814
DATA k256<>+240(SB)/8, $0xa4506ceb90befffa
DATA k256<>+248(SB)/8, $0xc67178f2bef9a3f7
GLOBL k256<>(SB), RODATA|NOPTR, $256

// bswap32 is the VPSHUFB control that reverses the bytes of every dword:
// SHA-256 reads its message as big-endian words.
DATA bswap32<>+0(SB)/8, $0x0405060700010203
DATA bswap32<>+8(SB)/8, $0x0c0d0e0f08090a0b
DATA bswap32<>+16(SB)/8, $0x0405060700010203
DATA bswap32<>+24(SB)/8, $0x0c0d0e0f08090a0b
DATA bswap32<>+32(SB)/8, $0x0405060700010203
DATA bswap32<>+40(SB)/8, $0x0c0d0e0f08090a0b
DATA bswap32<>+48(SB)/8, $0x0405060700010203
DATA bswap32<>+56(SB)/8, $0x0c0d0e0f08090a0b
GLOBL bswap32<>(SB), RODATA|NOPTR, $64

// Working variables a..h.
#define A Z0
#define B Z1
#define C Z2
#define D Z3
#define E Z4
#define F Z5
#define G Z6
#define H Z7

// The sixteen live message words; register Wi holds W[t] for t = i mod 16.
#define W0  Z8
#define W1  Z9
#define W2  Z10
#define W3  Z11
#define W4  Z12
#define W5  Z13
#define W6  Z14
#define W7  Z15
#define W8  Z16
#define W9  Z17
#define W10 Z18
#define W11 Z19
#define W12 Z20
#define W13 Z21
#define W14 Z22
#define W15 Z23

// Temporaries: T0-T3 belong to the round, T4-T6 to the schedule, so the two
// have no false dependency on each other.
#define T0 Z24
#define T1 Z25
#define T2 Z26
#define T3 Z27
#define T4 Z28
#define T5 Z29
#define T6 Z30

// The transpose's second register set: the rows are loaded into W0-W15 and
// ping-pong between that set and this one, four steps, ending in W0-W15.
#define X0  Z0
#define X1  Z1
#define X2  Z2
#define X3  Z3
#define X4  Z4
#define X5  Z5
#define X6  Z6
#define X7  Z7
#define X8  Z24
#define X9  Z25
#define X10 Z26
#define X11 Z27
#define X12 Z28
#define X13 Z29
#define X14 Z30
#define X15 Z31

// LOAD reads one lane's 64-byte block at R8 as big-endian words and steps
// R8 to the next lane.
#define LOAD(w) \
	VMOVDQU32 (R8), w    \
	PREFETCHT0 128(R8)   \
	VPSHUFB   X15, w, w  \
	ADDQ      DX, R8

// Step 1 interleaves the dwords of rows 2i and 2i+1; step 2 the qwords of
// those pairs. After both, 128-bit lane k of register 4g+j holds words
// 4k+j of rows 4g..4g+3.
#define UNPACK_DQ(r0, r1, lo, hi) \
	VPUNPCKLDQ r1, r0, lo \
	VPUNPCKHDQ r1, r0, hi

#define UNPACK_QDQ(lo01, hi01, lo23, hi23, o0, o1, o2, o3) \
	VPUNPCKLQDQ lo23, lo01, o0 \
	VPUNPCKHQDQ lo23, lo01, o1 \
	VPUNPCKLQDQ hi23, hi01, o2 \
	VPUNPCKHQDQ hi23, hi01, o3

// Steps 3 and 4 are a 4x4 transpose of 128-bit lanes: SHUF_LANES takes the
// even lanes of two registers into one output and the odd lanes into
// another.
#define SHUF_LANES(p, q, even, odd) \
	VSHUFI64X2 $0x88, q, p, even \
	VSHUFI64X2 $0xDD, q, p, odd

// ROUND is one SHA-256 round on all lanes; the new a is left in h and the
// new e in d, so the caller rotates the register names instead of moving
// the values. k is the byte offset of K[t] from R9. The VPTERNLOGD truth
// tables: 0x96 is the three-way XOR (Sigma1(e), then Sigma0(a)), 0xCA is
// "first ? second : third" (Ch(e, f, g)) and 0xE8 the majority (Maj(a, b,
// c)). T0 collects h + K[t] + W[t] + Sigma1 + Ch.
#define ROUND(a, b, c, d, e, f, g, h, w, k) \
	VPADDD.BCST k(R9), w, T0         \
	VPADDD      h, T0, T0            \
	VPRORD      $6, e, T1            \
	VPRORD      $11, e, T2           \
	VPRORD      $25, e, T3           \
	VPTERNLOGD  $0x96, T3, T2, T1    \
	VMOVDQA32   e, T2                \
	VPTERNLOGD  $0xCA, g, f, T2      \
	VPADDD      T1, T0, T0           \
	VPADDD      T2, T0, T0           \
	VPADDD      T0, d, d             \
	VPRORD      $2, a, T1            \
	VPRORD      $13, a, T2           \
	VPRORD      $22, a, T3           \
	VPTERNLOGD  $0x96, T3, T2, T1    \
	VMOVDQA32   a, h                 \
	VPTERNLOGD  $0xE8, c, b, h       \
	VPADDD      T1, h, h             \
	VPADDD      T0, h, h

// SCHED replaces W[t] in w0 by W[t+16] = sigma1(W[t+14]) + W[t+9] +
// sigma0(W[t+1]) + W[t]; sigma0 is computed first, then sigma1.
#define SCHED(w0, w1, w9, w14) \
	VPRORD     $7, w1, T4            \
	VPRORD     $18, w1, T5           \
	VPSRLD     $3, w1, T6            \
	VPTERNLOGD $0x96, T6, T5, T4     \
	VPADDD     T4, w0, w0            \
	VPRORD     $17, w14, T4          \
	VPRORD     $19, w14, T5          \
	VPSRLD     $10, w14, T6          \
	VPTERNLOGD $0x96, T6, T5, T4     \
	VPADDD     w9, w0, w0            \
	VPADDD     T4, w0, w0

#define RS(a, b, c, d, e, f, g, h, w0, w1, w9, w14, k) \
	ROUND(a, b, c, d, e, f, g, h, w0, k) \
	SCHED(w0, w1, w9, w14)

// func sha256x16(state *[8][16]uint32, p *byte, stride, blocks int)
//
// Runs blocks SHA-256 compressions on each of sixteen lanes. Lane i reads
// its 64-byte blocks consecutively from p + i*stride; state[w][i] is word w
// of lane i's chaining value, read at entry and written back per block.
// Exactly the bytes [p+i*stride, p+i*stride+64*blocks) are read.
TEXT ·sha256x16(SB), NOSPLIT, $0-32
	MOVQ state+0(FP), DI
	MOVQ p+8(FP), SI
	MOVQ stride+16(FP), DX
	MOVQ blocks+24(FP), CX
	TESTQ CX, CX
	JZ   done

block:
	VMOVDQU32 bswap32<>(SB), X15
	MOVQ SI, R8
	LOAD(W0)
	LOAD(W1)
	LOAD(W2)
	LOAD(W3)
	LOAD(W4)
	LOAD(W5)
	LOAD(W6)
	LOAD(W7)
	LOAD(W8)
	LOAD(W9)
	LOAD(W10)
	LOAD(W11)
	LOAD(W12)
	LOAD(W13)
	LOAD(W14)
	LOAD(W15)

	UNPACK_DQ(W0, W1, X0, X1)
	UNPACK_DQ(W2, W3, X2, X3)
	UNPACK_DQ(W4, W5, X4, X5)
	UNPACK_DQ(W6, W7, X6, X7)
	UNPACK_DQ(W8, W9, X8, X9)
	UNPACK_DQ(W10, W11, X10, X11)
	UNPACK_DQ(W12, W13, X12, X13)
	UNPACK_DQ(W14, W15, X14, X15)

	UNPACK_QDQ(X0, X1, X2, X3, W0, W1, W2, W3)
	UNPACK_QDQ(X4, X5, X6, X7, W4, W5, W6, W7)
	UNPACK_QDQ(X8, X9, X10, X11, W8, W9, W10, W11)
	UNPACK_QDQ(X12, X13, X14, X15, W12, W13, W14, W15)

	SHUF_LANES(W0, W4, X0, X1)
	SHUF_LANES(W8, W12, X2, X3)
	SHUF_LANES(W1, W5, X4, X5)
	SHUF_LANES(W9, W13, X6, X7)
	SHUF_LANES(W2, W6, X8, X9)
	SHUF_LANES(W10, W14, X10, X11)
	SHUF_LANES(W3, W7, X12, X13)
	SHUF_LANES(W11, W15, X14, X15)

	SHUF_LANES(X0, X2, W0, W8)
	SHUF_LANES(X1, X3, W4, W12)
	SHUF_LANES(X4, X6, W1, W9)
	SHUF_LANES(X5, X7, W5, W13)
	SHUF_LANES(X8, X10, W2, W10)
	SHUF_LANES(X9, X11, W6, W14)
	SHUF_LANES(X12, X14, W3, W11)
	SHUF_LANES(X13, X15, W7, W15)

	VMOVDQU32 0*64(DI), A
	VMOVDQU32 1*64(DI), B
	VMOVDQU32 2*64(DI), C
	VMOVDQU32 3*64(DI), D
	VMOVDQU32 4*64(DI), E
	VMOVDQU32 5*64(DI), F
	VMOVDQU32 6*64(DI), G
	VMOVDQU32 7*64(DI), H

	// Rounds 0-47, each also computing the message word sixteen rounds
	// ahead; sixteen rounds bring both register rotations back to where
	// they started, so they are one loop body.
	LEAQ k256<>(SB), R9
	MOVQ $3, R10

rounds:
	RS(A, B, C, D, E, F, G, H, W0, W1, W9, W14, 0)
	RS(H, A, B, C, D, E, F, G, W1, W2, W10, W15, 4)
	RS(G, H, A, B, C, D, E, F, W2, W3, W11, W0, 8)
	RS(F, G, H, A, B, C, D, E, W3, W4, W12, W1, 12)
	RS(E, F, G, H, A, B, C, D, W4, W5, W13, W2, 16)
	RS(D, E, F, G, H, A, B, C, W5, W6, W14, W3, 20)
	RS(C, D, E, F, G, H, A, B, W6, W7, W15, W4, 24)
	RS(B, C, D, E, F, G, H, A, W7, W8, W0, W5, 28)
	RS(A, B, C, D, E, F, G, H, W8, W9, W1, W6, 32)
	RS(H, A, B, C, D, E, F, G, W9, W10, W2, W7, 36)
	RS(G, H, A, B, C, D, E, F, W10, W11, W3, W8, 40)
	RS(F, G, H, A, B, C, D, E, W11, W12, W4, W9, 44)
	RS(E, F, G, H, A, B, C, D, W12, W13, W5, W10, 48)
	RS(D, E, F, G, H, A, B, C, W13, W14, W6, W11, 52)
	RS(C, D, E, F, G, H, A, B, W14, W15, W7, W12, 56)
	RS(B, C, D, E, F, G, H, A, W15, W0, W8, W13, 60)
	ADDQ $64, R9
	DECQ R10
	JNZ  rounds

	// Rounds 48-63: the schedule is complete.
	ROUND(A, B, C, D, E, F, G, H, W0, 0)
	ROUND(H, A, B, C, D, E, F, G, W1, 4)
	ROUND(G, H, A, B, C, D, E, F, W2, 8)
	ROUND(F, G, H, A, B, C, D, E, W3, 12)
	ROUND(E, F, G, H, A, B, C, D, W4, 16)
	ROUND(D, E, F, G, H, A, B, C, W5, 20)
	ROUND(C, D, E, F, G, H, A, B, W6, 24)
	ROUND(B, C, D, E, F, G, H, A, W7, 28)
	ROUND(A, B, C, D, E, F, G, H, W8, 32)
	ROUND(H, A, B, C, D, E, F, G, W9, 36)
	ROUND(G, H, A, B, C, D, E, F, W10, 40)
	ROUND(F, G, H, A, B, C, D, E, W11, 44)
	ROUND(E, F, G, H, A, B, C, D, W12, 48)
	ROUND(D, E, F, G, H, A, B, C, W13, 52)
	ROUND(C, D, E, F, G, H, A, B, W14, 56)
	ROUND(B, C, D, E, F, G, H, A, W15, 60)

	VPADDD 0*64(DI), A, A
	VPADDD 1*64(DI), B, B
	VPADDD 2*64(DI), C, C
	VPADDD 3*64(DI), D, D
	VPADDD 4*64(DI), E, E
	VPADDD 5*64(DI), F, F
	VPADDD 6*64(DI), G, G
	VPADDD 7*64(DI), H, H
	VMOVDQU32 A, 0*64(DI)
	VMOVDQU32 B, 1*64(DI)
	VMOVDQU32 C, 2*64(DI)
	VMOVDQU32 D, 3*64(DI)
	VMOVDQU32 E, 4*64(DI)
	VMOVDQU32 F, 5*64(DI)
	VMOVDQU32 G, 6*64(DI)
	VMOVDQU32 H, 7*64(DI)

	ADDQ $64, SI
	DECQ CX
	JNZ  block
	VZEROUPPER

done:
	RET
