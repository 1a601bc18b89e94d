// Package flenc implements CereSZ fixed-length encoding (paper §3, step ③)
// and its inverse. A block of L small integers is stored as:
//
//   - a fixed-length header: the number of effective bits f of the largest
//     absolute value in the block (4 bytes in CereSZ to respect the WSE's
//     32-bit message granularity; 1 byte in the SZp/cuSZp baselines),
//   - L/8 bytes of packed sign bits,
//   - f planes of L/8 bytes each, produced by the Bit-shuffle step: plane k
//     collects bit k of every absolute value (Fig. 8).
//
// Two header values are reserved. A header of 0 marks a zero block — a block
// whose codes are all zero — which stores nothing beyond the header (paper
// §5.2, the source of the throughput gain at loose bounds and of the ratio
// caps 128/4 ≈ 32 for CereSZ and 128/1 = 128 for SZp at L = 32). The
// all-ones header marks a verbatim block whose payload is the raw original
// data; the core compressor emits it when quantization overflows int32.
//
// The four sub-steps — Sign, Max, GetLength, Bit-shuffle — are exported
// individually because the WSE mapping schedules them (and the per-bit
// slices of Bit-shuffle) as separate pipeline sub-stages (Table 3). The
// host hot path does not use them: it runs the fused word-parallel kernels
// in swar.go (SplitSignsWidth, Shuffle/Unshuffle via 8×8 bit-matrix
// transposes), internal/core splits and merges signs branch-free inside
// its own fused loops, and a block the core can tell is all zero reaches
// this package only as AppendEncoded with width 0. The sub-steps are the
// reference: the stage chain (internal/stages) composes them into the
// codec every kernel is tested against.
package flenc

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
)

// Header widths supported by the codec.
const (
	// HeaderU32 is the CereSZ header: 4 bytes, honoring the 32-bit wavelet
	// granularity of the Cerebras fabric (paper §5.1.1).
	HeaderU32 = 4
	// HeaderU8 is the SZp/cuSZp header: 1 byte.
	HeaderU8 = 1
)

// Reserved header codes.
const (
	// ZeroMarker marks an all-zero block.
	ZeroMarker = 0
	// VerbatimU32 marks a verbatim block in a 4-byte header.
	VerbatimU32 = 0xFFFFFFFF
	// VerbatimU8 marks a verbatim block in a 1-byte header.
	VerbatimU8 = 0xFF
)

// MaxWidth is the largest representable effective-bit count.
const MaxWidth = 32

// SplitSigns fills signs with the packed sign bits of src (bit i of
// signs[i/8], LSB-first; 1 means negative) and abs with absolute values.
// len(signs) must be len(src)/8 and len(src) must be a multiple of 8.
// The absolute value of MinInt32 is representable in uint32, so the split
// is total.
func SplitSigns(abs []uint32, signs []byte, src []int32) {
	if len(src)%8 != 0 {
		panic(fmt.Sprintf("flenc: block length %d not a multiple of 8", len(src)))
	}
	if len(abs) != len(src) || len(signs) != len(src)/8 {
		panic("flenc: SplitSigns buffer size mismatch")
	}
	clear(signs)
	for i, v := range src {
		if v < 0 {
			signs[i>>3] |= 1 << (i & 7)
			abs[i] = uint32(-int64(v))
		} else {
			abs[i] = uint32(v)
		}
	}
}

// MergeSigns reconstructs signed codes from absolute values and packed
// sign bits, inverting SplitSigns.
func MergeSigns(dst []int32, abs []uint32, signs []byte) {
	if len(dst) != len(abs) || len(signs) != len(abs)/8 {
		panic("flenc: MergeSigns buffer size mismatch")
	}
	for i, a := range abs {
		if signs[i>>3]&(1<<(i&7)) != 0 {
			dst[i] = int32(-int64(a))
		} else {
			dst[i] = int32(a)
		}
	}
}

// MaxAbs returns the maximum of abs (the Max sub-stage).
func MaxAbs(abs []uint32) uint32 {
	var m uint32
	for _, a := range abs {
		if a > m {
			m = a
		}
	}
	return m
}

// Width returns the number of effective bits of m (the GetLength
// sub-stage): 0 for 0, otherwise ⌈log₂(m+1)⌉.
func Width(m uint32) uint {
	return uint(bits.Len32(m))
}

// PlaneBytes returns the size in bytes of one shuffled bit plane for a
// block of blockLen elements.
func PlaneBytes(blockLen int) int { return blockLen / 8 }

// ShufflePlane extracts bit plane k of abs into dst (LSB-first packing,
// len(dst) = len(abs)/8). This is the unit of work of the per-bit
// "1-bit Shuffle" sub-stages the mapping distributes across PEs. Each
// output byte is assembled in a register, so dst needs no prior zeroing
// and the bounds checks hoist to one slice per group of eight.
func ShufflePlane(dst []byte, abs []uint32, k uint) {
	if len(dst) != len(abs)/8 {
		panic("flenc: ShufflePlane buffer size mismatch")
	}
	for j := range dst {
		v := abs[8*j : 8*j+8 : 8*j+8]
		dst[j] = byte((v[0]>>k)&1) |
			byte((v[1]>>k)&1)<<1 |
			byte((v[2]>>k)&1)<<2 |
			byte((v[3]>>k)&1)<<3 |
			byte((v[4]>>k)&1)<<4 |
			byte((v[5]>>k)&1)<<5 |
			byte((v[6]>>k)&1)<<6 |
			byte((v[7]>>k)&1)<<7
	}
}

// UnshufflePlane merges bit plane k from src into abs (ORs bit k in).
func UnshufflePlane(abs []uint32, src []byte, k uint) {
	if len(src) != len(abs)/8 {
		panic("flenc: UnshufflePlane buffer size mismatch")
	}
	for j, b := range src {
		a := abs[8*j : 8*j+8 : 8*j+8]
		a[0] |= uint32(b&1) << k
		a[1] |= uint32((b>>1)&1) << k
		a[2] |= uint32((b>>2)&1) << k
		a[3] |= uint32((b>>3)&1) << k
		a[4] |= uint32((b>>4)&1) << k
		a[5] |= uint32((b>>5)&1) << k
		a[6] |= uint32((b>>6)&1) << k
		a[7] |= uint32((b>>7)&1) << k
	}
}

// EncodedSize returns the wire size in bytes of a block of blockLen codes
// with the given effective width and header size (HeaderU32 or HeaderU8).
// Width 0 (a zero block) costs only the header.
func EncodedSize(width uint, blockLen, headerBytes int) int {
	if width == 0 {
		return headerBytes
	}
	return headerBytes + PlaneBytes(blockLen) + int(width)*PlaneBytes(blockLen)
}

// AppendHeader appends a block header holding v: a width, ZeroMarker or
// VerbatimU32, which a 1-byte header stores as VerbatimU8.
func AppendHeader(dst []byte, headerBytes int, v uint32) []byte {
	switch headerBytes {
	case HeaderU32:
		var h [4]byte
		binary.LittleEndian.PutUint32(h[:], v)
		return append(dst, h[:]...)
	case HeaderU8:
		if v > VerbatimU8 && v != VerbatimU32 {
			panic(fmt.Sprintf("flenc: header value %d does not fit in one byte", v))
		}
		if v == VerbatimU32 {
			v = VerbatimU8
		}
		return append(dst, byte(v))
	default:
		panic(fmt.Sprintf("flenc: unsupported header size %d", headerBytes))
	}
}

// Header decodes a block header from src, returning the raw header value
// (with the verbatim marker normalized to VerbatimU32) and the number of
// header bytes consumed.
func Header(src []byte, headerBytes int) (v uint32, n int, err error) {
	if len(src) < headerBytes {
		return 0, 0, fmt.Errorf("flenc: truncated header: have %d bytes, need %d", len(src), headerBytes)
	}
	switch headerBytes {
	case HeaderU32:
		return binary.LittleEndian.Uint32(src), 4, nil
	case HeaderU8:
		v := uint32(src[0])
		if v == VerbatimU8 {
			v = VerbatimU32
		}
		return v, 1, nil
	default:
		return 0, 0, fmt.Errorf("flenc: unsupported header size %d", headerBytes)
	}
}

// Block is a reusable scratch area for encoding/decoding one block.
// It avoids per-block allocation on hot paths.
type Block struct {
	Abs   []uint32
	Signs []byte
}

// NewBlock returns scratch buffers for blocks of blockLen elements.
func NewBlock(blockLen int) *Block {
	if blockLen <= 0 || blockLen%8 != 0 {
		panic(fmt.Sprintf("flenc: invalid block length %d", blockLen))
	}
	return &Block{
		Abs:   make([]uint32, blockLen),
		Signs: make([]byte, blockLen/8),
	}
}

// AppendEncoded appends the wire form of a block whose sign-split state is
// already in abs/signs (as produced by SplitSignsWidth): header, packed
// signs, then w bit planes shuffled directly into dst's tail — no staging
// buffer, and no allocation when dst has capacity. w == 0 appends a bare
// zero-block header.
func AppendEncoded(dst []byte, abs []uint32, signs []byte, w uint, headerBytes int) []byte {
	if w == 0 {
		return AppendHeader(dst, headerBytes, ZeroMarker)
	}
	dst = AppendHeader(dst, headerBytes, uint32(w))
	dst = append(dst, signs...)
	need := int(w) * PlaneBytes(len(abs))
	dst = slices.Grow(dst, need)
	n := len(dst)
	dst = dst[: n+need : cap(dst)]
	Shuffle(dst[n:], abs, w)
	return dst
}

// EncodeBlock appends the fixed-length encoding of codes to dst using the
// given header size and scratch area, returning the extended slice and the
// effective width of the block. The sign split, width computation and
// bit shuffle all run word-parallel (one fused pass plus per-byte-lane
// 8×8 transposes).
func EncodeBlock(dst []byte, codes []int32, headerBytes int, scratch *Block) ([]byte, uint) {
	abs := scratch.Abs[:len(codes)]
	signs := scratch.Signs[:len(codes)/8]
	w := SplitSignsWidth(abs, signs, codes)
	return AppendEncoded(dst, abs, signs, w, headerBytes), w
}

// decodeBody validates a non-zero, non-verbatim block body and returns its
// signs, planes, width and total byte count consumed.
func decodeBody(src []byte, blockLen, headerBytes int) (signs, planes []byte, w uint, n int, err error) {
	v, n, err := Header(src, headerBytes)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	switch {
	case v == ZeroMarker:
		return nil, nil, 0, n, nil
	case v == VerbatimU32:
		return nil, nil, 0, 0, fmt.Errorf("flenc: verbatim block must be handled by the caller")
	case v > MaxWidth:
		return nil, nil, 0, 0, fmt.Errorf("flenc: invalid fixed length %d", v)
	}
	w = uint(v)
	pb := PlaneBytes(blockLen)
	need := pb + int(w)*pb
	if len(src)-n < need {
		return nil, nil, 0, 0, fmt.Errorf("flenc: truncated block: have %d bytes, need %d", len(src)-n, need)
	}
	signs = src[n : n+pb]
	planes = src[n+pb : n+need]
	return signs, planes, w, n + need, nil
}

// DecodeBlock decodes one block of blockLen codes from src, writing them
// into codes and returning the number of bytes consumed. A verbatim header
// is an error here — the caller (the core compressor) must intercept it,
// because its payload is raw floats, not codes.
func DecodeBlock(codes []int32, src []byte, headerBytes int, scratch *Block) (n int, err error) {
	signs, planes, w, n, err := decodeBody(src, len(codes), headerBytes)
	if err != nil {
		return 0, err
	}
	if w == 0 {
		clear(codes)
		return n, nil
	}
	abs := scratch.Abs[:len(codes)]
	Unshuffle(abs, planes, w)
	MergeSigns(codes, abs, signs)
	return n, nil
}
