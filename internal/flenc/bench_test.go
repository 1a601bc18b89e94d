package flenc

import (
	"fmt"
	"math/rand"
	"testing"
)

// Microbenchmarks for the encode/decode kernels. The SWAR variants are
// benchmarked against the retained scalar references at a narrow, an odd
// and the maximal width so the per-plane versus per-pass scaling is
// visible: scalar cost grows linearly with width, transpose cost with
// ⌈width/8⌉.

func benchAbs(L int, width uint) []uint32 {
	rng := rand.New(rand.NewSource(42))
	abs := make([]uint32, L)
	mask := uint32(1)<<width - 1
	for i := range abs {
		abs[i] = rng.Uint32() & mask
	}
	return abs
}

var benchWidths = []uint{8, 17, 32}

func BenchmarkShuffle(b *testing.B) {
	const L = 32
	for _, w := range benchWidths {
		b.Run(fmt.Sprintf("w%d", w), func(b *testing.B) {
			abs := benchAbs(L, w)
			dst := make([]byte, int(w)*PlaneBytes(L))
			b.SetBytes(int64(4 * L))
			for i := 0; i < b.N; i++ {
				Shuffle(dst, abs, w)
			}
		})
	}
}

func BenchmarkShuffleScalar(b *testing.B) {
	const L = 32
	for _, w := range benchWidths {
		b.Run(fmt.Sprintf("w%d", w), func(b *testing.B) {
			abs := benchAbs(L, w)
			dst := make([]byte, int(w)*PlaneBytes(L))
			b.SetBytes(int64(4 * L))
			for i := 0; i < b.N; i++ {
				ShuffleScalar(dst, abs, w)
			}
		})
	}
}

func BenchmarkUnshuffle(b *testing.B) {
	const L = 32
	for _, w := range benchWidths {
		b.Run(fmt.Sprintf("w%d", w), func(b *testing.B) {
			abs := benchAbs(L, w)
			planes := make([]byte, int(w)*PlaneBytes(L))
			Shuffle(planes, abs, w)
			out := make([]uint32, L)
			b.SetBytes(int64(4 * L))
			for i := 0; i < b.N; i++ {
				Unshuffle(out, planes, w)
			}
		})
	}
}

func benchCodes(L int) []int32 {
	rng := rand.New(rand.NewSource(7))
	codes := make([]int32, L)
	for i := range codes {
		codes[i] = int32(rng.Intn(1<<16) - 1<<15)
	}
	return codes
}

// BenchmarkSplitSigns measures the three separate sub-stages
// (Sign + Max + GetLength) that SplitSignsWidth fuses.
func BenchmarkSplitSigns(b *testing.B) {
	const L = 32
	codes := benchCodes(L)
	abs := make([]uint32, L)
	signs := make([]byte, L/8)
	b.SetBytes(int64(4 * L))
	var w uint
	for i := 0; i < b.N; i++ {
		SplitSigns(abs, signs, codes)
		w = Width(MaxAbs(abs))
	}
	_ = w
}

func BenchmarkSplitSignsWidth(b *testing.B) {
	const L = 32
	codes := benchCodes(L)
	abs := make([]uint32, L)
	signs := make([]byte, L/8)
	b.SetBytes(int64(4 * L))
	var w uint
	for i := 0; i < b.N; i++ {
		w = SplitSignsWidth(abs, signs, codes)
	}
	_ = w
}

func BenchmarkEncodeBlock(b *testing.B) {
	const L = 32
	codes := benchCodes(L)
	scratch := NewBlock(L)
	dst := make([]byte, 0, EncodedSize(MaxWidth, L, HeaderU32))
	b.SetBytes(int64(4 * L))
	for i := 0; i < b.N; i++ {
		dst, _ = EncodeBlock(dst[:0], codes, HeaderU32, scratch)
	}
}

func BenchmarkDecodeBlock(b *testing.B) {
	const L = 32
	codes := benchCodes(L)
	scratch := NewBlock(L)
	enc, _ := EncodeBlock(nil, codes, HeaderU32, scratch)
	out := make([]int32, L)
	b.SetBytes(int64(4 * L))
	for i := 0; i < b.N; i++ {
		if _, err := DecodeBlock(out, enc, HeaderU32, scratch); err != nil {
			b.Fatal(err)
		}
	}
}
