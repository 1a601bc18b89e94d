package flenc

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestTranspose8x8 checks the bit-matrix transpose against a direct
// bit-by-bit computation and its self-inverse property.
func TestTranspose8x8(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	naive := func(x uint64) uint64 {
		var y uint64
		for r := 0; r < 8; r++ {
			for c := 0; c < 8; c++ {
				if x&(1<<(8*r+c)) != 0 {
					y |= 1 << (8*c + r)
				}
			}
		}
		return y
	}
	for i := 0; i < 1000; i++ {
		x := rng.Uint64()
		got := Transpose8x8(x)
		if want := naive(x); got != want {
			t.Fatalf("Transpose8x8(%#x) = %#x, want %#x", x, got, want)
		}
		if back := Transpose8x8(got); back != x {
			t.Fatalf("transpose not self-inverse: %#x -> %#x -> %#x", x, got, back)
		}
	}
}

// TestShuffleMatchesScalar asserts the SWAR shuffle is byte-identical to
// the retained per-plane reference across random widths and block lengths.
func TestShuffleMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for iter := 0; iter < 500; iter++ {
		L := 8 * (1 + rng.Intn(16))
		width := uint(1 + rng.Intn(MaxWidth))
		abs := make([]uint32, L)
		mask := uint32(1)<<width - 1
		for i := range abs {
			abs[i] = rng.Uint32() & mask
		}
		pb := PlaneBytes(L)
		got := make([]byte, int(width)*pb)
		want := make([]byte, int(width)*pb)
		Shuffle(got, abs, width)
		ShuffleScalar(want, abs, width)
		if !bytes.Equal(got, want) {
			t.Fatalf("L=%d width=%d: SWAR shuffle differs from scalar\n got %x\nwant %x", L, width, got, want)
		}

		dec := make([]uint32, L)
		Unshuffle(dec, got, width)
		for i := range dec {
			if dec[i] != abs[i] {
				t.Fatalf("L=%d width=%d elem %d: unshuffle %d, original %d", L, width, i, dec[i], abs[i])
			}
		}
	}
}

// TestSplitSignsWidthMatchesScalar checks the fused Sign+Max+GetLength
// pass against the three separate sub-stages.
func TestSplitSignsWidthMatchesScalar(t *testing.T) {
	f := func(raw []int32) bool {
		L := (len(raw) / 8) * 8
		if L == 0 {
			return true
		}
		src := raw[:L]
		absF := make([]uint32, L)
		signsF := make([]byte, L/8)
		w := SplitSignsWidth(absF, signsF, src)

		absR := make([]uint32, L)
		signsR := make([]byte, L/8)
		SplitSigns(absR, signsR, src)
		wantW := Width(MaxAbs(absR))

		if w != wantW || !bytes.Equal(signsF, signsR) {
			return false
		}
		for i := range absF {
			if absF[i] != absR[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestEncodeBlockMatchesRef asserts the fused encoder emits the block the
// stage chain's sub-stages make of the codes (Sign, Max, GetLength, one
// ShufflePlane per plane, Emit), and that DecodeBlock inverts it.
func TestEncodeBlockMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 500; iter++ {
		L := 8 * (1 + rng.Intn(16))
		codes := make([]int32, L)
		shift := uint(rng.Intn(33))
		for i := range codes {
			codes[i] = int32(rng.Uint32() >> shift)
			if rng.Intn(2) == 0 {
				codes[i] = -codes[i]
			}
		}
		abs, signs := make([]uint32, L), make([]byte, L/8)
		SplitSigns(abs, signs, codes)
		w := Width(MaxAbs(abs))
		planes := make([]byte, int(w)*PlaneBytes(L))
		ShuffleScalar(planes, abs, w)
		for _, hdr := range []int{HeaderU32, HeaderU8} {
			ref := AppendHeader(nil, hdr, uint32(w))
			if w > 0 {
				ref = append(append(ref, signs...), planes...)
			}
			scratch := NewBlock(L)
			opt, wOpt := EncodeBlock(nil, codes, hdr, scratch)
			if wOpt != w || !bytes.Equal(opt, ref) {
				t.Fatalf("L=%d hdr=%d: fused encode differs (w %d vs %d)\n got %x\nwant %x",
					L, hdr, wOpt, w, opt, ref)
			}
			dec := make([]int32, L)
			if _, err := DecodeBlock(dec, opt, hdr, scratch); err != nil {
				t.Fatalf("DecodeBlock: %v", err)
			}
			for i := range dec {
				if dec[i] != codes[i] {
					t.Fatalf("L=%d hdr=%d elem %d: decode %d, original %d", L, hdr, i, dec[i], codes[i])
				}
			}
		}
	}
}

// TestAppendEncodedNoAlloc verifies the encode path stays allocation-free
// once the destination has capacity.
func TestAppendEncodedNoAlloc(t *testing.T) {
	const L = 32
	codes := make([]int32, L)
	for i := range codes {
		codes[i] = int32(i - 16)
	}
	scratch := NewBlock(L)
	dst := make([]byte, 0, EncodedSize(MaxWidth, L, HeaderU32))
	allocs := testing.AllocsPerRun(100, func() {
		dst, _ = EncodeBlock(dst[:0], codes, HeaderU32, scratch)
	})
	if allocs != 0 {
		t.Fatalf("EncodeBlock allocates %.1f times per call with warm dst", allocs)
	}
}
