package flenc

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPaperFig5Block(t *testing.T) {
	// Paper Fig. 5(b): the Lorenzo output block {4,2,1,0,-2,-3,-5,-5} has
	// max |v| = 5 → width 3 per the Width definition… the paper narrates
	// "maximum absolute value in the block is 8 → four bits" for a variant
	// block; here we check the mechanics exactly: a block with max abs 8
	// needs 4 effective bits and encodes to header + L/8 signs + 4·L/8
	// payload bytes.
	codes := []int32{4, 2, 1, 0, -2, -3, -5, -8}
	scratch := NewBlock(8)
	out, w := EncodeBlock(nil, codes, HeaderU8, scratch)
	if w != 4 {
		t.Fatalf("width = %d, want 4", w)
	}
	// 1 header + 1 signs + 4 planes = 6 bytes: the paper's "compresses 32
	// original bytes into 6 bytes, a 5.33 ratio" example.
	if len(out) != 6 {
		t.Fatalf("encoded size = %d, want 6", len(out))
	}
	if got := float64(4*len(codes)) / float64(len(out)); math.Abs(got-5.33) > 0.01 {
		t.Fatalf("ratio = %.2f, want ≈5.33", got)
	}
	dec := make([]int32, 8)
	n, err := DecodeBlock(dec, out, HeaderU8, scratch)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(out) {
		t.Fatalf("consumed %d bytes, want %d", n, len(out))
	}
	for i := range codes {
		if dec[i] != codes[i] {
			t.Fatalf("dec[%d] = %d, want %d", i, dec[i], codes[i])
		}
	}
}

func TestSplitMergeSigns(t *testing.T) {
	src := []int32{0, -1, 5, -5, math.MaxInt32, math.MinInt32, 7, -128}
	abs := make([]uint32, 8)
	signs := make([]byte, 1)
	SplitSigns(abs, signs, src)
	if abs[4] != math.MaxInt32 {
		t.Fatalf("abs of MaxInt32 = %d", abs[4])
	}
	if abs[5] != 1<<31 {
		t.Fatalf("abs of MinInt32 = %d, want 2^31", abs[5])
	}
	// Negative positions: 1, 3, 5, 7 → sign byte 0b10101010.
	if signs[0] != 0xAA {
		t.Fatalf("signs = %#x, want 0xAA", signs[0])
	}
	dst := make([]int32, 8)
	MergeSigns(dst, abs, signs)
	for i := range src {
		if dst[i] != src[i] {
			t.Fatalf("merge[%d] = %d, want %d", i, dst[i], src[i])
		}
	}
}

func TestMaxAbsAndWidth(t *testing.T) {
	if MaxAbs([]uint32{3, 9, 0, 8}) != 9 {
		t.Fatal("MaxAbs wrong")
	}
	if MaxAbs(nil) != 0 {
		t.Fatal("MaxAbs(nil) != 0")
	}
	widths := map[uint32]uint{0: 0, 1: 1, 2: 2, 3: 2, 4: 3, 7: 3, 8: 4, 255: 8, 256: 9, math.MaxUint32: 32}
	for m, want := range widths {
		if got := Width(m); got != want {
			t.Fatalf("Width(%d) = %d, want %d", m, got, want)
		}
	}
}

func TestShufflePaperFig8(t *testing.T) {
	// Fig. 8: plane k holds bit k of each of the 8 integers.
	abs := []uint32{0b101, 0b010, 0b111, 0b000, 0b001, 0b100, 0b011, 0b110}
	plane := make([]byte, 1)
	ShufflePlane(plane, abs, 0)
	// Bit 0 of each value, LSB-first: 1,0,1,0,1,0,1,0 → 0b01010101.
	if plane[0] != 0x55 {
		t.Fatalf("plane0 = %#x, want 0x55", plane[0])
	}
	ShufflePlane(plane, abs, 1)
	// Bit 1: 0,1,1,0,0,0,1,1 → 0b11000110.
	if plane[0] != 0xC6 {
		t.Fatalf("plane1 = %#x, want 0xC6", plane[0])
	}
	ShufflePlane(plane, abs, 2)
	// Bit 2: 1,0,1,0,0,1,0,1 → 0b10100101.
	if plane[0] != 0xA5 {
		t.Fatalf("plane2 = %#x, want 0xA5", plane[0])
	}
}

func TestShuffleUnshuffleRoundTrip(t *testing.T) {
	abs := []uint32{1, 2, 4, 8, 16, 1 << 30, 0, 12345, 99, 0xFFFF, 3, 1 << 31, 7, 6, 5, 4}
	w := Width(MaxAbs(abs))
	buf := make([]byte, int(w)*len(abs)/8)
	Shuffle(buf, abs, w)
	got := make([]uint32, len(abs))
	Unshuffle(got, buf, w)
	for i := range abs {
		if got[i] != abs[i] {
			t.Fatalf("unshuffle[%d] = %d, want %d", i, got[i], abs[i])
		}
	}
}

func TestZeroBlock(t *testing.T) {
	codes := make([]int32, 32)
	scratch := NewBlock(32)
	for _, hdr := range []int{HeaderU8, HeaderU32} {
		out, w := EncodeBlock(nil, codes, hdr, scratch)
		if w != 0 {
			t.Fatalf("hdr %d: width = %d, want 0", hdr, w)
		}
		if len(out) != hdr {
			t.Fatalf("hdr %d: zero block size = %d, want %d", hdr, len(out), hdr)
		}
		dec := make([]int32, 32)
		dec[7] = 99 // ensure decode clears stale content
		if _, err := DecodeBlock(dec, out, hdr, scratch); err != nil {
			t.Fatal(err)
		}
		for i, v := range dec {
			if v != 0 {
				t.Fatalf("hdr %d: dec[%d] = %d, want 0", hdr, i, v)
			}
		}
	}
}

func TestRatioCaps(t *testing.T) {
	// Paper §5.3: the zero-block ratio cap is 128/4 = 32 for CereSZ's 4-byte
	// header (Table 5 maxima 31.96–31.99) and 128/1 = 128 for SZp/cuSZp
	// (maxima 127.51–127.95), at L = 32 float32 elements.
	if got := float64(4*32) / float64(EncodedSize(0, 32, HeaderU32)); got != 32 {
		t.Fatalf("CereSZ zero-block ratio cap = %g, want 32", got)
	}
	if got := float64(4*32) / float64(EncodedSize(0, 32, HeaderU8)); got != 128 {
		t.Fatalf("SZp zero-block ratio cap = %g, want 128", got)
	}
	// Non-zero block, fl=17 (CESM-ATM regime): 4+4+17·4 = 76 bytes.
	if got := EncodedSize(17, 32, HeaderU32); got != 76 {
		t.Fatalf("EncodedSize(17) = %d, want 76", got)
	}
	// Paper §5.3: the CESM 1E-4 minimum ratio 1.68 = 128/76.
	if got := 128.0 / 76.0; math.Abs(got-1.68) > 0.005 {
		t.Fatalf("fl=17 ratio = %.3f, want ≈1.68", got)
	}
}

func TestHeaderParsing(t *testing.T) {
	if _, _, err := Header([]byte{1, 2, 3}, HeaderU32); err == nil {
		t.Fatal("Header accepted truncated input")
	}
	v, n, err := Header([]byte{VerbatimU8}, HeaderU8)
	if err != nil || n != 1 || v != VerbatimU32 {
		t.Fatalf("verbatim u8 header: v=%#x n=%d err=%v", v, n, err)
	}
	v, n, err = Header([]byte{0xFF, 0xFF, 0xFF, 0xFF}, HeaderU32)
	if err != nil || n != 4 || v != VerbatimU32 {
		t.Fatalf("verbatim u32 header: v=%#x n=%d err=%v", v, n, err)
	}
	if _, _, err := Header([]byte{0}, 2); err == nil {
		t.Fatal("Header accepted unsupported size")
	}
}

func TestDecodeErrors(t *testing.T) {
	scratch := NewBlock(32)
	codes := make([]int32, 32)
	// Invalid fixed length.
	bad := []byte{33, 0, 0, 0}
	if _, err := DecodeBlock(codes, bad, HeaderU32, scratch); err == nil {
		t.Fatal("accepted fl=33")
	}
	// Truncated payload.
	trunc := []byte{4, 0, 0, 0, 1, 2}
	if _, err := DecodeBlock(codes, trunc, HeaderU32, scratch); err == nil {
		t.Fatal("accepted truncated payload")
	}
	// Verbatim must be rejected at this layer.
	vb := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := DecodeBlock(codes, vb, HeaderU32, scratch); err == nil {
		t.Fatal("accepted verbatim block")
	}
}

// TestVerbatimSize pins the wire size of a verbatim block of 32 float32:
// the header AppendHeader writes for the marker, then the raw elements.
func TestVerbatimSize(t *testing.T) {
	for _, c := range []struct{ hdr, want int }{{HeaderU32, 132}, {HeaderU8, 129}} {
		if got := len(AppendHeader(nil, c.hdr, VerbatimU32)) + 4*32; got != c.want {
			t.Fatalf("hdr=%d: a verbatim block takes %d bytes, want %d", c.hdr, got, c.want)
		}
	}
}

// Property: encode/decode round-trips arbitrary int32 blocks for both
// header sizes, and the width equals the bit length of the max abs value.
func TestQuickEncodeDecode(t *testing.T) {
	scratch := NewBlock(32)
	dec := make([]int32, 32)
	f := func(vals [32]int32, u8 bool) bool {
		hdr := HeaderU32
		if u8 {
			hdr = HeaderU8
		}
		out, w := EncodeBlock(nil, vals[:], hdr, scratch)
		abs := make([]uint32, 32)
		signs := make([]byte, 4)
		SplitSigns(abs, signs, vals[:])
		if w != Width(MaxAbs(abs)) {
			return false
		}
		if len(out) != EncodedSize(w, 32, hdr) {
			return false
		}
		if _, err := DecodeBlock(dec, out, hdr, scratch); err != nil {
			return false
		}
		for i := range vals {
			if dec[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestNewBlockRejectsBadLength(t *testing.T) {
	for _, L := range []int{0, -8, 7, 12} {
		func() {
			defer func() { recover() }()
			NewBlock(L)
			t.Fatalf("NewBlock(%d) did not panic", L)
		}()
	}
}
