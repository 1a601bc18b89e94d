package huffman

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ceresz/internal/bitstream"
)

func TestBuildRejectsBadInput(t *testing.T) {
	if _, err := Build(nil); err == nil {
		t.Fatal("accepted empty alphabet")
	}
	if _, err := Build(map[uint32]int64{1: 0}); err == nil {
		t.Fatal("accepted zero frequency")
	}
	if _, err := Build(map[uint32]int64{1: -5}); err == nil {
		t.Fatal("accepted negative frequency")
	}
}

func TestSingleSymbol(t *testing.T) {
	cb, err := Build(map[uint32]int64{42: 100})
	if err != nil {
		t.Fatal(err)
	}
	if cb.Len() != 1 || cb.lengths[42] != 1 {
		t.Fatalf("single-symbol codebook: len=%d codelen=%d", cb.Len(), cb.lengths[42])
	}
	w := bitstream.NewWriter(4)
	for i := 0; i < 10; i++ {
		if err := cb.Encode(w, 42); err != nil {
			t.Fatal(err)
		}
	}
	got, err := DecodeAll(cb, w.Bytes(), 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range got {
		if s != 42 {
			t.Fatalf("decoded %d", s)
		}
	}
}

func TestSkewedFrequenciesGiveShortCodes(t *testing.T) {
	freqs := map[uint32]int64{0: 1000, 1: 100, 2: 10, 3: 1}
	cb, err := Build(freqs)
	if err != nil {
		t.Fatal(err)
	}
	if cb.lengths[0] > cb.lengths[3] {
		t.Fatalf("frequent symbol got longer code: %d vs %d", cb.lengths[0], cb.lengths[3])
	}
	if cb.lengths[0] != 1 {
		t.Fatalf("dominant symbol code length %d, want 1", cb.lengths[0])
	}
	// Kraft equality for a full binary tree.
	var kraft float64
	for s := uint32(0); s < 4; s++ {
		kraft += 1 / float64(int64(1)<<cb.lengths[s])
	}
	if kraft != 1 {
		t.Fatalf("Kraft sum = %g, want 1", kraft)
	}
}

func TestEncodeUnknownSymbol(t *testing.T) {
	cb, _ := Build(map[uint32]int64{1: 1, 2: 1})
	w := bitstream.NewWriter(4)
	if err := cb.Encode(w, 99); err == nil {
		t.Fatal("encoded unknown symbol")
	}
}

func TestRoundTripSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	syms := make([]uint32, 10000)
	for i := range syms {
		// Geometric-ish distribution over 64 symbols.
		s := uint32(0)
		for s < 63 && rng.Intn(2) == 0 {
			s++
		}
		syms[i] = s
	}
	cb, payload, err := EncodeAll(syms)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeAll(cb, payload, len(syms))
	if err != nil {
		t.Fatal(err)
	}
	for i := range syms {
		if got[i] != syms[i] {
			t.Fatalf("symbol %d: %d != %d", i, got[i], syms[i])
		}
	}
	// Entropy coding must beat fixed 6-bit storage on geometric data.
	if len(payload)*8 >= 6*len(syms) {
		t.Fatalf("payload %d bits ≥ fixed-width %d bits", len(payload)*8, 6*len(syms))
	}
}

func TestFromLengthsMatchesBuild(t *testing.T) {
	freqs := map[uint32]int64{10: 50, 20: 30, 30: 15, 40: 5, 50: 1}
	cb, err := Build(freqs)
	if err != nil {
		t.Fatal(err)
	}
	cb2, err := FromLengths(cb.Lengths())
	if err != nil {
		t.Fatal(err)
	}
	syms := []uint32{10, 20, 30, 40, 50, 10, 10, 20}
	w := bitstream.NewWriter(8)
	for _, s := range syms {
		if err := cb.Encode(w, s); err != nil {
			t.Fatal(err)
		}
	}
	got, err := DecodeAll(cb2, w.Bytes(), len(syms))
	if err != nil {
		t.Fatal(err)
	}
	for i := range syms {
		if got[i] != syms[i] {
			t.Fatalf("rebuilt codebook decodes %d as %d", syms[i], got[i])
		}
	}
}

func TestFromLengthsValidation(t *testing.T) {
	if _, err := FromLengths(nil); err == nil {
		t.Fatal("accepted empty table")
	}
	if _, err := FromLengths(map[uint32]uint8{1: 0}); err == nil {
		t.Fatal("accepted zero length")
	}
	if _, err := FromLengths(map[uint32]uint8{1: MaxCodeLen + 1}); err == nil {
		t.Fatal("accepted over-long code")
	}
}

func TestDecodeCorrupt(t *testing.T) {
	cb, _ := Build(map[uint32]int64{0: 4, 1: 2, 2: 1, 3: 1})
	// Too few bits.
	if _, err := DecodeAll(cb, nil, 1); err == nil {
		t.Fatal("decoded from empty payload")
	}
}

// Property: arbitrary symbol sequences round-trip, including through the
// serialized-lengths rebuild path.
func TestQuickRoundTrip(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		syms := make([]uint32, len(raw))
		for i, r := range raw {
			syms[i] = uint32(r % 37)
		}
		cb, payload, err := EncodeAll(syms)
		if err != nil {
			return false
		}
		cb2, err := FromLengths(cb.Lengths())
		if err != nil {
			return false
		}
		got, err := DecodeAll(cb2, payload, len(syms))
		if err != nil {
			return false
		}
		for i := range syms {
			if got[i] != syms[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicCodebook(t *testing.T) {
	freqs := map[uint32]int64{5: 10, 9: 10, 1: 10, 7: 10}
	a, _ := Build(freqs)
	b, _ := Build(freqs)
	for s := range freqs {
		if a.lengths[s] != b.lengths[s] {
			t.Fatalf("nondeterministic code length for %d", s)
		}
	}
}

func TestDeepCodebookGuard(t *testing.T) {
	// Fibonacci-like frequencies force maximal code depth; the builder
	// must either produce codes within MaxCodeLen or reject cleanly —
	// never emit an undecodable book.
	freqs := map[uint32]int64{}
	a, b := int64(1), int64(1)
	for s := uint32(0); s < 40; s++ {
		freqs[s] = a
		a, b = b, a+b
	}
	cb, err := Build(freqs)
	if err != nil {
		return // rejection is acceptable
	}
	if cb.MaxLen() > MaxCodeLen {
		t.Fatalf("max code length %d exceeds guard %d", cb.MaxLen(), MaxCodeLen)
	}
	// And it must round-trip.
	syms := []uint32{0, 39, 20, 39, 0}
	w := bitstream.NewWriter(16)
	for _, s := range syms {
		if err := cb.Encode(w, s); err != nil {
			t.Fatal(err)
		}
	}
	got, err := DecodeAll(cb, w.Bytes(), len(syms))
	if err != nil {
		t.Fatal(err)
	}
	for i := range syms {
		if got[i] != syms[i] {
			t.Fatalf("deep codebook decode mismatch at %d", i)
		}
	}
}
