package bitstream

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWriteReadBit(t *testing.T) {
	w := NewWriter(2)
	pattern := []uint32{1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1}
	for _, b := range pattern {
		w.WriteBit(b)
	}
	if got, want := w.nbit, uint64(len(pattern)); got != want {
		t.Fatalf("bits written = %d, want %d", got, want)
	}
	if got, want := w.Len(), 2; got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
	r := NewReader(w.Bytes())
	for i, want := range pattern {
		got, err := r.ReadBit()
		if err != nil {
			t.Fatalf("ReadBit %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("bit %d = %d, want %d", i, got, want)
		}
	}
}

func TestWriteBitsRoundTrip(t *testing.T) {
	type field struct {
		v uint32
		n uint
	}
	fields := []field{
		{0, 0}, {1, 1}, {5, 3}, {0xFF, 8}, {0x12345678, 32},
		{0xFFFFFFFF, 32}, {7, 5}, {1, 17},
	}
	w := NewWriter(0)
	for _, f := range fields {
		w.WriteBits(f.v, f.n)
	}
	r := NewReader(w.Bytes())
	for i, f := range fields {
		got, err := r.ReadBits(f.n)
		if err != nil {
			t.Fatalf("field %d: %v", i, err)
		}
		want := f.v
		if f.n < 32 {
			want &= (1 << f.n) - 1
		}
		if got != want {
			t.Fatalf("field %d = %#x, want %#x", i, got, want)
		}
	}
	if r.Remaining() >= 8 {
		t.Fatalf("too many bits remain: %d", r.Remaining())
	}
}

func TestWriteBits64RoundTrip(t *testing.T) {
	w := NewWriter(0)
	vals := []uint64{0, 1, 0xDEADBEEFCAFEF00D, 1 << 63, 0xFFFFFFFFFFFFFFFF}
	for _, v := range vals {
		w.WriteBits64(v, 64)
	}
	r := NewReader(w.Bytes())
	for i, want := range vals {
		got, err := r.ReadBits64(64)
		if err != nil {
			t.Fatalf("val %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("val %d = %#x, want %#x", i, got, want)
		}
	}
}

func TestReaderOutOfBits(t *testing.T) {
	r := NewReader([]byte{0xFF})
	if _, err := r.ReadBits(8); err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	if _, err := r.ReadBit(); err != ErrOutOfBits {
		t.Fatalf("err = %v, want ErrOutOfBits", err)
	}
	if _, err := r.ReadBits(4); err != ErrOutOfBits {
		t.Fatalf("err = %v, want ErrOutOfBits", err)
	}
}

func TestReset(t *testing.T) {
	w := NewWriter(0)
	w.WriteBits(0xFFFF, 16)
	w.Reset()
	if w.Len() != 0 || w.nbit != 0 {
		t.Fatalf("Reset did not clear: len=%d bits=%d", w.Len(), w.nbit)
	}
	w.WriteBits(0x3, 2)
	if got := w.Bytes(); len(got) != 1 || got[0] != 0x3 {
		t.Fatalf("post-Reset bytes = %v", got)
	}
}

func TestWriteBitsPanicsOver32(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("WriteBits(…, 33) did not panic")
		}
	}()
	NewWriter(0).WriteBits(0, 33)
}

// Property: any sequence of variable-width writes reads back identically.
func TestQuickVariableWidthRoundTrip(t *testing.T) {
	f := func(vals []uint32, widthSeed int64) bool {
		rng := rand.New(rand.NewSource(widthSeed))
		widths := make([]uint, len(vals))
		w := NewWriter(0)
		for i, v := range vals {
			widths[i] = uint(rng.Intn(33))
			w.WriteBits(v, widths[i])
		}
		r := NewReader(w.Bytes())
		for i, v := range vals {
			got, err := r.ReadBits(widths[i])
			if err != nil {
				return false
			}
			want := v
			if widths[i] < 32 {
				want &= (1 << widths[i]) - 1
			}
			if got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
