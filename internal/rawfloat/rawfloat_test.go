package rawfloat

import (
	"bytes"
	"io"
	"math"
	"testing"
	"testing/iotest"
)

// The values a conversion could get wrong: quiet and signalling NaNs with
// payloads in either half of the mantissa, both zeros, subnormals, both
// infinities, the extremes, and bit patterns whose bytes are all
// different so a swapped or dropped byte shows.
var bits32 = []uint32{
	0x7fc00000, 0xffc00000, // quiet NaN, ±
	0x7fc00001, 0x7fffffff, // quiet NaN with payload
	0x7f800001, 0xff800001, // signalling NaN, smallest payload, ±
	0x7fa55aa5, 0x7fbfffff, // signalling NaN with payload
	0x00000000, 0x80000000, // ±0
	0x00000001, 0x807fffff, // subnormals
	0x7f800000, 0xff800000, // ±Inf
	0x00800000, 0x7f7fffff, // smallest normal, largest finite
	0x01020304, 0xf1e2d3c4, 0x3f800000,
}

var bits64 = []uint64{
	0x7ff8000000000000, 0xfff8000000000000,
	0x7ff8000000000001, 0x7fffffffffffffff,
	0x7ff0000000000001, 0xfff0000000000001,
	0x7ff5a5a5a5a5a5a5, 0x7ff7ffffffffffff,
	0x0000000000000000, 0x8000000000000000,
	0x0000000000000001, 0x800fffffffffffff,
	0x7ff0000000000000, 0xfff0000000000000,
	0x0010000000000000, 0x7fefffffffffffff,
	0x0102030405060708, 0xf1e2d3c4b5a69788, 0x3ff0000000000000,
}

func floats32() []float32 {
	f := make([]float32, len(bits32))
	for i, b := range bits32 {
		f[i] = math.Float32frombits(b)
	}
	return f
}

func floats64() []float64 {
	f := make([]float64, len(bits64))
	for i, b := range bits64 {
		f[i] = math.Float64frombits(b)
	}
	return f
}

// wantWire spells the format out from the bit patterns with shifts alone,
// so the expectation shares no code with either build's implementation.
func wantWire[B uint32 | uint64](bits []B, width int) []byte {
	out := make([]byte, 0, len(bits)*width)
	for _, b := range bits {
		for k := 0; k < width; k++ {
			out = append(out, byte(uint64(b)>>(8*k)))
		}
	}
	return out
}

// cuts are the sub-slices every check runs on: empty (nil and not),
// length 1, the whole table, and windows starting at odd element offsets
// — for float32 those start 4 bytes off an 8-byte boundary.
func cuts(n int) [][2]int {
	return [][2]int{{0, 0}, {0, 1}, {1, 2}, {0, n}, {1, n}, {3, n - 2}, {5, 6}, {n, n}}
}

func checkFloats[F Float](t *testing.T, all []F, wire []byte) {
	t.Helper()
	es := Size[F]()
	for _, c := range append(cuts(len(all)), [2]int{-1, -1}) {
		var f []F // the {-1,-1} cut: a nil slice
		var want []byte
		if c[0] >= 0 {
			f, want = all[c[0]:c[1]], wire[c[0]*es:c[1]*es]
		}

		// The element loops are the oracle for this build's Bytes/Append.
		ref := make([]byte, len(f)*es)
		encode(ref, f)
		if !bytes.Equal(ref, want) {
			t.Fatalf("cut %v: encode loop = %x, want %x", c, ref, want)
		}
		if got := Bytes(nil, f); !bytes.Equal(got, want) {
			t.Fatalf("cut %v: Bytes(nil) = %x, want %x", c, got, want)
		}
		scratch := make([]byte, 3, 64)
		if got := Bytes(scratch, f); !bytes.Equal(got, want) {
			t.Fatalf("cut %v: Bytes(scratch) = %x, want %x", c, got, want)
		}
		prefix := []byte{0xAA, 0xBB, 0xCC}
		got := Append(prefix, f)
		if !bytes.Equal(got[:3], prefix) || !bytes.Equal(got[3:], want) {
			t.Fatalf("cut %v: Append = %x, want %x after the prefix", c, got, want)
		}

		// And back: ReadFull must reproduce every bit, whatever sizes the
		// reader hands the bytes over in.
		for name, r := range map[string]io.Reader{
			"whole":    bytes.NewReader(want),
			"one-byte": iotest.OneByteReader(bytes.NewReader(want)),
			"data-err": iotest.DataErrReader(bytes.NewReader(want)),
		} {
			dst := make([]F, len(f))
			raw, err := ReadFull(r, dst, nil)
			if err != nil && !(len(f) == 0 && err == io.EOF) {
				t.Fatalf("cut %v %s: ReadFull: %v", c, name, err)
			}
			if !bytes.Equal(raw, want) {
				t.Fatalf("cut %v %s: ReadFull returned %x, want %x", c, name, raw, want)
			}
			back := make([]byte, len(dst)*es)
			encode(back, dst)
			if !bytes.Equal(back, want) {
				t.Fatalf("cut %v %s: ReadFull decoded to %x, want %x", c, name, back, want)
			}
		}
		back := make([]byte, len(f)*es)
		viaLoop, viaDecode := make([]F, len(f)), make([]F, len(f))
		decode(viaLoop, want)
		encode(back, viaLoop)
		if !bytes.Equal(back, want) {
			t.Fatalf("cut %v: decode loop round-trips to %x, want %x", c, back, want)
		}
		Decode(viaDecode, append(want[:len(want):len(want)], 0xEE)) // longer src is allowed
		encode(back, viaDecode)
		if !bytes.Equal(back, want) {
			t.Fatalf("cut %v: Decode round-trips to %x, want %x", c, back, want)
		}
	}
}

func TestWireImageBitExact(t *testing.T) {
	t.Run("float32", func(t *testing.T) { checkFloats(t, floats32(), wantWire(bits32, 4)) })
	t.Run("float64", func(t *testing.T) { checkFloats(t, floats64(), wantWire(bits64, 8)) })
}

// TestReadFullShort pins the io.ReadFull contract the server's chunk
// reader and the client's length check rely on: the bytes that arrived
// are returned with io.ErrUnexpectedEOF, whole elements among them are
// decoded, and the elements past them are left alone.
func TestReadFullShort(t *testing.T) {
	wire := wantWire(bits32, 4)
	for _, n := range []int{1, 3, 4, 6, 8, 11} {
		dst := make([]float32, 4)
		for i := range dst {
			dst[i] = -1
		}
		raw, err := ReadFull(bytes.NewReader(wire[:n]), dst, nil)
		if err != io.ErrUnexpectedEOF {
			t.Fatalf("%d of 16 bytes: err = %v, want io.ErrUnexpectedEOF", n, err)
		}
		if !bytes.Equal(raw, wire[:n]) {
			t.Fatalf("%d of 16 bytes: returned %x, want %x", n, raw, wire[:n])
		}
		whole := n / 4
		for i := 0; i < whole; i++ {
			if math.Float32bits(dst[i]) != bits32[i] {
				t.Fatalf("%d of 16 bytes: dst[%d] = %#x, want %#x", n, i, math.Float32bits(dst[i]), bits32[i])
			}
		}
		for i := whole + 1; i < len(dst); i++ {
			if dst[i] != -1 {
				t.Fatalf("%d of 16 bytes: dst[%d] was written", n, i)
			}
		}
	}
	if raw, err := ReadFull(bytes.NewReader(nil), make([]float64, 2), nil); err != io.EOF || len(raw) != 0 {
		t.Fatalf("empty source: %d bytes, err = %v, want 0, io.EOF", len(raw), err)
	}
}

// TestScratchReuse: handing a result back as the next scratch must cost no
// allocation in either build once the scratch is large enough — the
// idiom the server's per-chunk path is written in.
func TestScratchReuse(t *testing.T) {
	f := floats32()
	wire := wantWire(bits32, 4)
	dst := make([]float32, len(f))
	r := bytes.NewReader(wire)
	var out, in []byte
	run := func() {
		out = Bytes(out, f)
		r.Reset(wire)
		var err error
		if in, err = ReadFull(r, dst, in); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
		t.Fatalf("Bytes + ReadFull with reused scratch allocate %.1f times per run, want 0", allocs)
	}
	if !bytes.Equal(out, wire) || !bytes.Equal(in, wire) {
		t.Fatal("reused scratch changed the bytes")
	}
}
