package ceresz

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"runtime"
	"testing"
)

func TestStreamRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf, ABS(1e-3), Options{})
	var chunks [][]float32
	for c := 0; c < 5; c++ {
		chunk := testField(1000+c*37, int64(c))
		chunks = append(chunks, chunk)
		stats, err := sw.WriteChunk(chunk)
		if err != nil {
			t.Fatalf("chunk %d: %v", c, err)
		}
		if stats.Eps != 1e-3 {
			t.Fatalf("chunk %d: eps %g", c, stats.Eps)
		}
	}
	if sw.Chunks != 5 || sw.Ratio() <= 1 {
		t.Fatalf("writer stats: chunks=%d ratio=%.2f", sw.Chunks, sw.Ratio())
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := sw.WriteChunk(chunks[0]); err != ErrStreamClosed {
		t.Fatalf("write after close: %v", err)
	}

	sr := NewStreamReader(bytes.NewReader(buf.Bytes()))
	for c, want := range chunks {
		got, err := sr.Next()
		if err != nil {
			t.Fatalf("chunk %d: %v", c, err)
		}
		if len(got) != len(want) {
			t.Fatalf("chunk %d: %d elements, want %d", c, len(got), len(want))
		}
		for i := range want {
			if e := math.Abs(float64(got[i]) - float64(want[i])); e > 1e-3 {
				t.Fatalf("chunk %d elem %d: error %g", c, i, e)
			}
		}
	}
	if _, err := sr.Next(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestStreamRoundTrip64(t *testing.T) {
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf, ABS(1e-8), Options{})
	data := make([]float64, 2000)
	for i := range data {
		data[i] = math.Sin(float64(i) * 0.003)
	}
	if _, err := sw.WriteChunk64(data); err != nil {
		t.Fatal(err)
	}
	sr := NewStreamReader(bytes.NewReader(buf.Bytes()))
	got, err := sr.Next64()
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if e := math.Abs(got[i] - data[i]); e > 1e-8 {
			t.Fatalf("elem %d: error %g", i, e)
		}
	}
}

func TestStreamSkip(t *testing.T) {
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf, ABS(1e-2), Options{})
	for c := 0; c < 3; c++ {
		if _, err := sw.WriteChunk(testField(512, int64(c))); err != nil {
			t.Fatal(err)
		}
	}
	sr := NewStreamReader(bytes.NewReader(buf.Bytes()))
	// Skip two frames, decode the third.
	for i := 0; i < 2; i++ {
		meta, err := sr.Skip()
		if err != nil {
			t.Fatal(err)
		}
		if meta.Elements != 512 {
			t.Fatalf("skip %d: %d elements", i, meta.Elements)
		}
	}
	got, err := sr.Next()
	if err != nil {
		t.Fatal(err)
	}
	want := testField(512, 2)
	for i := range want {
		if e := math.Abs(float64(got[i]) - float64(want[i])); e > 1e-2 {
			t.Fatalf("random access decode wrong at %d", i)
		}
	}
}

func TestStreamCorruptFrames(t *testing.T) {
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf, ABS(1e-2), Options{})
	if _, err := sw.WriteChunk(testField(256, 1)); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// Bad magic.
	bad := append([]byte(nil), raw...)
	bad[0] = 'X'
	if _, err := NewStreamReader(bytes.NewReader(bad)).Next(); err == nil {
		t.Fatal("accepted bad frame magic")
	}
	// Truncated payload.
	if _, err := NewStreamReader(bytes.NewReader(raw[:len(raw)-5])).Next(); err == nil {
		t.Fatal("accepted truncated frame")
	}
	// Truncated header.
	if _, err := NewStreamReader(bytes.NewReader(raw[:4])).Next(); err == nil {
		t.Fatal("accepted truncated header")
	}
	// Empty stream is a clean EOF.
	if _, err := NewStreamReader(bytes.NewReader(nil)).Next(); err != io.EOF {
		t.Fatalf("empty stream: %v", err)
	}
}

func TestStreamRELPerChunk(t *testing.T) {
	// A REL bound resolves against each chunk's own range.
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf, REL(1e-2), Options{})
	small := make([]float32, 256)
	big := make([]float32, 256)
	for i := range small {
		small[i] = float32(i%16) * 0.01 // range ~0.15
		big[i] = float32(i%16) * 100    // range ~1500
	}
	s1, err := sw.WriteChunk(small)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := sw.WriteChunk(big)
	if err != nil {
		t.Fatal(err)
	}
	if !(s2.Eps > s1.Eps*100) {
		t.Fatalf("REL ε did not scale per chunk: %g vs %g", s1.Eps, s2.Eps)
	}
}

func TestPublicFloat64API(t *testing.T) {
	data := make([]float64, 5000)
	for i := range data {
		data[i] = math.Cos(float64(i)*0.01) * 42
	}
	comp, stats, err := Compress64(nil, data, REL(1e-6), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if e, err := ElemOf(comp); err != nil || e != Float64 {
		t.Fatalf("ElemOf = %v, %v", e, err)
	}
	rec, err := Decompress64(nil, comp)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if e := math.Abs(rec[i] - data[i]); e > stats.Eps {
			t.Fatalf("error %g > ε at %d", e, i)
		}
	}
	// Meta via Parse reports the element type.
	meta, err := Parse(comp)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Elem != Float64 {
		t.Fatalf("meta elem %v", meta.Elem)
	}
	if _, err := Decompress(nil, comp); err == nil {
		t.Fatal("f32 Decompress accepted f64 stream")
	}
	if _, _, err := Compress64WithEps(nil, data, -1, Options{}); err == nil {
		t.Fatal("accepted negative eps")
	}
}

func TestStreamWriterRatioEmpty(t *testing.T) {
	sw := NewStreamWriter(&bytes.Buffer{}, ABS(1e-3), Options{})
	if sw.Ratio() != 0 {
		t.Fatalf("empty stream ratio %g, want 0", sw.Ratio())
	}
}

func TestStreamWriterChunkErrors(t *testing.T) {
	sw := NewStreamWriter(&bytes.Buffer{}, ABS(0), Options{})
	if _, err := sw.WriteChunk(testField(64, 9)); err == nil {
		t.Fatal("accepted zero bound")
	}
	if _, err := sw.WriteChunk64([]float64{1, 2}); err == nil {
		t.Fatal("accepted zero bound (f64)")
	}
}

func TestStreamReaderTypedErrors(t *testing.T) {
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf, ABS(1e-3), Options{Workers: 1})
	if _, err := sw.WriteChunk(testField(500, 11)); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	// Truncated mid-payload.
	sr := NewStreamReader(bytes.NewReader(full[:len(full)-7]))
	if _, err := sr.Next(); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated payload: got %v, want ErrTruncated", err)
	}
	// Truncated mid-header.
	sr = NewStreamReader(bytes.NewReader(full[:5]))
	if _, err := sr.Next(); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated header: got %v, want ErrTruncated", err)
	}
	// Clean EOF stays io.EOF, not ErrTruncated.
	sr = NewStreamReader(bytes.NewReader(nil))
	if _, err := sr.Next(); err != io.EOF {
		t.Fatalf("empty source: got %v, want io.EOF", err)
	}

	// Frame-length cap: a hostile 2GB-1 length field must be rejected
	// without the reader allocating anything near that size.
	hostile := []byte{'C', 'S', 'Z', 'F', 0xFF, 0xFF, 0xFF, 0x7F}
	sr = NewStreamReader(bytes.NewReader(hostile))
	sr.SetLimits(1<<16, 0)
	var err error
	if n := allocatedBy(func() { _, err = sr.Next() }); n > 16<<10 {
		t.Fatalf("rejected frame still allocated %d bytes", n)
	}
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("hostile length: got %v, want ErrFrameTooLarge", err)
	}

	// A plausible length with no body behind it stops at ErrTruncated after
	// at most one bounded read step, even unlimited.
	hostileBody := []byte{'C', 'S', 'Z', 'F', 0xFF, 0xFF, 0xFF, 0x7F, 'x'}
	sr = NewStreamReader(bytes.NewReader(hostileBody))
	if n := allocatedBy(func() { _, err = sr.Next() }); n > 4<<20 {
		t.Fatalf("truncated 2GB claim allocated %d bytes", n)
	}
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("hostile length, tiny body: got %v, want ErrTruncated", err)
	}

	// Element cap applies before the decode sizes its output.
	sr = NewStreamReader(bytes.NewReader(full))
	sr.SetLimits(0, 10)
	if _, err := sr.Next(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("element cap: got %v, want ErrFrameTooLarge", err)
	}

	// Within limits the same stream still decodes.
	sr = NewStreamReader(bytes.NewReader(full))
	sr.SetLimits(1<<20, 1<<20)
	if _, err := sr.Next(); err != nil {
		t.Fatalf("within limits: %v", err)
	}
}

// allocatedBy is the heap bytes a call of f allocates.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func TestStreamReaderReset(t *testing.T) {
	var a, b bytes.Buffer
	for i, buf := range []*bytes.Buffer{&a, &b} {
		sw := NewStreamWriter(buf, ABS(1e-3), Options{Workers: 1})
		if _, err := sw.WriteChunk(testField(300, int64(20+i))); err != nil {
			t.Fatal(err)
		}
	}
	sr := NewStreamReader(bytes.NewReader(a.Bytes()))
	first, err := sr.Next()
	if err != nil {
		t.Fatal(err)
	}
	sr.Reset(bytes.NewReader(b.Bytes()))
	second, err := sr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 300 || len(second) != 300 {
		t.Fatalf("chunk lengths %d, %d", len(first), len(second))
	}
	if _, err := sr.Next(); err != io.EOF {
		t.Fatalf("after reset-consume: got %v, want io.EOF", err)
	}
}

func TestDecompressImplausibleElementCount(t *testing.T) {
	comp, _, err := Compress(nil, testField(64, 31), ABS(1e-3), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Inflate the header's element count far past what the body can hold:
	// the decoder must reject it before sizing the output.
	hostile := append([]byte(nil), comp...)
	binary.LittleEndian.PutUint64(hostile[8:16], 1<<40)
	if _, err := Decompress(nil, hostile); err == nil {
		t.Fatal("accepted element count the body cannot hold")
	}
}

// A writer per message must not grow a fresh compression buffer each time
// (some twenty allocations for a chunk of this size): Close hands the buffer
// to the next NewStreamWriter. sync.Pool may drop a Put (the race detector
// drops one in four), so the test asks for one reuse in twenty messages.
func TestStreamWriterPerMessageReusesBuffer(t *testing.T) {
	chunk := testField(1<<16, 3)
	for i := 0; i < 20; i++ {
		sw := NewStreamWriter(io.Discard, REL(1e-3), Options{})
		warm := cap(sw.buf) > 0
		if _, err := sw.WriteChunk(chunk); err != nil {
			t.Fatal(err)
		}
		if err := sw.Close(); err != nil {
			t.Fatal(err)
		}
		if sw.buf != nil {
			t.Fatal("Close kept the buffer it gave away")
		}
		if warm {
			return
		}
	}
	t.Fatal("no writer in twenty started with a predecessor's buffer")
}
