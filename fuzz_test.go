package ceresz

import (
	"bytes"
	"errors"
	"io"
	"math"
	"strings"
	"testing"

	"ceresz/internal/core"
	"ceresz/internal/cszf/cszftest"
)

// Fuzz targets for the container-adjacent formats: bundles and framed
// streams must reject arbitrary bytes without panicking and round-trip
// valid inputs.

func FuzzOpenBundle(f *testing.F) {
	bw := NewBundleWriter()
	if _, err := bw.AddField("a", Dims1(64), testField(64, 1), ABS(1e-2), Options{}); err != nil {
		f.Fatal(err)
	}
	if _, err := bw.AddField("b", Dims2(8, 8), testField(64, 2), REL(1e-3), Options{}); err != nil {
		f.Fatal(err)
	}
	valid, err := bw.Bytes()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("CSZB"))
	mut := append([]byte(nil), valid...)
	mut[9] ^= 0xFF
	f.Add(mut)

	f.Fuzz(func(t *testing.T, b []byte) {
		br, err := OpenBundle(b)
		if err != nil {
			return
		}
		for _, name := range br.Names() {
			fields := br.Fields()
			_ = fields
			if data, field, err := br.ReadField(name); err == nil {
				if field.Dims.Len() != len(data) {
					t.Fatalf("field %q: dims say %d, decoded %d", name, field.Dims.Len(), len(data))
				}
			}
			_, _, _ = br.ReadField64(name)
		}
	})
}

// FuzzStreamFrames drives the hardened frame-decode path the server uses:
// arbitrary bytes through NextInto with decode limits set must never panic
// and never allocate proportionally to a hostile length field. Valid
// round-trip streams must keep decoding, and the frame walk must agree with
// every other reader of the layout (cszftest.Check).
func FuzzStreamFrames(f *testing.F) {
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf, ABS(1e-2), Options{Workers: 1})
	for seed := int64(1); seed <= 3; seed++ {
		if _, err := sw.WriteChunk(testField(257, seed)); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(buf.Bytes())
	var b64 bytes.Buffer
	sw64 := NewStreamWriter(&b64, REL(1e-3), Options{Workers: 1})
	data64 := make([]float64, 300)
	for i := range data64 {
		data64[i] = float64(i) * 0.25
	}
	if _, err := sw64.WriteChunk64(data64); err != nil {
		f.Fatal(err)
	}
	f.Add(b64.Bytes())
	f.Add([]byte{})
	f.Add([]byte("CSZF\xff\xff\xff\x7f")) // 2GB length, no body
	f.Add([]byte("CSZF\x10\x00\x00\x00CSZ1tooshort"))

	f.Fuzz(func(t *testing.T, b []byte) {
		cszftest.Check(t, b)
		sr := NewStreamReader(bytes.NewReader(b))
		sr.SetLimits(1<<20, 1<<18)
		var out []float32
		for i := 0; i < 32; i++ {
			var err error
			out, err = sr.NextInto(out[:0])
			if err != nil {
				if err != io.EOF && !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrFrameTooLarge) &&
					!errors.Is(err, core.ErrBadStream) && !strings.Contains(err.Error(), "ceresz:") {
					t.Fatalf("unexpected error type: %v", err)
				}
				return
			}
			if len(out) > 1<<18 {
				t.Fatalf("decoded %d elements past the configured cap", len(out))
			}
		}
	})
}

// FuzzBundle drives OpenBundleLimited with the server's decode caps over
// arbitrary bytes: no panics, typed rejections, and members that do open
// must honor their index metadata.
func FuzzBundle(f *testing.F) {
	bw := NewBundleWriter()
	if _, err := bw.AddField("temp", Dims2(16, 16), testField(256, 5), ABS(1e-3), Options{Workers: 1}); err != nil {
		f.Fatal(err)
	}
	d64 := make([]float64, 128)
	for i := range d64 {
		d64[i] = math.Sqrt(float64(i))
	}
	if _, err := bw.AddField64("pres", Dims1(128), d64, ABS(1e-6), Options{Workers: 1}); err != nil {
		f.Fatal(err)
	}
	valid, err := bw.Bytes()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	// Hostile field count with no index behind it.
	f.Add([]byte{'C', 'S', 'Z', 'B', 1, 0xFF, 0xFF, 0xFF})
	trunc := append([]byte(nil), valid[:len(valid)/2]...)
	f.Add(trunc)
	mut := append([]byte(nil), valid...)
	mut[12] ^= 0x80
	f.Add(mut)

	f.Fuzz(func(t *testing.T, b []byte) {
		br, err := OpenBundleLimited(b, 1<<20, 1<<18)
		if err != nil {
			return
		}
		for _, field := range br.Fields() {
			if field.CompressedBytes > 1<<20 {
				t.Fatalf("field %q passed validation with %d compressed bytes", field.Name, field.CompressedBytes)
			}
			if data, fi, err := br.ReadField(field.Name); err == nil {
				if fi.Dims.Len() != len(data) {
					t.Fatalf("field %q: dims say %d, decoded %d", field.Name, fi.Dims.Len(), len(data))
				}
			}
			if data, fi, err := br.ReadField64(field.Name); err == nil {
				if fi.Dims.Len() != len(data) {
					t.Fatalf("field %q: dims say %d, decoded %d", field.Name, fi.Dims.Len(), len(data))
				}
			}
		}
	})
}

func FuzzStreamReader(f *testing.F) {
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf, ABS(1e-2), Options{})
	if _, err := sw.WriteChunk(testField(500, 3)); err != nil {
		f.Fatal(err)
	}
	if _, err := sw.WriteChunk(testField(100, 4)); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte("CSZF\x00\x00\x00\x10short"))

	f.Fuzz(func(t *testing.T, b []byte) {
		sr := NewStreamReader(bytes.NewReader(b))
		for i := 0; i < 16; i++ {
			if _, err := sr.Next(); err != nil {
				if err == io.EOF {
					return
				}
				return // rejection is fine
			}
		}
	})
}
