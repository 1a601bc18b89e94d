package cszf_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"strings"
	"testing"

	"ceresz/internal/core"
	"ceresz/internal/cszf"
	"ceresz/internal/cszf/cszftest"
	"ceresz/internal/quant"
)

// frames frames one container per chunk of data, chunk elements each.
func frames[F float32 | float64](t testing.TB, data []F, chunk int) []byte {
	t.Helper()
	var out []byte
	for at := 0; at < len(data); at += chunk {
		opts := core.Options{Bound: quant.ABS(1e-3)}
		start := len(out)
		out = cszf.AppendHeader(out, 0)
		var err error
		switch d := any(data[at:min(at+chunk, len(data))]).(type) {
		case []float32:
			out, _, err = core.Compress(out, d, opts)
		case []float64:
			out, _, err = core.Compress64(out, d, opts)
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := cszf.Seal(out[start:]); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func wave[F float32 | float64](n int) []F {
	out := make([]F, n)
	for i := range out {
		out[i] = F(math.Sin(float64(i) * 0.01))
	}
	return out
}

// FuzzWalkers holds every reader of framed bytes to the others
// (cszftest.Check) on seeds that reach each of their refusals.
func FuzzWalkers(f *testing.F) {
	f32 := frames(f, wave[float32](3000), 1024)
	f64 := frames(f, wave[float64](700), 512)
	implausible := bytes.Clone(f32[:cszf.HeaderSize+core.StreamHeaderSize+8])
	binary.LittleEndian.PutUint32(implausible[4:], core.StreamHeaderSize+8)
	for _, seed := range [][]byte{
		nil, f32, f64, append(bytes.Clone(f32), f64...), f32[:len(f32)-1], f32[:5], f32[:cszf.HeaderSize],
		implausible, []byte("CSZF\xff\xff\xff\x7f"), []byte("CSZF\xff\xff\xff\xffx"), []byte("CSZF\x00\x00\x00\x00"),
		[]byte("CSZF\x03\x00\x00\x00abc"), []byte("XXXX\x04\x00\x00\x00data"), []byte("not frames at all"),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, b []byte) { cszftest.Check(t, b) })
}

func TestFrameLayout(t *testing.T) {
	frame := cszf.AppendHeader([]byte("x"), 0)
	frame = append(frame, "payload"...)
	if err := cszf.Seal(frame[1:]); err != nil {
		t.Fatal(err)
	}
	if want := "xCSZF\x07\x00\x00\x00payload"; string(frame) != want {
		t.Fatalf("frame % x, want % x", frame, want)
	}
	if got := cszf.AppendHeader(nil, 7); !bytes.Equal(got, frame[1:1+cszf.HeaderSize]) {
		t.Fatalf("AppendHeader(nil, 7) = % x, want the sealed header % x", got, frame[1:1+cszf.HeaderSize])
	}
	p, rest, err := cszf.Cut(frame[1:], cszf.Limits{})
	if err != nil || string(p) != "payload" || len(rest) != 0 {
		t.Fatalf("Cut: %q, %q, %v", p, rest, err)
	}
}

func TestManifestRoundTrip(t *testing.T) {
	specs := []cszf.FieldSpec{
		{Name: "temp", Dims: [3]int{16, 16, 0}, Elem: "f32", Mode: "abs", Eps: 1e-3},
		{Name: "pres", Dims: [3]int{128}, Elem: "f64", Mode: "rel", Eps: 1e-6},
	}
	body, err := cszf.AppendManifest(nil, specs)
	if err != nil {
		t.Fatal(err)
	}
	body = append(body, "field data"...)
	r := bytes.NewReader(body)
	got, err := cszf.ReadManifest(r)
	if err != nil || !reflect.DeepEqual(got, specs) {
		t.Fatalf("ReadManifest = %+v, %v; want %+v", got, err, specs)
	}
	if r.Len() != len("field data") {
		t.Fatalf("ReadManifest left %d bytes, want the %d of the field data", r.Len(), len("field data"))
	}
	if g := got[0].Grid(); g.Nx != 16 || g.Ny != 16 || g.Nz != 1 {
		t.Fatalf("grid %+v, want 16×16×1", g)
	}

	if _, err := cszf.AppendManifest(nil, nil); err == nil {
		t.Fatal("AppendManifest wrote a manifest with no fields")
	}
	for name, tc := range map[string]struct {
		body []byte
		want string
	}{
		"short length": {[]byte{1, 2}, "reading manifest length"},
		"zero length":  {[]byte{0, 0, 0, 0}, "outside (0,"},
		"huge length":  {[]byte{1, 0, 0x10, 0}, "outside (0,"},
		"cut short":    {append([]byte{10, 0, 0, 0}, "[{}"...), "reading 10-byte manifest"},
		"not JSON":     {append([]byte{3, 0, 0, 0}, "abc"...), "decoding manifest"},
		"no fields":    {append([]byte{2, 0, 0, 0}, "[]"...), "no fields"},
	} {
		if _, err := cszf.ReadManifest(bytes.NewReader(tc.body)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one containing %q", name, err, tc.want)
		}
	}
}
