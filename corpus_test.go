package ceresz

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"ceresz/internal/formattest"
)

// TestFormatCorpus holds the public API to the known-answer corpus
// (internal/formattest): every matrix row through Compress/Compress64 and
// DecompressWith/Decompress64With, and the CSZF row through StreamWriter
// and StreamReader.
func TestFormatCorpus(t *testing.T) {
	for _, r := range formattest.Rows() {
		bound, opts := ABS(r.Bound), Options{BlockLen: r.BlockLen, SZpHeader: r.HeaderBytes == 1, Workers: r.Workers}
		if r.Rel {
			bound = REL(r.Bound)
		}
		var comp []byte
		var decoded string
		var err error
		if r.F64 {
			if comp, _, err = Compress64(nil, formattest.Data[float64](r), bound, opts); err == nil {
				var out []float64
				out, err = Decompress64With(nil, comp, opts)
				decoded = formattest.SumFloats(out)
			}
		} else {
			if comp, _, err = Compress(nil, formattest.Data[float32](r), bound, opts); err == nil {
				var out []float32
				out, err = DecompressWith(nil, comp, opts)
				decoded = formattest.SumFloats(out)
			}
		}
		if err != nil {
			t.Fatalf("%s: %v", r.Name, err)
		}
		if msg := r.Mismatch(comp, decoded); msg != "" {
			t.Error(msg)
		}
	}

	r := formattest.StreamRow()
	data := formattest.Data[float32](r)
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf, REL(r.Bound), Options{BlockLen: r.BlockLen, Workers: r.Workers})
	for lo := 0; lo < len(data); lo += formattest.StreamChunk {
		if _, err := sw.WriteChunk(data[lo:min(lo+formattest.StreamChunk, len(data))]); err != nil {
			t.Fatal(err)
		}
	}
	stream := bytes.Clone(buf.Bytes())
	sr := NewStreamReader(&buf)
	var out []float32
	for {
		frame, err := sr.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, frame...)
	}
	if msg := r.Mismatch(stream, formattest.SumFloats(out)); msg != "" {
		t.Error(msg)
	}
}
