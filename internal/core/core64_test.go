package core

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ceresz/internal/quant"
)

func smoothField64(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	data := make([]float64, n)
	v := 0.0
	for i := range data {
		v += rng.NormFloat64() * 0.01
		data[i] = math.Sin(float64(i)*0.01) + v
	}
	return data
}

func maxAbsErr64(a, b []float64) float64 {
	var m float64
	for i := range a {
		if e := math.Abs(a[i] - b[i]); e > m {
			m = e
		}
	}
	return m
}

func TestRoundTrip64(t *testing.T) {
	data := smoothField64(10_000, 1)
	for _, bound := range []quant.Bound{quant.REL(1e-3), quant.REL(1e-6), quant.ABS(1e-4), quant.ABS(math.Inf(1))} {
		comp, stats, err := Compress64(nil, data, Options{Bound: bound})
		if bound.Mode == quant.Abs {
			// ABS skips the range pass: the stream, or the error, is
			// Compress64WithEps's.
			want, _, wantErr := Compress64WithEps(nil, data, bound.Value, Options{})
			if !bytes.Equal(comp, want) || !errors.Is(err, wantErr) {
				t.Fatalf("%v: Compress64 (err %v) differs from Compress64WithEps (err %v)", bound, err, wantErr)
			}
		}
		if math.IsInf(bound.Value, 0) {
			if err == nil {
				t.Fatalf("%v: accepted", bound)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%v: %v", bound, err)
		}
		dec, meta, err := Decompress64(nil, comp, 0)
		if err != nil {
			t.Fatalf("%v: %v", bound, err)
		}
		if len(dec) != len(data) {
			t.Fatalf("%v: %d elements", bound, len(dec))
		}
		if e := maxAbsErr64(data, dec); e > stats.Eps {
			t.Fatalf("%v: max error %g > ε %g", bound, e, stats.Eps)
		}
		if meta.Eps != stats.Eps {
			t.Fatalf("%v: eps mismatch", bound)
		}
		// Ratio accounting for f64: 8 bytes/element.
		if r := float64(8*len(data)) / float64(len(comp)); r <= 1 {
			t.Fatalf("%v: f64 ratio %.2f", bound, r)
		}
	}
}

func TestRoundTrip64TighterThanF32(t *testing.T) {
	// Double precision admits bounds far below float32's ulp — the whole
	// point of the f64 path. ε = 1e-9 on O(1) values would force the f32
	// path verbatim; the f64 path compresses.
	data := smoothField64(4096, 2)
	comp, stats, err := Compress64WithEps(nil, data, 1e-9, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.VerbatimBlocks != 0 {
		t.Fatalf("f64 path fell back to verbatim at ε=1e-9: %d blocks", stats.VerbatimBlocks)
	}
	dec, _, err := Decompress64(nil, comp, 0)
	if err != nil {
		t.Fatal(err)
	}
	if e := maxAbsErr64(data, dec); e > 1e-9 {
		t.Fatalf("max error %g > 1e-9", e)
	}
}

func TestElemTypeMismatchRejected(t *testing.T) {
	d32 := make([]float32, 64)
	d64 := smoothField64(64, 3)
	c32, _, err := CompressWithEps(nil, d32, 1e-3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c64, _, err := Compress64WithEps(nil, d64, 1e-3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Decompress(nil, c64, 0); err == nil {
		t.Fatal("f32 decoder accepted an f64 stream")
	}
	if _, _, err := Decompress64(nil, c32, 0); err == nil {
		t.Fatal("f64 decoder accepted an f32 stream")
	}
	e32, err := ElemOf(c32)
	if err != nil || e32 != Float32 {
		t.Fatalf("ElemOf(c32) = %v, %v", e32, err)
	}
	e64, err := ElemOf(c64)
	if err != nil || e64 != Float64 {
		t.Fatalf("ElemOf(c64) = %v, %v", e64, err)
	}
	if _, err := ElemOf(nil); err == nil {
		t.Fatal("ElemOf accepted empty stream")
	}
	if Float32.Size() != 4 || Float64.Size() != 8 {
		t.Fatal("Elem.Size wrong")
	}
}

func TestVerbatim64(t *testing.T) {
	data := make([]float64, 64)
	for i := range data {
		data[i] = 1e200 * float64(1+i) // overflows int32 quantization
	}
	comp, stats, err := Compress64WithEps(nil, data, 1e-6, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.VerbatimBlocks != stats.Blocks {
		t.Fatalf("verbatim %d of %d", stats.VerbatimBlocks, stats.Blocks)
	}
	dec, _, err := Decompress64(nil, comp, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if dec[i] != data[i] {
			t.Fatalf("verbatim f64 not exact at %d", i)
		}
	}
}

func TestSequentialParallelIdentical64(t *testing.T) {
	data := smoothField64(32*1024+9, 4)
	seq, _, err := Compress64WithEps(nil, data, 1e-4, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, _, err := Compress64WithEps(nil, data, 1e-4, Options{Workers: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seq, par) {
		t.Fatal("parallel f64 output differs from sequential")
	}
}

func TestTruncated64(t *testing.T) {
	data := smoothField64(640, 5)
	comp, _, err := Compress64WithEps(nil, data, 1e-4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{10, StreamHeaderSize, len(comp) - 3} {
		if _, _, err := Decompress64(nil, comp[:cut], 0); err == nil {
			t.Fatalf("accepted truncation at %d", cut)
		}
	}
}

func TestQuick64ErrorBound(t *testing.T) {
	f := func(raw []int64, epsExp uint8) bool {
		data := make([]float64, len(raw))
		for i, r := range raw {
			data[i] = float64(r%1_000_000) / 1000
		}
		eps := math.Pow(10, -float64(3+epsExp%6)) // 1e-3 … 1e-8
		comp, _, err := Compress64WithEps(nil, data, eps, Options{})
		if err != nil {
			return false
		}
		dec, _, err := Decompress64(nil, comp, 0)
		if err != nil {
			return false
		}
		for i := range data {
			if math.Abs(dec[i]-data[i]) > eps {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
