package core

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ceresz/internal/flenc"
	"ceresz/internal/quant"
)

func smoothField(n int, seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	data := make([]float32, n)
	v := 0.0
	for i := range data {
		v += rng.NormFloat64() * 0.01
		data[i] = float32(math.Sin(float64(i)*0.01) + v)
	}
	return data
}

func maxAbsErr(a, b []float32) float64 {
	var m float64
	for i := range a {
		if e := math.Abs(float64(a[i]) - float64(b[i])); e > m {
			m = e
		}
	}
	return m
}

func TestRoundTripSmooth(t *testing.T) {
	data := smoothField(10000, 1)
	for _, bound := range []quant.Bound{quant.REL(1e-2), quant.REL(1e-3), quant.REL(1e-4), quant.ABS(1e-3), quant.ABS(math.Inf(1))} {
		comp, stats, err := Compress(nil, data, Options{Bound: bound})
		if bound.Mode == quant.Abs {
			// ABS skips the range pass: the stream, or the error, is
			// CompressWithEps's.
			want, _, wantErr := CompressWithEps(nil, data, bound.Value, Options{})
			if !bytes.Equal(comp, want) || !errors.Is(err, wantErr) {
				t.Fatalf("%v: Compress (err %v) differs from CompressWithEps (err %v)", bound, err, wantErr)
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
		dec, meta, err := Decompress(nil, comp, 0)
		if err != nil {
			t.Fatalf("%v: %v", bound, err)
		}
		if len(dec) != len(data) {
			t.Fatalf("%v: got %d elements, want %d", bound, len(dec), len(data))
		}
		if e := maxAbsErr(data, dec); e > stats.Eps*(1+1e-9) {
			t.Fatalf("%v: max error %g exceeds ε=%g", bound, e, stats.Eps)
		}
		if meta.Eps != stats.Eps {
			t.Fatalf("%v: meta ε %g != stats ε %g", bound, meta.Eps, stats.Eps)
		}
		if stats.Ratio() <= 1 {
			t.Fatalf("%v: ratio %.2f did not compress smooth data", bound, stats.Ratio())
		}
	}
}

func TestRoundTripNonMultipleLength(t *testing.T) {
	for _, n := range []int{0, 1, 7, 31, 32, 33, 100, 255} {
		data := smoothField(n, int64(n)+2)
		comp, stats, err := Compress(nil, data, Options{Bound: quant.ABS(1e-3)})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		dec, _, err := Decompress(nil, comp, 1)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(dec) != n {
			t.Fatalf("n=%d: got %d elements", n, len(dec))
		}
		if n > 0 {
			if e := maxAbsErr(data, dec); e > 1e-3*(1+1e-9) {
				t.Fatalf("n=%d: max error %g", n, e)
			}
		}
		wantBlocks := (n + DefaultBlockLen - 1) / DefaultBlockLen
		if stats.Blocks != wantBlocks {
			t.Fatalf("n=%d: blocks=%d want %d", n, stats.Blocks, wantBlocks)
		}
	}
}

func TestSequentialParallelIdentical(t *testing.T) {
	data := smoothField(64*1024+13, 3)
	seq, _, err := Compress(nil, data, Options{Bound: quant.REL(1e-3), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8, 64} {
		par, _, err := Compress(nil, data, Options{Bound: quant.REL(1e-3), Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !bytes.Equal(seq, par) {
			t.Fatalf("workers=%d: parallel output differs from sequential", workers)
		}
	}
	// Decompression likewise.
	d1, _, err := Decompress(nil, seq, 1)
	if err != nil {
		t.Fatal(err)
	}
	d8, _, err := Decompress(nil, seq, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range d1 {
		if d1[i] != d8[i] {
			t.Fatalf("parallel decompression differs at %d", i)
		}
	}
}

func TestZeroData(t *testing.T) {
	data := make([]float32, 4096)
	comp, stats, err := Compress(nil, data, Options{Bound: quant.ABS(1e-3)})
	if err != nil {
		t.Fatal(err)
	}
	if stats.ZeroBlocks != stats.Blocks {
		t.Fatalf("zero blocks %d != total blocks %d", stats.ZeroBlocks, stats.Blocks)
	}
	// 4096 floats = 16384 B → header 24 + 128 block headers · 4 B.
	want := StreamHeaderSize + stats.Blocks*flenc.HeaderU32
	if len(comp) != want {
		t.Fatalf("compressed size %d, want %d", len(comp), want)
	}
	// Ratio approaches the 32× cap as data grows.
	if r := stats.Ratio(); r < 30 {
		t.Fatalf("zero-data ratio %.2f, want ≥30", r)
	}
	dec, _, err := Decompress(nil, comp, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range dec {
		if v != 0 {
			t.Fatalf("dec[%d] = %g, want 0", i, v)
		}
	}
}

func TestVerbatimFallback(t *testing.T) {
	// Huge magnitudes at a tiny ABS bound overflow int32 quantization; the
	// compressor must fall back to verbatim blocks and reproduce exactly.
	data := make([]float32, 96)
	for i := range data {
		data[i] = float32(1e20 * (1 + float64(i)))
	}
	comp, stats, err := Compress(nil, data, Options{Bound: quant.ABS(1e-6)})
	if err != nil {
		t.Fatal(err)
	}
	if stats.VerbatimBlocks != stats.Blocks {
		t.Fatalf("verbatim blocks %d, want %d", stats.VerbatimBlocks, stats.Blocks)
	}
	dec, _, err := Decompress(nil, comp, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if dec[i] != data[i] {
			t.Fatalf("verbatim block not exact at %d: %g != %g", i, dec[i], data[i])
		}
	}
}

func TestVerbatimMixedWithNormal(t *testing.T) {
	data := smoothField(320, 4)
	for i := 64; i < 96; i++ {
		data[i] = float32(math.Inf(1)) // one fully unquantizable block
	}
	comp, stats, err := Compress(nil, data, Options{Bound: quant.ABS(1e-3)})
	if err != nil {
		t.Fatal(err)
	}
	if stats.VerbatimBlocks != 1 {
		t.Fatalf("verbatim blocks = %d, want 1", stats.VerbatimBlocks)
	}
	dec, _, err := Decompress(nil, comp, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 64; i < 96; i++ {
		if !math.IsInf(float64(dec[i]), 1) {
			t.Fatalf("verbatim Inf lost at %d: %g", i, dec[i])
		}
	}
	for i := 0; i < 64; i++ {
		if e := math.Abs(float64(dec[i]) - float64(data[i])); e > 1e-3*(1+1e-9) {
			t.Fatalf("normal block error %g at %d", e, i)
		}
	}
}

func TestHeaderU8Variant(t *testing.T) {
	data := smoothField(2048, 5)
	c32, s32, err := Compress(nil, data, Options{Bound: quant.REL(1e-3), HeaderBytes: flenc.HeaderU32})
	if err != nil {
		t.Fatal(err)
	}
	c8, s8, err := Compress(nil, data, Options{Bound: quant.REL(1e-3), HeaderBytes: flenc.HeaderU8})
	if err != nil {
		t.Fatal(err)
	}
	// The u8-header stream must be exactly 3 bytes per block smaller.
	if len(c32)-len(c8) != 3*s32.Blocks {
		t.Fatalf("size delta %d, want %d", len(c32)-len(c8), 3*s32.Blocks)
	}
	if s8.Ratio() <= s32.Ratio() {
		t.Fatalf("u8 ratio %.3f not better than u32 ratio %.3f", s8.Ratio(), s32.Ratio())
	}
	d32, _, err := Decompress(nil, c32, 0)
	if err != nil {
		t.Fatal(err)
	}
	d8, _, err := Decompress(nil, c8, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range d32 {
		if d32[i] != d8[i] {
			t.Fatalf("reconstructions differ at %d (same ε, same algorithm)", i)
		}
	}
}

func TestCompressAppendsToDst(t *testing.T) {
	prefix := []byte{1, 2, 3}
	data := smoothField(64, 6)
	out, _, err := Compress(append([]byte(nil), prefix...), data, Options{Bound: quant.ABS(1e-2)})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out[:3], prefix) {
		t.Fatal("Compress clobbered dst prefix")
	}
	if _, _, err := Decompress(nil, out[3:], 0); err != nil {
		t.Fatal(err)
	}
}

func TestOptionValidation(t *testing.T) {
	data := smoothField(32, 7)
	if _, _, err := Compress(nil, data, Options{Bound: quant.ABS(1e-3), BlockLen: 12}); err == nil {
		t.Fatal("accepted block length 12")
	}
	if _, _, err := Compress(nil, data, Options{Bound: quant.ABS(1e-3), HeaderBytes: 2}); err == nil {
		t.Fatal("accepted header size 2")
	}
	if _, _, err := Compress(nil, data, Options{Bound: quant.ABS(0)}); err == nil {
		t.Fatal("accepted ε=0")
	}
	if _, _, err := CompressWithEps(nil, data, -1, Options{}); err == nil {
		t.Fatal("accepted negative ε")
	}
}

func TestParseHeaderErrors(t *testing.T) {
	data := smoothField(64, 8)
	comp, _, err := Compress(nil, data, Options{Bound: quant.ABS(1e-3)})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]func([]byte) []byte{
		"short":      func(b []byte) []byte { return b[:10] },
		"bad magic":  func(b []byte) []byte { c := clone(b); c[0] = 'X'; return c },
		"bad header": func(b []byte) []byte { c := clone(b); c[4] = 2; return c },
		"bad dtype":  func(b []byte) []byte { c := clone(b); c[5] = 1; return c },
		"bad block":  func(b []byte) []byte { c := clone(b); c[6], c[7] = 3, 0; return c },
		"bad eps": func(b []byte) []byte {
			c := clone(b)
			for i := 16; i < 24; i++ {
				c[i] = 0
			}
			return c
		},
	}
	for name, mut := range cases {
		if _, _, err := Decompress(nil, mut(comp), 0); err == nil {
			t.Fatalf("%s: Decompress accepted corrupt stream", name)
		}
	}
}

func TestTruncatedBody(t *testing.T) {
	data := smoothField(4096, 9)
	comp, _, err := Compress(nil, data, Options{Bound: quant.REL(1e-3)})
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{StreamHeaderSize, StreamHeaderSize + 1, len(comp) - 1, len(comp) - 5} {
		if _, _, err := Decompress(nil, comp[:cut], 0); err == nil {
			t.Fatalf("cut=%d: accepted truncated stream", cut)
		}
	}
}

func TestStatsConsistency(t *testing.T) {
	data := smoothField(10240, 10)
	comp, stats, err := Compress(nil, data, Options{Bound: quant.REL(1e-3)})
	if err != nil {
		t.Fatal(err)
	}
	if stats.CompressedBytes != len(comp) {
		t.Fatalf("stats bytes %d != len %d", stats.CompressedBytes, len(comp))
	}
	var blocks int
	for _, c := range stats.WidthHistogram {
		blocks += c
	}
	blocks += stats.VerbatimBlocks
	if blocks != stats.Blocks {
		t.Fatalf("histogram accounts for %d blocks, want %d", blocks, stats.Blocks)
	}
	if stats.WidthHistogram[0] != stats.ZeroBlocks {
		t.Fatalf("WidthHistogram[0]=%d != ZeroBlocks=%d", stats.WidthHistogram[0], stats.ZeroBlocks)
	}
	if mw := stats.MeanWidth(); mw <= 0 || mw > 32 {
		t.Fatalf("MeanWidth = %g out of range", mw)
	}
}

func TestEmptyInput(t *testing.T) {
	comp, stats, err := Compress(nil, nil, Options{Bound: quant.ABS(1)})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Blocks != 0 || len(comp) != StreamHeaderSize {
		t.Fatalf("empty input: blocks=%d size=%d", stats.Blocks, len(comp))
	}
	dec, _, err := Decompress(nil, comp, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != 0 {
		t.Fatalf("empty decompress returned %d elements", len(dec))
	}
}

// Property: for random finite data the error bound always holds and the
// stream round-trips through both the parallel and sequential paths.
func TestQuickErrorBoundHolds(t *testing.T) {
	f := func(raw []uint32, relExp uint8) bool {
		data := make([]float32, len(raw))
		for i, r := range raw {
			v := math.Float32frombits(r)
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				v = 0
			}
			// Keep magnitudes sane so the quantizable path is exercised.
			if math.Abs(float64(v)) > 1e6 {
				v = float32(math.Mod(float64(v), 1e6))
			}
			data[i] = v
		}
		bound := quant.REL(math.Pow(10, -float64(2+relExp%3)))
		comp, stats, err := Compress(nil, data, Options{Bound: bound})
		if err != nil {
			return false
		}
		dec, _, err := Decompress(nil, comp, 0)
		if err != nil {
			return false
		}
		if len(dec) != len(data) {
			return false
		}
		for i := range data {
			if math.Abs(float64(dec[i])-float64(data[i])) > stats.Eps*(1+1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func clone(b []byte) []byte { return append([]byte(nil), b...) }

func TestStrictFloat32Bound(t *testing.T) {
	// ε just above half the float32 ulp of the values: p·2ε can land past
	// the rounding midpoint so the float32 reconstruction snaps to the next
	// representable value, ~2ε away from the input. The compressor must
	// detect this and go verbatim, keeping the stream exactly error-bounded.
	// (23207.875 / (2·1e-3) = 11603937.5 rounds up; ulp here is ~0.00195.)
	data := make([]float32, 128)
	for i := range data {
		data[i] = 23207.875 + float32(i)*0.001953125
	}
	eps := 1e-3
	comp, stats, err := CompressWithEps(nil, data, eps, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.VerbatimBlocks == 0 {
		t.Fatal("expected verbatim fallback for sub-ulp ε")
	}
	dec, _, err := Decompress(nil, comp, 0)
	if err != nil {
		t.Fatal(err)
	}
	if e := maxAbsErr(data, dec); e > eps {
		t.Fatalf("strict bound violated: %g > %g", e, eps)
	}
}
