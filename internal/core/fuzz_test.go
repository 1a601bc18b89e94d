package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"ceresz/internal/flenc"
	"ceresz/internal/kerneltest"
	"ceresz/internal/quant"
)

// Fuzz targets: the decoders must never panic or read out of bounds on
// adversarial streams, and valid streams must round-trip. Run with
// `go test -fuzz=FuzzDecompress ./internal/core` for a real campaign; the
// seed corpus executes in every ordinary test run.

func FuzzDecompress(f *testing.F) {
	// Seed with valid streams of both header widths and with mutations.
	mk := func(n int, hdr int) []byte {
		data := make([]float32, n)
		for i := range data {
			data[i] = float32(math.Sin(float64(i) * 0.1))
		}
		comp, _, err := CompressWithEps(nil, data, 1e-3, Options{HeaderBytes: hdr, Workers: 1})
		if err != nil {
			f.Fatal(err)
		}
		return comp
	}
	f.Add(mk(100, 4))
	f.Add(mk(100, 1))
	f.Add(mk(0, 4))
	f.Add([]byte{})
	f.Add([]byte("CSZ1garbagegarbagegarbage"))
	corrupt := mk(64, 4)
	corrupt[StreamHeaderSize] = 0xFE
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, comp []byte) {
		out, m, err := Decompress(nil, comp, 1)
		if err != nil {
			return // rejection is fine; panics are not
		}
		if len(out) != m.Elements {
			t.Fatalf("decoded %d elements, header says %d", len(out), m.Elements)
		}
	})
}

func FuzzDecompress64(f *testing.F) {
	data := make([]float64, 96)
	for i := range data {
		data[i] = math.Cos(float64(i) * 0.05)
	}
	comp, _, err := Compress64WithEps(nil, data, 1e-9, Options{Workers: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(comp)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, comp []byte) {
		out, m, err := Decompress64(nil, comp, 1)
		if err != nil {
			return
		}
		if len(out) != m.Elements {
			t.Fatalf("decoded %d elements, header says %d", len(out), m.Elements)
		}
	})
}

// FuzzHostKernels is the differential target for the word-parallel host
// kernels: across random data, block lengths, header widths and partial
// trailing blocks, the fused SWAR compressor must emit bytes identical to
// the stage chain's, and the fused decoder must reproduce the chain's
// decode bit for bit, on every kernel set.
func FuzzHostKernels(f *testing.F) {
	f.Add([]byte{0, 0, 128, 63, 0, 0, 0, 64, 1, 2, 3, 4}, uint8(0), false, uint8(3))
	f.Add(make([]byte, 400), uint8(3), true, uint8(2))
	f.Add([]byte{0xff, 0xff, 0x7f, 0x7f, 0, 0, 0x80, 0xff}, uint8(11), false, uint8(0))
	// Zero-prescan boundary shapes for ε = 1e-3 and ε = 1: L = 32 with a
	// padded trailing block, and L = 8 so every lane position occurs.
	f.Add(prescanSeed32(1e-3, 150), uint8(3), false, uint8(3))
	f.Add(prescanSeed32(1, 61), uint8(0), true, uint8(0))
	f.Fuzz(func(t *testing.T, raw []byte, blockSel uint8, szpHeader bool, epsExp uint8) {
		kerneltest.Each(t, kernelSets, func(t *testing.T) { checkHostKernels32(t, raw, blockSel, szpHeader, epsExp) })
	})
}

func checkHostKernels32(t *testing.T, raw []byte, blockSel uint8, szpHeader bool, epsExp uint8) {
	n := len(raw) / 4
	data := make([]float32, n)
	for i := 0; i < n; i++ {
		bits := uint32(raw[4*i]) | uint32(raw[4*i+1])<<8 | uint32(raw[4*i+2])<<16 | uint32(raw[4*i+3])<<24
		data[i] = math.Float32frombits(bits)
	}
	opts := Options{
		BlockLen: 8 * (1 + int(blockSel)%12),
		Workers:  1,
	}
	if szpHeader {
		opts.HeaderBytes = flenc.HeaderU8
	} else {
		opts.HeaderBytes = flenc.HeaderU32
	}
	eps := math.Pow(10, -float64(epsExp%7))
	comp, _, err := CompressWithEps(nil, data, eps, opts)
	if err != nil {
		t.Fatalf("compress: %v", err)
	}
	ref, err := compressRef(data, eps, opts)
	if err != nil {
		t.Fatalf("compressRef: %v", err)
	}
	if !bytes.Equal(comp, ref) {
		t.Fatalf("fused stream differs from the chain (n=%d L=%d hdr=%d eps=%g)\n got %x\nwant %x",
			n, opts.BlockLen, opts.HeaderBytes, eps, comp, ref)
	}
	out, _, err := Decompress(nil, comp, 1)
	if err != nil {
		t.Fatalf("decompress: %v", err)
	}
	refOut, err := decompressRef[float32](comp)
	if err != nil {
		t.Fatalf("decompressRef: %v", err)
	}
	for i := range out {
		if math.Float32bits(out[i]) != math.Float32bits(refOut[i]) {
			t.Fatalf("fused decode differs from reference at %d: %x vs %x",
				i, math.Float32bits(out[i]), math.Float32bits(refOut[i]))
		}
	}
}

// FuzzHostKernels64 is the float64 differential twin.
func FuzzHostKernels64(f *testing.F) {
	f.Add(make([]byte, 256), uint8(0))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, uint8(5))
	f.Add(prescanSeed64(1e-6, 150), uint8(3))
	f.Add(prescanSeed64(1e-6, 61), uint8(0))
	f.Fuzz(func(t *testing.T, raw []byte, blockSel uint8) {
		kerneltest.Each(t, kernelSets, func(t *testing.T) { checkHostKernels64(t, raw, blockSel) })
	})
}

func checkHostKernels64(t *testing.T, raw []byte, blockSel uint8) {
	n := len(raw) / 8
	data := make([]float64, n)
	for i := 0; i < n; i++ {
		data[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	opts := Options{BlockLen: 8 * (1 + int(blockSel)%12), Workers: 1}.withDefaults()
	const eps = 1e-6
	comp, _, err := Compress64WithEps(nil, data, eps, opts)
	if err != nil {
		t.Fatalf("compress64: %v", err)
	}
	L := opts.BlockLen
	ref, err := compressRef(data, eps, opts)
	if err != nil {
		t.Fatalf("reference compress64: %v", err)
	}
	if !bytes.Equal(comp, ref) {
		t.Fatalf("fused float64 stream differs from the chain (n=%d L=%d)", n, L)
	}
	out, _, err := Decompress64(nil, comp, 1)
	if err != nil {
		t.Fatalf("decompress64: %v", err)
	}
	refOut, err := decompressRef[float64](comp)
	if err != nil {
		t.Fatalf("decompressRef: %v", err)
	}
	if len(out) != n || !sameBits(out, refOut) {
		t.Fatalf("fused float64 decode differs from reference (n=%d L=%d)", n, L)
	}
}

// FuzzParallelHostCodec is the differential target for the block-parallel
// execution layer: across random data, error bounds, block lengths, header
// widths and worker counts, the sharded compressor must emit bytes
// identical to the sequential path (workers are a pure execution knob, not
// a format knob), the parallel decoder must reproduce the sequential
// decode bit for bit, and the round trip must honor the bound.
func FuzzParallelHostCodec(f *testing.F) {
	f.Add(make([]byte, 600), uint8(0), false, uint8(3), uint8(4))
	f.Add([]byte{0, 0, 128, 63, 0, 0, 0, 64, 1, 2, 3, 4}, uint8(2), true, uint8(1), uint8(2))
	f.Add([]byte{0xff, 0xff, 0x7f, 0x7f, 0, 0, 0x80, 0xff}, uint8(11), false, uint8(0), uint8(9))
	f.Add(prescanSeed32(1e-3, 150), uint8(3), false, uint8(3), uint8(1))
	f.Add(prescanSeed32(1, 61), uint8(0), true, uint8(0), uint8(5))
	f.Fuzz(func(t *testing.T, raw []byte, blockSel uint8, szpHeader bool, epsExp uint8, workerSel uint8) {
		n := len(raw) / 4
		data := make([]float32, n)
		for i := 0; i < n; i++ {
			data[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		opts := Options{BlockLen: 8 * (1 + int(blockSel)%12), Workers: 1}
		if szpHeader {
			opts.HeaderBytes = flenc.HeaderU8
		} else {
			opts.HeaderBytes = flenc.HeaderU32
		}
		eps := math.Pow(10, -float64(epsExp%7))
		seq, stats, err := CompressWithEps(nil, data, eps, opts)
		if err != nil {
			t.Fatalf("sequential compress: %v", err)
		}
		// 2..17 workers, independent of the host's core count: shard counts
		// above GOMAXPROCS still run (the pool caps concurrency, not
		// shards), so the stitch path is exercised even on one CPU.
		opts.Workers = 2 + int(workerSel)%16
		par, parStats, err := CompressWithEps(nil, data, eps, opts)
		if err != nil {
			t.Fatalf("parallel compress (workers=%d): %v", opts.Workers, err)
		}
		if !bytes.Equal(par, seq) {
			t.Fatalf("parallel stream differs from sequential (n=%d L=%d workers=%d eps=%g)",
				n, opts.BlockLen, opts.Workers, eps)
		}
		if parStats.ZeroBlocks != stats.ZeroBlocks || parStats.VerbatimBlocks != stats.VerbatimBlocks ||
			parStats.WidthHistogram != stats.WidthHistogram {
			t.Fatalf("parallel stats differ from sequential: %+v vs %+v", parStats, stats)
		}
		seqOut, _, err := Decompress(nil, seq, 1)
		if err != nil {
			t.Fatalf("sequential decompress: %v", err)
		}
		parOut, _, err := Decompress(nil, seq, opts.Workers)
		if err != nil {
			t.Fatalf("parallel decompress (workers=%d): %v", opts.Workers, err)
		}
		for i := range seqOut {
			if math.Float32bits(parOut[i]) != math.Float32bits(seqOut[i]) {
				t.Fatalf("parallel decode differs from sequential at %d: %x vs %x",
					i, math.Float32bits(parOut[i]), math.Float32bits(seqOut[i]))
			}
		}
		for i := range data {
			o, r := float64(data[i]), float64(parOut[i])
			if math.IsNaN(o) || math.IsInf(o, 0) {
				if math.Float32bits(data[i]) != math.Float32bits(parOut[i]) {
					t.Fatalf("non-finite value not preserved at %d", i)
				}
				continue
			}
			if math.Abs(r-o) > stats.Eps {
				t.Fatalf("bound violated at %d: |%g − %g| > %g", i, r, o, stats.Eps)
			}
		}
	})
}

// FuzzRoundTrip feeds arbitrary bytes reinterpreted as float32s through a
// full compress/decompress cycle and checks the error bound.
func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte{0, 0, 128, 63, 0, 0, 0, 64}, uint8(3))
	f.Add(make([]byte, 400), uint8(2))
	f.Fuzz(func(t *testing.T, raw []byte, epsExp uint8) {
		n := len(raw) / 4
		data := make([]float32, n)
		for i := 0; i < n; i++ {
			bits := uint32(raw[4*i]) | uint32(raw[4*i+1])<<8 | uint32(raw[4*i+2])<<16 | uint32(raw[4*i+3])<<24
			data[i] = math.Float32frombits(bits)
		}
		eps := math.Pow(10, -float64(2+epsExp%5))
		comp, stats, err := CompressWithEps(nil, data, eps, Options{Workers: 1})
		if err != nil {
			if err == quant.ErrNonPositiveBound {
				return
			}
			t.Fatalf("compress: %v", err)
		}
		out, _, err := Decompress(nil, comp, 1)
		if err != nil {
			t.Fatalf("decompress valid stream: %v", err)
		}
		if len(out) != n {
			t.Fatalf("%d elements out, %d in", len(out), n)
		}
		for i := range data {
			o, r := float64(data[i]), float64(out[i])
			if math.IsNaN(o) || math.IsInf(o, 0) {
				// Verbatim path must preserve bit patterns.
				if math.Float32bits(data[i]) != math.Float32bits(out[i]) {
					t.Fatalf("non-finite value not preserved at %d", i)
				}
				continue
			}
			if math.Abs(r-o) > stats.Eps {
				t.Fatalf("bound violated at %d: |%g − %g| > %g", i, r, o, stats.Eps)
			}
		}
	})
}
