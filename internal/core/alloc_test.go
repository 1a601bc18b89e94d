package core

import (
	"bytes"
	"math"
	"runtime"
	"testing"

	"ceresz/internal/quant"
)

// Steady-state allocation contracts: once the destination buffers have
// capacity and the worker pools are warm, sequential Compress/Decompress
// must not touch the heap at all. testing.AllocsPerRun runs with
// GOMAXPROCS=1, and Workers: 1 pins the sequential path explicitly.
// Race-detector instrumentation allocates, so the contracts are only
// checked without it.

func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("race instrumentation allocates; zero-alloc contract checked without -race")
	}
}

func allocTestData(n int) []float32 {
	data := make([]float32, n)
	for i := range data {
		data[i] = float32(math.Sin(float64(i)*0.03)) * 40
	}
	return data
}

func TestCompressZeroAllocSteadyState(t *testing.T) {
	skipUnderRace(t)
	data := allocTestData(4100) // includes a partial trailing block
	opts := Options{Workers: 1, Bound: quant.REL(1e-3)}
	var stats Stats
	var dst []byte
	var err error
	// Warm-up: size dst and populate the encoder pool.
	dst, err = CompressInto(dst, data, opts, &stats)
	if err != nil {
		t.Fatal(err)
	}
	if !(stats.Eps > 0) {
		t.Fatal("warm-up produced no usable stats")
	}
	allocs := testing.AllocsPerRun(20, func() {
		dst, err = CompressInto(dst[:0], data, opts, &stats)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state CompressInto allocates %.1f times per run, want 0", allocs)
	}
}

// TestCompressZeroAllocWorkersZero pins the Workers: 0 contract: the zero
// value means sequential (not GOMAXPROCS), so the default-options path
// stays on the zero-allocation track.
func TestCompressZeroAllocWorkersZero(t *testing.T) {
	skipUnderRace(t)
	data := allocTestData(4100)
	opts := Options{Bound: quant.REL(1e-3)} // Workers: 0 — must stay sequential
	var stats Stats
	dst, err := CompressInto(nil, data, opts, &stats)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		dst, err = CompressInto(dst[:0], data, opts, &stats)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state CompressInto with Workers: 0 allocates %.1f times per run, want 0", allocs)
	}
	out, _, err := Decompress(nil, dst, 0)
	if err != nil {
		t.Fatal(err)
	}
	allocs = testing.AllocsPerRun(20, func() {
		out, _, err = Decompress(out[:0], dst, 0)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Decompress with workers 0 allocates %.1f times per run, want 0", allocs)
	}
}

func TestCompressWithEpsZeroAllocSteadyState(t *testing.T) {
	skipUnderRace(t)
	data := allocTestData(4096)
	opts := Options{Workers: 1, HeaderBytes: 1}
	var stats Stats
	dst, err := CompressWithEpsInto(nil, data, 1e-3, opts, &stats)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		dst, err = CompressWithEpsInto(dst[:0], data, 1e-3, opts, &stats)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state CompressWithEpsInto allocates %.1f times per run, want 0", allocs)
	}
}

func TestDecompressZeroAllocSteadyState(t *testing.T) {
	skipUnderRace(t)
	data := allocTestData(4100)
	var stats Stats
	comp, err := CompressInto(nil, data, Options{Workers: 1, Bound: quant.REL(1e-3)}, &stats)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := Decompress(nil, comp, 1)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		out, _, err = Decompress(out[:0], comp, 1)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Decompress allocates %.1f times per run, want 0", allocs)
	}
}

func TestCompress64ZeroAllocSteadyState(t *testing.T) {
	skipUnderRace(t)
	data := make([]float64, 4100)
	for i := range data {
		data[i] = math.Cos(float64(i) * 0.01)
	}
	opts := Options{Workers: 1, Bound: quant.ABS(1e-6)}
	var stats Stats
	dst, err := Compress64Into(nil, data, opts, &stats)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		dst, err = Compress64Into(dst[:0], data, opts, &stats)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Compress64Into allocates %.1f times per run, want 0", allocs)
	}
	out, _, err := Decompress64(nil, dst, 1)
	if err != nil {
		t.Fatal(err)
	}
	allocs = testing.AllocsPerRun(20, func() {
		out, _, err = Decompress64(out[:0], dst, 1)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Decompress64 allocates %.1f times per run, want 0", allocs)
	}
}

// TestWorkersSelfLimitOnOneProcessor pins the single-processor rule: with
// GOMAXPROCS == 1 a Workers request above 1 takes the sequential path —
// same bytes, and no shard tables or stitch buffers allocated — for both
// element types and both directions.
func TestWorkersSelfLimitOnOneProcessor(t *testing.T) {
	skipUnderRace(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if got := resolveWorkers(8); got != 1 {
		t.Fatalf("resolveWorkers(8) = %d at GOMAXPROCS 1, want 1", got)
	}

	data := allocTestData(4100)
	var stats Stats
	seq, err := CompressInto(nil, data, Options{Workers: 1, Bound: quant.REL(1e-3)}, &stats)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Workers: 8, Bound: quant.REL(1e-3)}
	dst, err := CompressInto(nil, data, opts, &stats)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, seq) {
		t.Fatal("Workers: 8 stream differs from Workers: 1")
	}
	out, _, err := Decompress(nil, dst, 8)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		dst, _ = CompressInto(dst[:0], data, opts, &stats)
		out, _, _ = Decompress(out[:0], dst, 8)
	}); allocs != 0 {
		t.Fatalf("float32 round trip with Workers: 8 allocates %.1f times per run, want 0", allocs)
	}

	data64 := make([]float64, len(data))
	for i, v := range data {
		data64[i] = float64(v)
	}
	seq, err = Compress64Into(nil, data64, Options{Workers: 1, Bound: quant.REL(1e-3)}, &stats)
	if err != nil {
		t.Fatal(err)
	}
	dst, err = Compress64Into(dst[:0], data64, opts, &stats)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, seq) {
		t.Fatal("Workers: 8 float64 stream differs from Workers: 1")
	}
	out64, _, err := Decompress64(nil, dst, 8)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		dst, _ = Compress64Into(dst[:0], data64, opts, &stats)
		out64, _, _ = Decompress64(out64[:0], dst, 8)
	}); allocs != 0 {
		t.Fatalf("float64 round trip with Workers: 8 allocates %.1f times per run, want 0", allocs)
	}
}
