package ceresz

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (run with `go test -bench=. -benchmem`), plus host-codec
// microbenchmarks. The per-experiment benchmarks execute the same code as
// cmd/cereszbench and report the headline quantity of each figure through
// b.ReportMetric, so a bench run doubles as a regeneration pass.

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"testing"

	"ceresz/internal/baselines"
	"ceresz/internal/datasets"
	"ceresz/internal/experiments"
	"ceresz/internal/lorenzo"
	"ceresz/internal/quant"
	"ceresz/internal/stages"
)

func benchCfg() experiments.Config {
	return experiments.Config{Seed: 7, MaxFieldsPerDataset: 2}
}

func benchField(b *testing.B, dataset string, idx int) []float32 {
	b.Helper()
	ds, err := datasets.ByName(dataset, datasets.Small)
	if err != nil {
		b.Fatal(err)
	}
	return ds.Fields[idx].Data(7)
}

// --- Host codec microbenchmarks ---

func BenchmarkHostCompress(b *testing.B) {
	data := benchField(b, "NYX", 3)
	var comp []byte
	b.SetBytes(int64(4 * len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		comp, _, err = Compress(comp[:0], data, REL(1e-3), Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHostCompressSparse is BenchmarkHostCompress on NYX field 2
// (baryon density): most blocks fall inside the bound and leave as bare
// headers, so it times the zero-block prescan where BenchmarkHostCompress
// times the kernel behind it.
func BenchmarkHostCompressSparse(b *testing.B) {
	data := benchField(b, "NYX", 2)
	var comp []byte
	b.SetBytes(int64(4 * len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		comp, _, err = Compress(comp[:0], data, REL(1e-3), Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHostCompressTelemetry is BenchmarkHostCompress with the
// host-path registry recording — pairs with it to verify the <5% enabled
// overhead contract (the disabled case is the plain benchmark, since the
// registry starts off).
func BenchmarkHostCompressTelemetry(b *testing.B) {
	EnableTelemetry()
	defer DisableTelemetry()
	data := benchField(b, "NYX", 3)
	var comp []byte
	b.SetBytes(int64(4 * len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		comp, _, err = Compress(comp[:0], data, REL(1e-3), Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHostCompressSequential(b *testing.B) {
	data := benchField(b, "NYX", 3)
	var comp []byte
	b.SetBytes(int64(4 * len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		comp, _, err = Compress(comp[:0], data, REL(1e-3), Options{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHostCompressAlloc asserts the zero-alloc steady-state contract
// before timing: after one warm-up call sizes the destination and fills
// the worker pool, sequential CompressInto must stay off the heap.
func BenchmarkHostCompressAlloc(b *testing.B) {
	data := benchField(b, "NYX", 3)
	opts := Options{Workers: 1}
	var stats Stats
	comp, err := CompressInto(nil, data, REL(1e-3), opts, &stats)
	if err != nil {
		b.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		comp, err = CompressInto(comp[:0], data, REL(1e-3), opts, &stats)
		if err != nil {
			b.Fatal(err)
		}
	})
	if allocs != 0 {
		b.Fatalf("steady-state CompressInto allocates %.1f times per op, want 0", allocs)
	}
	b.SetBytes(int64(4 * len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		comp, err = CompressInto(comp[:0], data, REL(1e-3), opts, &stats)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// hostBenchWorkers returns the worker counts the parallel host-codec
// benchmarks sweep: 1, 2 and the powers of two up to NumCPU (deduped).
// workers=2 is always present so the shard/stitch machinery is measured
// even on a single-core host, where the pool caps concurrency but not
// shard count.
func hostBenchWorkers() []int {
	ws := []int{1, 2}
	for w := 4; w <= runtime.NumCPU(); w *= 2 {
		ws = append(ws, w)
	}
	if n := runtime.NumCPU(); n > 2 && ws[len(ws)-1] != n {
		ws = append(ws, n)
	}
	return ws
}

func benchHostCompressWorkers(b *testing.B, workers int) {
	data := benchField(b, "NYX", 3)
	var comp []byte
	b.SetBytes(int64(4 * len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		comp, _, err = Compress(comp[:0], data, REL(1e-3), Options{Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func benchHostDecompressWorkers(b *testing.B, workers int) {
	data := benchField(b, "NYX", 3)
	comp, _, err := Compress(nil, data, REL(1e-3), Options{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	var out []float32
	b.SetBytes(int64(4 * len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err = DecompressWith(out[:0], comp, Options{Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHostCompressParallel sweeps the block-parallel compressor over
// worker counts. The CERESZ_HOST_WORKERS environment variable pins a
// single flat-named run instead — benchdiff strips only the -GOMAXPROCS
// suffix when pairing, so a CERESZ_HOST_WORKERS=1 pass and a
// CERESZ_HOST_WORKERS=N pass produce identical benchmark names and diff
// cleanly (the same idiom as CERESZ_SIM_WORKERS for the simulator).
func BenchmarkHostCompressParallel(b *testing.B) {
	if s := os.Getenv("CERESZ_HOST_WORKERS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil {
			b.Fatalf("CERESZ_HOST_WORKERS=%q: %v", s, err)
		}
		benchHostCompressWorkers(b, n)
		return
	}
	for _, w := range hostBenchWorkers() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			benchHostCompressWorkers(b, w)
		})
	}
}

// BenchmarkHostDecompressParallel is the decode-side twin of
// BenchmarkHostCompressParallel, with the same CERESZ_HOST_WORKERS
// pairing contract.
func BenchmarkHostDecompressParallel(b *testing.B) {
	if s := os.Getenv("CERESZ_HOST_WORKERS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil {
			b.Fatalf("CERESZ_HOST_WORKERS=%q: %v", s, err)
		}
		benchHostDecompressWorkers(b, n)
		return
	}
	for _, w := range hostBenchWorkers() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			benchHostDecompressWorkers(b, w)
		})
	}
}

func BenchmarkHostDecompress(b *testing.B) {
	data := benchField(b, "NYX", 3)
	comp, _, err := Compress(nil, data, REL(1e-3), Options{})
	if err != nil {
		b.Fatal(err)
	}
	var out []float32
	b.SetBytes(int64(4 * len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err = Decompress(out[:0], comp)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRange measures the REL bound's min/max scan, which every REL
// compress pays before the first block.
func BenchmarkRange(b *testing.B) {
	data := benchField(b, "NYX", 3)
	b.SetBytes(int64(4 * len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo, hi := quant.Range(data)
		if !(lo < hi) {
			b.Fatalf("range [%g, %g]", lo, hi)
		}
	}
}

// BenchmarkRange64 is BenchmarkRange for float64 elements.
func BenchmarkRange64(b *testing.B) {
	f32 := benchField(b, "NYX", 3)
	data := make([]float64, len(f32))
	for i, v := range f32 {
		data[i] = float64(v)
	}
	b.SetBytes(int64(8 * len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo, hi := quant.Range64(data)
		if !(lo < hi) {
			b.Fatalf("range [%g, %g]", lo, hi)
		}
	}
}

func BenchmarkQuantize(b *testing.B) {
	data := benchField(b, "CESM-ATM", 1)
	q, err := quant.NewQuantizer(1e-3)
	if err != nil {
		b.Fatal(err)
	}
	codes := make([]int32, len(data))
	b.SetBytes(int64(4 * len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Quantize(codes, data)
	}
}

func BenchmarkLorenzo1D(b *testing.B) {
	codes := make([]int32, 1<<20)
	for i := range codes {
		codes[i] = int32(i % 1000)
	}
	out := make([]int32, len(codes))
	b.SetBytes(int64(4 * len(codes)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lorenzo.Forward(out, codes)
	}
}

func BenchmarkBaselineSZ3(b *testing.B) {
	ds, err := datasets.ByName("CESM-ATM", datasets.Small)
	if err != nil {
		b.Fatal(err)
	}
	f := &ds.Fields[1]
	data := f.Data(7)
	minV, maxV := quant.Range(data)
	eps, err := quant.REL(1e-3).Resolve(minV, maxV)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(4 * len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (baselines.SZ3{}).Compress(data, f.Dims, eps); err != nil {
			b.Fatal(err)
		}
	}
}

// --- One benchmark per table/figure ---

// BenchmarkTable1StageCycles regenerates Tables 1–3 and reports the modeled
// FL-encode cycles for the CESM-like profile.
func BenchmarkTable1StageCycles(b *testing.B) {
	var rows []experiments.StageProfileRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.StageProfiles(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows[0].FLEncode), "flenc-cycles")
	b.ReportMetric(float64(rows[0].PreQuant), "prequant-cycles")
}

// BenchmarkFig7RowScaling regenerates Fig. 7 and reports the 512-row
// projected throughput.
func BenchmarkFig7RowScaling(b *testing.B) {
	var r *experiments.Fig7Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Fig7(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	last := r.Points[len(r.Points)-1]
	b.ReportMetric(last.ThroughputMBps/1000, "GBps-at-512-rows")
	if r.LinearityErr != nil {
		b.Fatalf("linearity violated: %v", r.LinearityErr)
	}
}

// BenchmarkFig10Profiling regenerates the Fig. 10 relay/execution profiles.
func BenchmarkFig10Profiling(b *testing.B) {
	var r *experiments.Fig10Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Fig10(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.A[len(r.A)-1].RelayCyclesPerBlock, "relay-cycles-32col")
}

// BenchmarkFig11Compression regenerates the Fig. 11 throughput comparison
// and reports the CereSZ average and the speedup over cuSZp.
func BenchmarkFig11Compression(b *testing.B) {
	var r *experiments.ThroughputResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Throughput(benchCfg(), stages.Compress)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.CereSZAvg, "ceresz-GBps")
	b.ReportMetric(r.CereSZAvg/r.CuSZpAvg, "speedup-vs-cuszp")
}

// BenchmarkFig12Decompression regenerates Fig. 12.
func BenchmarkFig12Decompression(b *testing.B) {
	var r *experiments.ThroughputResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Throughput(benchCfg(), stages.Decompress)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.CereSZAvg, "ceresz-GBps")
	b.ReportMetric(r.CereSZAvg/r.CuSZpAvg, "speedup-vs-cuszp")
}

// BenchmarkFig13PipelineLength regenerates the pipeline-length sweep and
// reports the single-PE-to-8-PE throughput ratio on QMCPack.
func BenchmarkFig13PipelineLength(b *testing.B) {
	var r *experiments.Fig13Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Fig13(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	if !r.SinglePEFastest {
		b.Fatal("single-PE pipeline not fastest")
	}
	b.ReportMetric(r.Points[0].ThroughputGBps/r.Points[5].ThroughputGBps, "pl1-over-pl8")
}

// BenchmarkFig14WSESize regenerates the mesh-size sweep and reports the
// full-wafer projected throughput on CESM-ATM.
func BenchmarkFig14WSESize(b *testing.B) {
	var r *experiments.Fig14Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Fig14(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range r.Points {
		if p.Dataset == "CESM-ATM" && p.Rows == 750 {
			b.ReportMetric(p.ThroughputGBps, "fullwafer-GBps")
		}
	}
	b.ReportMetric(r.QuadruplingRatio["CESM-ATM"], "16to32-speedup")
}

// BenchmarkTable5Ratios regenerates the ratio table and reports the CereSZ
// NYX average at REL 1e-2 (paper: 20.22 on the real data).
func BenchmarkTable5Ratios(b *testing.B) {
	var r *experiments.Table5Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Table5(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	if c, ok := r.Find("CereSZ", "NYX", 1e-2); ok {
		b.ReportMetric(c.Avg, "nyx-ratio-1e2")
	}
}

// BenchmarkFig15Quality regenerates the data-quality comparison and reports
// PSNR (paper: 84.77 dB on the real NYX velocity_x).
func BenchmarkFig15Quality(b *testing.B) {
	var r *experiments.Fig15Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Fig15(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	if !r.Identical {
		b.Fatal("CereSZ and cuSZp reconstructions differ")
	}
	if math.IsInf(r.PSNR, 0) {
		b.Fatal("degenerate PSNR")
	}
	b.ReportMetric(r.PSNR, "psnr-dB")
	b.ReportMetric(r.SSIM, "ssim")
}

// BenchmarkAlg1Distribute measures the stage-distribution algorithm itself.
func BenchmarkAlg1Distribute(b *testing.B) {
	var r *experiments.Alg1Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Alg1(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.MaxLen), "max-pipeline-len")
}

// BenchmarkSimulatedPipeline measures the event simulator itself: one row
// of eight single-PE pipelines compressing 2048 blocks.
func BenchmarkSimulatedPipeline(b *testing.B) {
	data := make([]float32, 32*2048)
	for i := range data {
		data[i] = float32(math.Sin(float64(i) * 0.01))
	}
	b.SetBytes(int64(4 * len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SimulateCompress(data, REL(1e-3), MeshConfig{Rows: 1, Cols: 8}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Extension benchmarks (ablations, rate-distortion, streaming, f64) ---

// BenchmarkAblationBlockSize regenerates the block-length sweep.
func BenchmarkAblationBlockSize(b *testing.B) {
	var rows []experiments.BlockSizeRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.BlockSizeAblation(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.BlockLen == 32 {
			b.ReportMetric(r.AvgRatio, "ratio-at-32")
		}
	}
}

// BenchmarkAblationEncoding regenerates the fixed-length-vs-Huffman trade.
func BenchmarkAblationEncoding(b *testing.B) {
	var r *experiments.EncodingAblationResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.EncodingAblation(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.HuffmanRatio/r.FixedRatio, "huffman-ratio-gain")
	b.ReportMetric(r.HuffmanNsPerElem/r.FixedNsPerElem, "huffman-slowdown")
}

// BenchmarkRateDistortion regenerates the §5.4 sweep.
func BenchmarkRateDistortion(b *testing.B) {
	var r *experiments.RateDistortionResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.RateDistortion(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(r.Points)), "points")
}

// BenchmarkStreamWriter measures framed chunked compression end to end.
func BenchmarkStreamWriter(b *testing.B) {
	chunk := benchField(b, "Hurricane", 0)
	b.SetBytes(int64(4 * len(chunk)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw := NewStreamWriter(discardWriter{}, ABS(1e-3), Options{})
		if _, err := sw.WriteChunk(chunk); err != nil {
			b.Fatal(err)
		}
	}
}

type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// BenchmarkHostCompress64 measures the double-precision path.
func BenchmarkHostCompress64(b *testing.B) {
	f32 := benchField(b, "NYX", 3)
	data := make([]float64, len(f32))
	for i, v := range f32 {
		data[i] = float64(v)
	}
	var comp []byte
	b.SetBytes(int64(8 * len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		comp, _, err = Compress64(comp[:0], data, REL(1e-6), Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHostDecompress64 is the decode side of BenchmarkHostCompress64.
func BenchmarkHostDecompress64(b *testing.B) {
	f32 := benchField(b, "NYX", 3)
	data := make([]float64, len(f32))
	for i, v := range f32 {
		data[i] = float64(v)
	}
	comp, _, err := Compress64(nil, data, REL(1e-6), Options{})
	if err != nil {
		b.Fatal(err)
	}
	var out []float64
	b.SetBytes(int64(8 * len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err = Decompress64(out[:0], comp)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQualityTable regenerates the dataset-wide PSNR/SSIM table.
func BenchmarkQualityTable(b *testing.B) {
	var r *experiments.QualityResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Quality(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(r.Cells)), "cells")
}

// BenchmarkExtrasFamily regenerates the extended-family comparison.
func BenchmarkExtrasFamily(b *testing.B) {
	var r *experiments.ExtrasResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Extras(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range r.Rows {
		if row.Dataset == "HACC" && row.Compressor == "cuSZx" {
			b.ReportMetric(row.AvgRatio, "cuszx-hacc-ratio")
		}
	}
}

// BenchmarkSelfCheck runs the functional-invariant self-check.
func BenchmarkSelfCheck(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Check(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if !r.OK() {
			b.Fatalf("self-check failed: %v", r.Failed)
		}
	}
}

// BenchmarkUtilization regenerates the PE-utilization sweep.
func BenchmarkUtilization(b *testing.B) {
	var r *experiments.UtilizationResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Utilization(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.Rows[0].MeanUtilization, "pl1-utilization")
}
