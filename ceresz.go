// Package ceresz is a Go reproduction of CereSZ, the error-bounded lossy
// compressor for the Cerebras CS-2 wafer-scale engine (Song et al., HPDC
// 2024). It provides:
//
//   - a fast host implementation of the CereSZ algorithm — block-wise
//     pre-quantization, 1D Lorenzo prediction and fixed-length encoding —
//     with a strict error-bound guarantee (Compress / Decompress);
//   - a discrete-event simulator of the CS-2's 2D PE mesh together with
//     the paper's three parallelization strategies, which runs the real
//     compression kernels and produces byte-identical streams
//     (SimulateCompress / SimulateDecompress);
//   - the paper's baselines (SZp, cuSZp, cuSZ, SZ), synthetic SDRBench
//     datasets, quality metrics, and a harness regenerating every table
//     and figure of the paper's evaluation (internal/experiments,
//     cmd/cereszbench).
//
// Quick start:
//
//	comp, stats, err := ceresz.Compress(nil, data, ceresz.REL(1e-3), ceresz.Options{})
//	...
//	rec, err := ceresz.Decompress(data[:0], comp)
//
// Every element of the reconstruction differs from the original by at most
// the resolved absolute bound ε (stats.Eps); blocks for which float32
// rounding cannot honor the bound are stored verbatim.
package ceresz

import (
	"fmt"

	"ceresz/internal/core"
	"ceresz/internal/flenc"
	"ceresz/internal/mapping"
	"ceresz/internal/quant"
	"ceresz/internal/stages"
	"ceresz/internal/wse"
)

// Bound is a user error bound: ABS(ε) or REL(λ) (value-range relative).
type Bound = quant.Bound

// ABS returns an absolute error bound ε > 0.
func ABS(eps float64) Bound { return quant.ABS(eps) }

// REL returns a value-range-relative error bound λ > 0 (the paper's REL
// mode, §5.1.3): ε = λ · (max − min).
func REL(lambda float64) Bound { return quant.REL(lambda) }

// Options tunes a host compression pass. The zero value is the paper's
// configuration: 32-element blocks, 4-byte block headers, sequential
// (zero-allocation) execution.
type Options struct {
	// BlockLen is the elements per block (positive multiple of 8;
	// 0 = 32, the paper's choice).
	BlockLen int
	// SZpHeader selects 1-byte block headers (the SZp/cuSZp stream format)
	// instead of CereSZ's 4-byte WSE-aligned headers.
	SZpHeader bool
	// Workers caps host parallelism. 0 and 1 run sequentially — the
	// zero-allocation steady-state path; values > 1 shard the call's
	// blocks across a shared worker pool (output bytes are identical at
	// any count); negative uses all CPU cores. With GOMAXPROCS == 1 every
	// value runs sequentially: shards could only queue behind one another.
	Workers int
}

func (o Options) coreOptions(b Bound) core.Options {
	hdr := flenc.HeaderU32
	if o.SZpHeader {
		hdr = flenc.HeaderU8
	}
	return core.Options{
		Bound:       b,
		BlockLen:    o.BlockLen,
		HeaderBytes: hdr,
		Workers:     o.Workers,
	}
}

// Stats reports what a compression pass produced.
type Stats = core.Stats

// Meta describes a parsed stream header.
type Meta = core.Meta

// Compress appends the CereSZ stream for data to dst (which may be nil).
func Compress(dst []byte, data []float32, bound Bound, opts Options) ([]byte, *Stats, error) {
	return core.Compress(dst, data, opts.coreOptions(bound))
}

// CompressInto is Compress writing its statistics into a caller-provided
// Stats (overwritten, not accumulated). With Workers: 1 and a dst of
// sufficient capacity the whole pass performs zero heap allocations, which
// makes it the right entry point for steady-state ingest loops.
func CompressInto(dst []byte, data []float32, bound Bound, opts Options, stats *Stats) ([]byte, error) {
	return core.CompressInto(dst, data, opts.coreOptions(bound), stats)
}

// CompressWithEps is Compress with a pre-resolved absolute ε, so multiple
// fields or compressors can share one bound.
func CompressWithEps(dst []byte, data []float32, eps float64, opts Options) ([]byte, *Stats, error) {
	return core.CompressWithEps(dst, data, eps, opts.coreOptions(Bound{}))
}

// CompressWithEpsInto is CompressWithEps writing into a caller-provided
// Stats, allocation-free in steady state like CompressInto.
func CompressWithEpsInto(dst []byte, data []float32, eps float64, opts Options, stats *Stats) ([]byte, error) {
	return core.CompressWithEpsInto(dst, data, eps, opts.coreOptions(Bound{}), stats)
}

// Decompress reconstructs the float32 data from a CereSZ stream, appending
// to dst (which may be nil). It runs sequentially; use DecompressWith to
// shard a large stream across CPU cores.
func Decompress(dst []float32, comp []byte) ([]float32, error) {
	out, _, err := core.Decompress(dst, comp, 0)
	return out, err
}

// DecompressWith is Decompress honoring opts.Workers (only the Workers
// field matters on the decode path: block geometry comes from the stream).
func DecompressWith(dst []float32, comp []byte, opts Options) ([]float32, error) {
	out, _, err := core.Decompress(dst, comp, opts.Workers)
	return out, err
}

// Parse returns the stream's metadata without decompressing it.
func Parse(comp []byte) (Meta, error) {
	return core.ParseHeader(comp)
}

// MeshConfig selects a simulated WSE geometry and pipeline shape.
type MeshConfig struct {
	// Rows and Cols give the PE mesh (the full CS-2 exposes 750×994).
	Rows, Cols int
	// PipelineLen is the PEs per pipeline (0 = 1, the paper's optimum).
	PipelineLen int
	// EstWidth is the planning fixed length for Algorithm 1 (0 = sample
	// the data, the paper's 5% sampling strategy).
	EstWidth int
}

// SimResult is the outcome of a simulated WSE run.
type SimResult struct {
	// Bytes is the compressed stream (compression runs); byte-identical
	// to the host Compress output for the same parameters.
	Bytes []byte
	// Data is the reconstruction (decompression runs).
	Data []float32
	// Cycles is the completion time of the last PE.
	Cycles int64
	// Seconds is Cycles at 850 MHz.
	Seconds float64
	// ThroughputGBps is uncompressed bytes / Seconds / 1e9.
	ThroughputGBps float64
	// Telemetry is the run's instrument snapshot: simulated cycle totals
	// split by compute/relay/send, active-PE and memory gauges, estimated
	// versus measured per-stage-group load, and the host wall time of the
	// simulation. Always populated — each run has a private registry.
	Telemetry Telemetry
}

// SimulateCompress runs CereSZ compression on a simulated WSE mesh. The
// returned stream is verified byte-identical to the host compressor's by
// the package tests; use it to study scaling rather than to compress fast.
func SimulateCompress(data []float32, bound Bound, mesh MeshConfig) (*SimResult, error) {
	minV, maxV := quant.Range(data)
	eps, err := bound.Resolve(minV, maxV)
	if err != nil {
		return nil, err
	}
	estWidth := mesh.EstWidth
	if estWidth == 0 {
		w, err := stages.EstimateWidth(data, eps, core.DefaultBlockLen, 20)
		if err != nil {
			return nil, err
		}
		estWidth = int(w)
	}
	chain, err := stages.NewCompressChain(stages.Config{Eps: eps, EstWidth: estWidth})
	if err != nil {
		return nil, err
	}
	plan, err := mapping.NewPlan(chain, mapping.PlanConfig{
		Mesh:        wse.Config{Rows: mesh.Rows, Cols: mesh.Cols},
		PipelineLen: pipelineLen(mesh),
	})
	if err != nil {
		return nil, err
	}
	res, err := plan.Compress(data)
	if err != nil {
		return nil, err
	}
	return &SimResult{
		Bytes:          res.Bytes,
		Cycles:         res.Cycles,
		Seconds:        res.Seconds,
		ThroughputGBps: res.ThroughputGBps,
		Telemetry:      res.Telemetry,
	}, nil
}

// SimulateDecompress runs CereSZ decompression on a simulated WSE mesh.
func SimulateDecompress(comp []byte, mesh MeshConfig) (*SimResult, error) {
	meta, err := core.ParseHeader(comp)
	if err != nil {
		return nil, err
	}
	if meta.BlockLen != core.DefaultBlockLen {
		return nil, fmt.Errorf("ceresz: simulation supports the paper's block length %d, stream has %d",
			core.DefaultBlockLen, meta.BlockLen)
	}
	estWidth := mesh.EstWidth
	if estWidth == 0 {
		estWidth = 8
	}
	chain, err := stages.NewDecompressChain(stages.Config{
		Eps:         meta.Eps,
		EstWidth:    estWidth,
		HeaderBytes: meta.HeaderBytes,
	})
	if err != nil {
		return nil, err
	}
	plan, err := mapping.NewPlan(chain, mapping.PlanConfig{
		Mesh:        wse.Config{Rows: mesh.Rows, Cols: mesh.Cols},
		PipelineLen: pipelineLen(mesh),
	})
	if err != nil {
		return nil, err
	}
	res, err := plan.Decompress(comp)
	if err != nil {
		return nil, err
	}
	return &SimResult{
		Data:           res.Data,
		Cycles:         res.Cycles,
		Seconds:        res.Seconds,
		ThroughputGBps: res.ThroughputGBps,
		Telemetry:      res.Telemetry,
	}, nil
}

func pipelineLen(m MeshConfig) int {
	if m.PipelineLen == 0 {
		return 1
	}
	return m.PipelineLen
}
