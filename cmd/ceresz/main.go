// Command ceresz compresses and decompresses raw float32 files with the
// CereSZ algorithm.
//
// Usage:
//
//	ceresz -c [-rel λ | -abs ε] [-block L] [-szp] input.f32 output.csz
//	ceresz -d input.csz output.f32
//	ceresz -info input.csz
//	ceresz -bundle [-rel λ | -abs ε] fieldDir out.cszb
//	ceresz -unbundle in.cszb outDir
//
// Input files for -c are raw little-endian float32 arrays (the SDRBench
// convention); -bundle compresses every field file in a directory into one
// indexed archive (dims parsed from SDRBench-style names). Compression
// prints the achieved ratio and block statistics. -hostworkers N shards
// each compress/decompress call across a pooled worker runtime; the
// emitted stream is byte-identical at every worker count, so the flag only
// changes throughput.
package main

import (
	"flag"
	"fmt"
	"os"

	"ceresz"
	"ceresz/internal/sdrbench"
)

func main() {
	compress := flag.Bool("c", false, "compress a raw float32 file")
	decompress := flag.Bool("d", false, "decompress a CereSZ stream")
	info := flag.Bool("info", false, "print stream metadata")
	rel := flag.Float64("rel", 1e-3, "value-range-relative error bound λ")
	abs := flag.Float64("abs", 0, "absolute error bound ε (overrides -rel when > 0)")
	block := flag.Int("block", 0, "block length (multiple of 8; 0 = 32)")
	szp := flag.Bool("szp", false, "use 1-byte SZp-style block headers")
	f64 := flag.Bool("f64", false, "treat input as float64 (compression only; decompression auto-detects)")
	bundle := flag.Bool("bundle", false, "compress a directory of field files into one bundle")
	unbundle := flag.Bool("unbundle", false, "extract a bundle into a directory of raw field files")
	workers := flag.Int("hostworkers", 0, "host-codec worker shards: 0 or 1 = sequential, N > 1 = pooled block-parallel, negative = all cores (output bytes identical either way)")
	stats := flag.Bool("stats", false, "print internal telemetry (call durations, block counts, worker occupancy) after the run")
	flag.Parse()

	if *stats {
		ceresz.EnableTelemetry()
	}
	err := func() error {
		if *bundle || *unbundle {
			return runBundle(*bundle, *rel, *abs, *block, *szp, *workers, flag.Args())
		}
		return run(*compress, *decompress, *info, *rel, *abs, *block, *szp, *f64, *workers, flag.Args())
	}()
	if *stats {
		fmt.Print("\ntelemetry:\n")
		ceresz.HostTelemetry().WriteTo(os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ceresz:", err)
		os.Exit(1)
	}
}

func run(compress, decompress, info bool, rel, abs float64, block int, szp, f64 bool, workers int, args []string) error {
	modes := 0
	for _, m := range []bool{compress, decompress, info} {
		if m {
			modes++
		}
	}
	if modes != 1 {
		return fmt.Errorf("exactly one of -c, -d, -info is required")
	}
	switch {
	case info:
		if len(args) != 1 {
			return fmt.Errorf("-info needs one input file")
		}
		comp, err := os.ReadFile(args[0])
		if err != nil {
			return err
		}
		meta, err := ceresz.Parse(comp)
		if err != nil {
			return err
		}
		fmt.Printf("elements:      %d %s (%d bytes uncompressed)\n",
			meta.Elements, meta.Elem, meta.Elem.Size()*meta.Elements)
		fmt.Printf("block length:  %d\n", meta.BlockLen)
		fmt.Printf("block header:  %d bytes\n", meta.HeaderBytes)
		fmt.Printf("error bound:   ABS %g\n", meta.Eps)
		fmt.Printf("stream size:   %d bytes (ratio %.3f)\n", len(comp),
			float64(meta.Elem.Size()*meta.Elements)/float64(len(comp)))
		return nil

	case compress:
		if len(args) != 2 {
			return fmt.Errorf("-c needs input and output files")
		}
		bound := ceresz.REL(rel)
		if abs > 0 {
			bound = ceresz.ABS(abs)
		}
		opts := ceresz.Options{BlockLen: block, SZpHeader: szp, Workers: workers}
		var comp []byte
		var stats *ceresz.Stats
		var elemBytes int
		if f64 {
			data, err := sdrbench.ReadF64(args[0])
			if err != nil {
				return err
			}
			comp, stats, err = ceresz.Compress64(nil, data, bound, opts)
			if err != nil {
				return err
			}
			elemBytes = 8
		} else {
			data, err := sdrbench.ReadF32(args[0])
			if err != nil {
				return err
			}
			comp, stats, err = ceresz.Compress(nil, data, bound, opts)
			if err != nil {
				return err
			}
			elemBytes = 4
		}
		if err := os.WriteFile(args[1], comp, 0o644); err != nil {
			return err
		}
		fmt.Printf("compressed %d elements: %d -> %d bytes (ratio %.3f)\n",
			stats.Elements, elemBytes*stats.Elements, len(comp),
			float64(elemBytes*stats.Elements)/float64(len(comp)))
		fmt.Printf("ε = %g; %d blocks (%d zero, %d verbatim), mean fixed length %.2f bits\n",
			stats.Eps, stats.Blocks, stats.ZeroBlocks, stats.VerbatimBlocks, stats.MeanWidth())
		return nil

	default: // decompress
		if len(args) != 2 {
			return fmt.Errorf("-d needs input and output files")
		}
		comp, err := os.ReadFile(args[0])
		if err != nil {
			return err
		}
		elem, err := ceresz.ElemOf(comp)
		if err != nil {
			return err
		}
		if elem == ceresz.Float64 {
			data, err := ceresz.Decompress64With(nil, comp, ceresz.Options{Workers: workers})
			if err != nil {
				return err
			}
			if err := sdrbench.WriteF64(args[1], data); err != nil {
				return err
			}
			fmt.Printf("decompressed %d float64 elements (%d bytes)\n", len(data), 8*len(data))
			return nil
		}
		data, err := ceresz.DecompressWith(nil, comp, ceresz.Options{Workers: workers})
		if err != nil {
			return err
		}
		if err := sdrbench.WriteF32(args[1], data); err != nil {
			return err
		}
		fmt.Printf("decompressed %d float32 elements (%d bytes)\n", len(data), 4*len(data))
		return nil
	}
}
