// Command cereszsim runs CereSZ compression on a simulated Cerebras mesh
// and reports timing, per-PE utilization and the Algorithm 1 stage
// distribution — an interactive explorer for the mapping design space.
//
// Usage:
//
//	cereszsim [-rows N] [-cols N] [-pl N] [-blocks N] [-rel λ] [-decompress]
//	          [-trace out.json] [-heatmap out.csv] [-simworkers N]
//	          [-spans out.json] [-attrib] [-attribout out.json]
//
// -spans writes every block's lifecycle (inject → relay hops → stage
// dispatches → eject) as structured JSON; -trace renders the same spans
// as Chrome trace-event JSON — open it in Perfetto (ui.perfetto.dev) to
// see one track per PE with flow arrows chaining each block across PEs.
// -heatmap writes a rows×cols CSV of per-PE processor utilization (and
// prints the ASCII shading to stdout). -attrib prints per-PE cycle
// attribution (compute / relay-forward / queue-wait / fabric-stall /
// idle), the bottleneck stage group, and the critical block's per-leg
// latency decomposition; -attribout writes that report plus the raw
// attribution as JSON.
//
// Example:
//
//	cereszsim -rows 4 -cols 12 -pl 3 -blocks 4096 -trace out.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"ceresz/internal/core"
	"ceresz/internal/critpath"
	"ceresz/internal/mapping"
	"ceresz/internal/quant"
	"ceresz/internal/stages"
	"ceresz/internal/wse"
)

// simOpts collects the CLI knobs for one simulated run.
type simOpts struct {
	rows, cols, pl, blocks int
	rel                    float64
	decompress             bool
	seed                   int64
	// traceFile writes block spans as Chrome trace-event JSON.
	traceFile string
	// heatmapFile writes per-PE utilization as a rows×cols CSV.
	heatmapFile string
	// simWorkers bounds the row-sharded simulator's worker pool.
	simWorkers int
	// spansFile writes per-block lifecycle spans as JSON.
	spansFile string
	// attrib prints the stall-attribution and critical-path report.
	attrib bool
	// attribFile writes the attribution + critical-path report as JSON.
	attribFile string
}

func main() {
	var o simOpts
	flag.IntVar(&o.rows, "rows", 2, "mesh rows")
	flag.IntVar(&o.cols, "cols", 8, "mesh columns")
	flag.IntVar(&o.pl, "pl", 1, "pipeline length")
	flag.IntVar(&o.blocks, "blocks", 2048, "number of 32-element blocks to stream")
	flag.Float64Var(&o.rel, "rel", 1e-3, "REL error bound")
	flag.BoolVar(&o.decompress, "decompress", false, "simulate the decompression direction")
	flag.Int64Var(&o.seed, "seed", 7, "data seed")
	flag.StringVar(&o.traceFile, "trace", "", "write block spans as Chrome trace-event JSON (Perfetto flow arrows) to this file")
	flag.StringVar(&o.heatmapFile, "heatmap", "", "write per-PE utilization CSV to this file")
	flag.IntVar(&o.simWorkers, "simworkers", 0, "simulator workers, each simulating rows one after another: 0 = one per CPU (output identical for every count)")
	flag.StringVar(&o.spansFile, "spans", "", "write per-block lifecycle spans as JSON to this file")
	flag.BoolVar(&o.attrib, "attrib", false, "print per-PE stall attribution and the critical-path analysis")
	flag.StringVar(&o.attribFile, "attribout", "", "write attribution + critical-path report as JSON to this file")
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "cereszsim:", err)
		os.Exit(1)
	}
}

func run(o simOpts) error {
	// Synthesize a smooth field with mild noise.
	data := make([]float32, 32*o.blocks)
	phase := float64(o.seed)
	for i := range data {
		x := float64(i) * 0.003
		data[i] = float32(math.Sin(x+phase)*2 + 0.25*math.Sin(11*x) + 0.02*math.Sin(191*x))
	}
	minV, maxV := quant.Range(data)
	eps, err := quant.REL(o.rel).Resolve(minV, maxV)
	if err != nil {
		return err
	}
	estWidth, err := stages.EstimateWidth(data, eps, 32, 20)
	if err != nil {
		return err
	}

	mesh := wse.Config{Rows: o.rows, Cols: o.cols, Workers: o.simWorkers}
	recordSpans := o.spansFile != "" || o.traceFile != "" || o.attrib || o.attribFile != ""
	var res *mapping.Result
	var plan *mapping.Plan
	if o.decompress {
		comp, _, err := core.CompressWithEps(nil, data, eps, core.Options{})
		if err != nil {
			return err
		}
		chain, err := stages.NewDecompressChain(stages.Config{Eps: eps, EstWidth: int(estWidth)})
		if err != nil {
			return err
		}
		plan, err = mapping.NewPlan(chain, mapping.PlanConfig{Mesh: mesh, PipelineLen: o.pl, RecordSpans: recordSpans})
		if err != nil {
			return err
		}
		res, err = plan.Decompress(comp)
		if err != nil {
			return err
		}
	} else {
		chain, err := stages.NewCompressChain(stages.Config{Eps: eps, EstWidth: int(estWidth)})
		if err != nil {
			return err
		}
		plan, err = mapping.NewPlan(chain, mapping.PlanConfig{Mesh: mesh, PipelineLen: o.pl, RecordSpans: recordSpans})
		if err != nil {
			return err
		}
		res, err = plan.Compress(data)
		if err != nil {
			return err
		}
	}

	dir := "compression"
	if o.decompress {
		dir = "decompression"
	}
	fmt.Printf("%s of %d blocks (%d KB) on a %dx%d mesh, ε=%.3g (fl estimate %d)\n",
		dir, o.blocks, 4*len(data)/1024, o.rows, o.cols, eps, estWidth)
	fmt.Print(plan.Describe())
	fmt.Printf("\nelapsed: %d cycles = %.3f ms at 850 MHz -> %.2f MB/s\n",
		res.Cycles, res.Seconds*1e3, res.ThroughputGBps*1000)

	s := res.Mesh.Summary()
	fmt.Printf("active PEs %d; busiest %v at %d cycles; mean utilization %.1f%%; peak PE memory %d B\n",
		s.ActivePEs, s.BusiestPE, s.BusiestCycles, 100*s.MeanUtilization, s.MemPeak)
	fmt.Printf("cycle totals: compute %d, relay %d, send %d\n\n", s.TotalCompute, s.TotalRelay, s.TotalSend)
	res.Mesh.WriteUtilization(os.Stdout, 0)

	fmt.Print("\nrun telemetry:\n")
	res.Telemetry.WriteTo(os.Stdout)

	if o.heatmapFile != "" {
		if err := writeFile(o.heatmapFile, res.Mesh.WriteHeatmapCSV); err != nil {
			return err
		}
		fmt.Println()
		res.Mesh.WriteHeatmapASCII(os.Stdout)
		fmt.Printf("wrote utilization heatmap to %s\n", o.heatmapFile)
	}

	var rep critpath.Report
	if o.attrib || o.attribFile != "" {
		rep = critpath.Analyze(plan, res, critpath.Options{})
	}
	if o.attrib {
		fmt.Print("\n")
		rep.WriteTo(os.Stdout)
	}
	if o.attribFile != "" {
		if err := writeJSON(o.attribFile, map[string]any{
			"attribution": res.Attribution(),
			"critpath":    rep,
		}); err != nil {
			return err
		}
		fmt.Printf("wrote attribution report to %s\n", o.attribFile)
	}
	if o.spansFile != "" {
		if err := writeJSON(o.spansFile, res.Spans); err != nil {
			return err
		}
		fmt.Printf("wrote %d block spans to %s\n", len(res.Spans), o.spansFile)
	}
	if o.traceFile != "" {
		if err := writeFile(o.traceFile, func(w io.Writer) error {
			return res.SpanLog.WriteChromeTrace(w, mesh)
		}); err != nil {
			return err
		}
		fmt.Printf("wrote %d span events to %s (open in ui.perfetto.dev)\n",
			len(res.SpanLog.Events()), o.traceFile)
	}
	return nil
}

func writeJSON(path string, v any) error {
	return writeFile(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	})
}

// writeFile creates path and fills it with write, reporting the first of
// write's and Close's errors.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
