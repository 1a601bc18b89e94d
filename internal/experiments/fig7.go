package experiments

import (
	"fmt"
	"io"

	"ceresz/internal/datasets"
	"ceresz/internal/mapping"
	"ceresz/internal/quant"
	"ceresz/internal/stages"
	"ceresz/internal/wse"
)

// Fig7Point is one point of the Fig. 7 row-scaling curve.
type Fig7Point struct {
	Rows           int
	Cycles         int64
	ThroughputMBps float64
	// Simulated distinguishes event-simulated points from analytic
	// extrapolations (the paper's plot reaches 512 rows).
	Simulated bool
}

// Fig7Result is the Fig. 7 reproduction: compression throughput of the NYX
// temperature field versus the number of PE rows, one single-PE pipeline
// per row (§4.1: "using the first PE of each row", block size 32).
type Fig7Result struct {
	Points []Fig7Point
	// LinearityErr is nil when rows×time is constant within 10%.
	LinearityErr error
}

// Fig7 runs the row-scaling experiment: event simulation up to 32 rows,
// analytic model beyond.
func Fig7(cfg Config) (*Fig7Result, error) {
	cfg = cfg.WithDefaults()
	ds, err := datasets.ByName("NYX", cfg.Scale)
	if err != nil {
		return nil, err
	}
	data := ds.Fields[0].Data(cfg.Seed) // temperature
	minV, maxV := quant.Range(data)
	eps, err := quant.REL(1e-3).Resolve(minV, maxV)
	if err != nil {
		return nil, err
	}

	res := &Fig7Result{}
	var xs []int
	var times []float64
	for _, rows := range []int{1, 2, 4, 8, 16, 32} {
		chain, err := stages.NewCompressChain(stages.Config{Eps: eps, EstWidth: 8})
		if err != nil {
			return nil, err
		}
		plan, err := mapping.NewPlan(chain, mapping.PlanConfig{
			Mesh:        wse.Config{Rows: rows, Cols: 1},
			PipelineLen: 1,
		})
		if err != nil {
			return nil, err
		}
		r, err := plan.Compress(data)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, Fig7Point{
			Rows:           rows,
			Cycles:         r.Cycles,
			ThroughputMBps: r.ThroughputGBps * 1000,
			Simulated:      true,
		})
		xs = append(xs, rows)
		times = append(times, float64(r.Cycles))
	}
	res.LinearityErr = mapping.SpeedupIsLinear(xs, times, 0.10)

	// Analytic extrapolation to the paper's 512-row axis, anchored on the
	// same workload statistics.
	stats, err := hostStats(data, eps)
	if err != nil {
		return nil, err
	}
	for _, rows := range []int{64, 128, 256, 512} {
		chain, err := stages.NewCompressChain(stages.Config{Eps: eps, EstWidth: 8})
		if err != nil {
			return nil, err
		}
		plan, err := mapping.NewPlan(chain, mapping.PlanConfig{
			Mesh:        wse.Config{Rows: rows, Cols: 1},
			PipelineLen: 1,
		})
		if err != nil {
			return nil, err
		}
		w := mapping.Workload{
			Blocks:           stats.Blocks,
			Elements:         stats.Elements,
			WidthHist:        stats.WidthHistogram,
			VerbatimBlocks:   stats.VerbatimBlocks,
			AvgInputWavelets: 32,
		}
		proj, err := plan.Project(w)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, Fig7Point{
			Rows:           rows,
			Cycles:         int64(proj.TotalCycles),
			ThroughputMBps: proj.ThroughputGBps * 1000,
		})
	}
	return res, nil
}

// PrintFig7 renders the row-scaling series.
func PrintFig7(w io.Writer, r *Fig7Result) {
	section(w, "Fig. 7: compression throughput vs number of PE rows (NYX temperature, block 32)")
	fmt.Fprintf(w, "%6s %14s %16s %s\n", "rows", "cycles", "throughput MB/s", "source")
	for _, p := range r.Points {
		src := "analytic model"
		if p.Simulated {
			src = "event simulation"
		}
		fmt.Fprintf(w, "%6d %14d %16.1f %s\n", p.Rows, p.Cycles, p.ThroughputMBps, src)
	}
	if r.LinearityErr == nil {
		fmt.Fprintln(w, "linear speedup across rows: CONFIRMED (paper Fig. 7 shows the same)")
	} else {
		fmt.Fprintf(w, "linear speedup across rows: VIOLATED: %v\n", r.LinearityErr)
	}
}
