package experiments

import (
	"fmt"
	"io"

	"ceresz/internal/datasets"
	"ceresz/internal/flenc"
	"ceresz/internal/mapping"
	"ceresz/internal/stages"
	"ceresz/internal/wse"
)

// Fig14Point is one WSE-size throughput measurement.
type Fig14Point struct {
	Dataset        string
	Rows, Cols     int
	ThroughputGBps float64
}

// Fig14Result reproduces Fig. 14: compression throughput as a function of
// the WSE size (16² … 512², then the full 750×994 wafer) on the whole
// CESM-ATM and HACC datasets at REL 1e-4. The paper's quantitative claim
// (§5.2) is "the throughput of using a 32x32 WSE is about 4 times of that
// using a 16x16"; at larger widths the west-edge relay term (Formula (2))
// costs per-PE efficiency, which the paper folds into "negligible" and we
// report explicitly.
type Fig14Result struct {
	Points []Fig14Point
	// QuadruplingRatio[dataset] is throughput(32²)/throughput(16²); the
	// paper reports ≈4.
	QuadruplingRatio map[string]float64
	// Efficiency512 is per-PE throughput at 512² relative to 16².
	Efficiency512 map[string]float64
}

// Fig14 projects the mesh-size sweep with the validated analytic model
// (the event simulator confirms linearity on small meshes; see the mapping
// package tests).
func Fig14(cfg Config) (*Fig14Result, error) {
	cfg = cfg.WithDefaults()
	sizes := [][2]int{{16, 16}, {32, 32}, {64, 64}, {128, 128}, {256, 256}, {512, 512}, {750, 994}}
	res := &Fig14Result{QuadruplingRatio: map[string]float64{}, Efficiency512: map[string]float64{}}
	for _, name := range []string{"CESM-ATM", "HACC"} {
		ds, err := datasets.ByName(name, cfg.Scale)
		if err != nil {
			return nil, err
		}
		runs, err := runFields(ds, 1e-4, cfg, flenc.HeaderU32)
		if err != nil {
			return nil, err
		}
		perSize := map[int]float64{}
		for _, sz := range sizes {
			mesh := wse.Config{Rows: sz[0], Cols: sz[1]}
			var totalBytes, totalSecs float64
			for _, r := range runs {
				chain, err := stages.NewCompressChain(stages.Config{Eps: r.eps, EstWidth: 8})
				if err != nil {
					return nil, err
				}
				plan, err := mapping.NewPlan(chain, mapping.PlanConfig{Mesh: mesh, PipelineLen: 1})
				if err != nil {
					return nil, err
				}
				proj, err := plan.Project(mapping.Workload{
					Blocks:           r.stats.Blocks,
					Elements:         r.stats.Elements,
					WidthHist:        r.stats.WidthHistogram,
					VerbatimBlocks:   r.stats.VerbatimBlocks,
					AvgInputWavelets: 32,
				})
				if err != nil {
					return nil, err
				}
				totalBytes += float64(4 * r.stats.Elements)
				totalSecs += float64(4*r.stats.Elements) / (proj.SteadyThroughputGBps * 1e9)
			}
			gbps := totalBytes / totalSecs / 1e9
			res.Points = append(res.Points, Fig14Point{
				Dataset: name, Rows: sz[0], Cols: sz[1], ThroughputGBps: gbps,
			})
			perSize[sz[0]*sz[1]] = gbps
		}
		res.QuadruplingRatio[name] = perSize[32*32] / perSize[16*16]
		res.Efficiency512[name] = (perSize[512*512] / float64(512*512)) / (perSize[16*16] / float64(16*16))
	}
	return res, nil
}

// PrintFig14 renders the WSE-size sweep.
func PrintFig14(w io.Writer, r *Fig14Result) {
	section(w, "Fig. 14: compression throughput vs WSE size (REL 1e-4)")
	fmt.Fprintf(w, "%-10s %12s %18s\n", "Dataset", "mesh", "throughput GB/s")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%-10s %5dx%-6d %18.2f\n", p.Dataset, p.Rows, p.Cols, p.ThroughputGBps)
	}
	for ds, ratio := range r.QuadruplingRatio {
		fmt.Fprintf(w, "%s: 16x16 -> 32x32 speedup %.2fx (paper: 'about 4 times'); per-PE efficiency at 512x512 = %.0f%% of 16x16 (west-edge relay term, Formula (2))\n",
			ds, ratio, 100*r.Efficiency512[ds])
	}
}
