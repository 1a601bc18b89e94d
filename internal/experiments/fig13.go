package experiments

import (
	"fmt"
	"io"

	"ceresz/internal/core"
	"ceresz/internal/datasets"
	"ceresz/internal/mapping"
	"ceresz/internal/quant"
	"ceresz/internal/stages"
	"ceresz/internal/wse"
)

// Fig13Point is one pipeline-length throughput measurement.
type Fig13Point struct {
	Dataset        string
	Direction      stages.Direction
	PipelineLen    int
	ThroughputGBps float64
}

// Fig13Result reproduces Fig. 13: compression throughput for pipelines of
// different lengths on QMCPack and Hurricane (error bound REL 1e-4 per the
// figure captions). The paper's claim (§4.4, §5.2): the single-PE pipeline
// is fastest and longer pipelines lose throughput overall — small interior
// bumps from imperfect greedy decomposition are expected ("the initial
// estimates … did not represent a perfectly uniform decomposition").
type Fig13Result struct {
	Points []Fig13Point
	// SinglePEFastest reports whether pipeline length 1 achieves the
	// maximum throughput for every dataset, with a declining overall trend
	// (the longest pipeline at least 15% below the single-PE one).
	SinglePEFastest bool
}

// Fig13 projects the pipeline-length sweep on the paper mesh, using the
// event-simulator-validated model, with the Alg. 1 grouping actually
// produced for each length.
func Fig13(cfg Config) (*Fig13Result, error) {
	cfg = cfg.WithDefaults()
	res := &Fig13Result{SinglePEFastest: true}
	for _, name := range []string{"QMCPack", "Hurricane"} {
		ds, err := datasets.ByName(name, cfg.Scale)
		if err != nil {
			return nil, err
		}
		data := ds.Fields[0].Data(cfg.Seed)
		minV, maxV := quant.Range(data)
		eps, err := quant.REL(1e-4).Resolve(minV, maxV)
		if err != nil {
			return nil, err
		}
		comp, stats, err := core.CompressWithEps(nil, data, eps, core.Options{})
		if err != nil {
			return nil, err
		}
		w, err := stages.EstimateWidth(data, eps, 32, 20)
		if err != nil {
			return nil, err
		}
		// Both directions: the paper notes the "phenomenon can also be
		// observed in decompression" (§5.2).
		for _, dir := range []stages.Direction{stages.Compress, stages.Decompress} {
			var first, last float64
			for _, pl := range []int{1, 2, 3, 4, 6, 8} {
				var chain *stages.Chain[float32]
				if dir == stages.Compress {
					chain, err = stages.NewCompressChain(stages.Config{Eps: eps, EstWidth: int(w)})
				} else {
					chain, err = stages.NewDecompressChain(stages.Config{Eps: eps, EstWidth: int(w)})
				}
				if err != nil {
					return nil, err
				}
				plan, err := mapping.NewPlan(chain, mapping.PlanConfig{
					Mesh:        wse.Config{Rows: PaperMesh.Rows, Cols: PaperMesh.Cols},
					PipelineLen: pl,
				})
				if err != nil {
					return nil, err
				}
				wl := mapping.Workload{
					Blocks:           stats.Blocks,
					Elements:         stats.Elements,
					WidthHist:        stats.WidthHistogram,
					VerbatimBlocks:   stats.VerbatimBlocks,
					AvgInputWavelets: 32,
				}
				if dir == stages.Decompress {
					wl.AvgInputWavelets = float64(len(comp)-core.StreamHeaderSize) / 4 / float64(stats.Blocks)
				}
				proj, err := plan.Project(wl)
				if err != nil {
					return nil, err
				}
				res.Points = append(res.Points, Fig13Point{
					Dataset:        name,
					Direction:      dir,
					PipelineLen:    pl,
					ThroughputGBps: proj.SteadyThroughputGBps,
				})
				if first == 0 {
					first = proj.SteadyThroughputGBps
				} else if proj.SteadyThroughputGBps >= first {
					res.SinglePEFastest = false
				}
				last = proj.SteadyThroughputGBps
			}
			if last > 0.85*first {
				res.SinglePEFastest = false
			}
		}
	}
	return res, nil
}

// PrintFig13 renders the pipeline-length sweep.
func PrintFig13(w io.Writer, r *Fig13Result) {
	section(w, "Fig. 13: compression throughput vs pipeline length (REL 1e-4, 512x512 PEs)")
	fmt.Fprintf(w, "%-10s %-12s %14s %18s\n", "Dataset", "direction", "pipeline len", "throughput GB/s")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%-10s %-12s %14d %18.2f\n", p.Dataset, p.Direction, p.PipelineLen, p.ThroughputGBps)
	}
	if r.SinglePEFastest {
		fmt.Fprintln(w, "single-PE pipeline fastest, longer pipelines slower: CONFIRMED (paper Fig. 13)")
	} else {
		fmt.Fprintln(w, "WARNING: single-PE pipeline is not the fastest configuration")
	}
}
