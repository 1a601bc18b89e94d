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

// Fig10aPoint is one point of the relay-time profile.
type Fig10aPoint struct {
	Cols                int
	RelayCyclesPerBlock float64
}

// Fig10bPoint is one point of the per-PE execution-time profile.
type Fig10bPoint struct {
	PipelineLen             int
	ExecCyclesPerPEPerBlock float64
}

// Fig10Result reproduces the §4.3 profiling on QMCPack: (a) the relay time
// on the west-most PE grows linearly with the number of columns (Formula
// (2)); (b) the per-PE execution time falls inversely with the pipeline
// length (Formula (3)).
type Fig10Result struct {
	A []Fig10aPoint
	B []Fig10bPoint
	// ALinearityErr is nil when (a) is linear within 15%.
	ALinearityErr error
}

// Fig10 runs both profiles in the event simulator.
func Fig10(cfg Config) (*Fig10Result, error) {
	cfg = cfg.WithDefaults()
	ds, err := datasets.ByName("QMCPack", cfg.Scale)
	if err != nil {
		return nil, err
	}
	data := ds.Fields[0].Data(cfg.Seed)
	if len(data) > 32*2048 {
		data = data[:32*2048]
	}
	minV, maxV := quant.Range(data)
	eps, err := quant.REL(1e-3).Resolve(minV, maxV)
	if err != nil {
		return nil, err
	}

	res := &Fig10Result{}

	// (a) relay cycles per relayed block on PE(0,0), vs column count.
	var xs []int
	for _, cols := range []int{4, 8, 16, 32} {
		chain, err := stages.NewCompressChain(stages.Config{Eps: eps, EstWidth: 8})
		if err != nil {
			return nil, err
		}
		plan, err := mapping.NewPlan(chain, mapping.PlanConfig{
			Mesh:        wse.Config{Rows: 1, Cols: cols},
			PipelineLen: 1,
		})
		if err != nil {
			return nil, err
		}
		r, err := plan.Compress(data)
		if err != nil {
			return nil, err
		}
		nBlocks := (len(data) + 31) / 32
		rounds := float64(nBlocks) / float64(cols)
		relay := float64(r.Mesh.PE(0, 0).Stats().RelayCycles) / rounds
		res.A = append(res.A, Fig10aPoint{Cols: cols, RelayCyclesPerBlock: relay})
		// Formula (2): per-round relay ∝ (cols−1).
		xs = append(xs, cols-1)
	}
	// Verify linear growth of per-round relay time in (cols−1).
	lin := make([]float64, len(xs))
	for i := range xs {
		lin[i] = res.A[i].RelayCyclesPerBlock / float64(xs[i])
	}
	res.ALinearityErr = nil
	for i := 1; i < len(lin); i++ {
		if diff := (lin[i] - lin[0]) / lin[0]; diff > 0.15 || diff < -0.15 {
			res.ALinearityErr = fmt.Errorf("relay per (cols-1) varies %.1f%% at %d cols", 100*diff, res.A[i].Cols)
			break
		}
	}

	// (b) per-PE execution time vs pipeline length on a fixed 1×12 strip.
	for _, pl := range []int{1, 2, 3, 4, 6} {
		chain, err := stages.NewCompressChain(stages.Config{Eps: eps, EstWidth: 8})
		if err != nil {
			return nil, err
		}
		plan, err := mapping.NewPlan(chain, mapping.PlanConfig{
			Mesh:        wse.Config{Rows: 1, Cols: 12},
			PipelineLen: pl,
		})
		if err != nil {
			return nil, err
		}
		r, err := plan.Compress(data)
		if err != nil {
			return nil, err
		}
		// Average compute cycles per pipeline PE per processed block.
		pipelines := 12 / pl
		var compute int64
		for c := 0; c < pipelines*pl; c++ {
			compute += r.Mesh.PE(0, c).Stats().ComputeCycles
		}
		nBlocks := (len(data) + 31) / 32
		res.B = append(res.B, Fig10bPoint{
			PipelineLen:             pl,
			ExecCyclesPerPEPerBlock: float64(compute) / float64(pipelines*pl) / float64(nBlocks) * float64(pipelines),
		})
	}
	return res, nil
}

// PrintFig10 renders both profiles.
func PrintFig10(w io.Writer, r *Fig10Result) {
	section(w, "Fig. 10(a): relay cycles per round on PE(0,0) vs #columns (QMCPack)")
	fmt.Fprintf(w, "%6s %22s\n", "cols", "relay cycles/round")
	for _, p := range r.A {
		fmt.Fprintf(w, "%6d %22.1f\n", p.Cols, p.RelayCyclesPerBlock)
	}
	if r.ALinearityErr == nil {
		fmt.Fprintln(w, "linear in columns: CONFIRMED (Formula (2))")
	} else {
		fmt.Fprintf(w, "linear in columns: VIOLATED: %v\n", r.ALinearityErr)
	}
	section(w, "Fig. 10(b): per-PE execution cycles per block vs pipeline length (QMCPack)")
	fmt.Fprintf(w, "%14s %26s\n", "pipeline len", "exec cycles/PE/block")
	for _, p := range r.B {
		fmt.Fprintf(w, "%14d %26.1f\n", p.PipelineLen, p.ExecCyclesPerPEPerBlock)
	}
	fmt.Fprintln(w, "inverse proportionality with pipeline length: see Formula (3)")
}
