package mapping

import (
	"fmt"
	"math"

	"ceresz/internal/flenc"
	"ceresz/internal/stages"
	"ceresz/internal/wse"
)

// Workload summarizes a dataset for the analytic performance model.
type Workload struct {
	// Blocks is the number of data blocks.
	Blocks int
	// Elements is the number of float32 elements (sets the uncompressed
	// byte count used by the paper's throughput metric).
	Elements int
	// WidthHist[w] counts blocks with fixed length w (0 = zero blocks).
	WidthHist [flenc.MaxWidth + 1]int
	// VerbatimBlocks counts blocks stored raw.
	VerbatimBlocks int
	// AvgInputWavelets is the mean fabric size of one input block: L for
	// compression, mean encoded words for decompression.
	AvgInputWavelets float64
}

// Projection is the analytic model's estimate for one run, following the
// structure of paper Formulas (2)–(4): per round every pipeline in a row
// consumes one block; the busiest PE pays the relay term (2) plus its
// stage-group compute and the intermediate transfer term of (3); rounds
// repeat until the row's share of blocks is exhausted.
type Projection struct {
	// RoundCycles is the steady-state cycles per round on the critical PE.
	RoundCycles float64
	// RelayCycles is the relay share of RoundCycles (Formula (2) term).
	RelayCycles float64
	// ComputeCycles is the bottleneck stage-group share (Formula (3) term).
	ComputeCycles float64
	// TransferCycles is the intermediate-handoff share (the C₂ term).
	TransferCycles float64
	// Rounds is the number of rounds the busiest row executes.
	Rounds int64
	// FillCycles is the one-time pipeline fill latency.
	FillCycles float64
	// TotalCycles is the projected end-to-end cycle count.
	TotalCycles float64
	// Seconds is TotalCycles at the configured clock.
	Seconds float64
	// ThroughputGBps is uncompressed-bytes / Seconds / 1e9 for this
	// workload, including fill time — representative when the workload
	// saturates the mesh for many rounds.
	ThroughputGBps float64
	// SteadyThroughputGBps is the asymptotic rate once every row is in
	// steady state: rows · pipelines · blockBytes / roundTime. The paper's
	// Figs. 11–14 stream entire multi-GB datasets, which is this regime.
	SteadyThroughputGBps float64
}

// Project estimates the plan's performance on the workload without running
// the event simulator. The model is validated against the simulator on
// small meshes (see TestModelMatchesSimulator) and extrapolated to
// full-wafer geometries, exactly as the paper extrapolates from its
// profiled constants.
func (p *Plan) Project(w Workload) (Projection, error) {
	if w.Blocks <= 0 {
		return Projection{}, fmt.Errorf("mapping: workload with %d blocks", w.Blocks)
	}
	var hist int
	for _, c := range w.WidthHist {
		hist += c
	}
	if hist+w.VerbatimBlocks != w.Blocks {
		return Projection{}, fmt.Errorf("mapping: width histogram covers %d of %d blocks", hist+w.VerbatimBlocks, w.Blocks)
	}
	cfg := p.Cfg.Mesh
	pl := p.Cfg.PipelineLen
	P := p.Pipelines

	// Average per-block compute on the bottleneck PE and in total, over
	// the workload's width distribution.
	var bottleneck, chainTotal float64
	for width, count := range w.WidthHist {
		if count == 0 {
			continue
		}
		costs := p.Chain.EstimateCycles(uint(width))
		f := float64(count) / float64(w.Blocks)
		bottleneck += f * float64(Bottleneck(costs, p.Groups))
		var sum int64
		for _, c := range costs {
			sum += c
		}
		chainTotal += f * float64(sum)
	}
	if w.VerbatimBlocks > 0 {
		costs := p.verbatimCosts()
		f := float64(w.VerbatimBlocks) / float64(w.Blocks)
		bottleneck += f * float64(Bottleneck(costs, p.Groups))
		var sum int64
		for _, c := range costs {
			sum += c
		}
		chainTotal += f * float64(sum)
	}

	// Formula (2): the head of the westmost pipeline relays one raw block
	// per round for every pipeline to its east; C₁ is the relay cost of a
	// raw block (per-message overhead + its wavelet count).
	c1 := float64(cfg.MsgOverhead) + w.AvgInputWavelets
	relay := float64(P-1) * c1

	// Formula (3): each hop inside the pipeline moves the live state
	// through the RAMP; C₂ = ramp latency + state wavelets. With pipeline
	// length 1 the only handoff is the emission.
	stateW := float64(p.Chain.Cfg.BlockLen) // conservative: codes-sized
	c2 := wse.RampLatency + stateW
	transfer := c2
	if pl == 1 {
		transfer = stateW / 4 // emission of the (smaller) encoded block
	}

	// Input feed: a row's west edge can absorb at most one block per
	// (wavelets + link latency) cycles; with P pipelines per row a round
	// needs P blocks.
	inputRound := float64(P) * (w.AvgInputWavelets + wse.LinkLatency)

	round := relay + bottleneck + transfer
	if inputRound > round {
		round = inputRound
	}

	rows := cfg.Rows
	if rows > w.Blocks {
		rows = w.Blocks
	}
	blocksPerRow := (w.Blocks + rows - 1) / rows
	rounds := int64((blocksPerRow + P - 1) / P)

	// One-time fill: stream a block across the row plus one full chain
	// execution and its intra-pipeline transfers.
	fill := float64(cfg.Cols)*(c1+wse.LinkLatency) + chainTotal + float64(pl)*c2

	total := fill + float64(rounds)*round
	secs := total / wse.ClockHz
	proj := Projection{
		RoundCycles:    round,
		RelayCycles:    relay,
		ComputeCycles:  bottleneck,
		TransferCycles: transfer,
		Rounds:         rounds,
		FillCycles:     fill,
		TotalCycles:    total,
		Seconds:        secs,
	}
	if secs > 0 {
		proj.ThroughputGBps = float64(4*w.Elements) / secs / 1e9
	}
	blockBytes := 4 * float64(w.Elements) / float64(w.Blocks)
	proj.SteadyThroughputGBps = float64(cfg.Rows) * float64(P) * blockBytes / (round / wse.ClockHz) / 1e9
	return proj, nil
}

// verbatimCosts returns per-stage costs for a verbatim block.
func (p *Plan) verbatimCosts() []int64 {
	st := stages.NewBlockState[float32](p.Chain.Cfg.BlockLen)
	st.Verbatim = true
	out := make([]int64, len(p.Chain.Stages))
	for i := range p.Chain.Stages {
		out[i] = p.Chain.Stages[i].Cycles(st)
	}
	return out
}

// UniformWorkload builds a Workload in which every block has the given
// fixed length — handy for calibration experiments.
func UniformWorkload(blocks, elements int, width uint, avgInputWavelets float64) Workload {
	var w Workload
	w.Blocks = blocks
	w.Elements = elements
	w.WidthHist[width] = blocks
	w.AvgInputWavelets = avgInputWavelets
	return w
}

// ThroughputGBps converts a cycle count and byte volume at clock hz.
func ThroughputGBps(bytes int64, cycles int64, hz float64) float64 {
	if cycles <= 0 {
		return 0
	}
	return float64(bytes) / (float64(cycles) / hz) / 1e9
}

// SpeedupIsLinear checks an (x, time) series for linear scaling: doubling
// x should halve time within tol (e.g. 0.15 for 15%). Used by the Fig. 7 /
// Fig. 14 reproductions.
func SpeedupIsLinear(xs []int, times []float64, tol float64) error {
	if len(xs) != len(times) || len(xs) < 2 {
		return fmt.Errorf("mapping: need matched series of ≥2 points")
	}
	base := times[0] * float64(xs[0])
	for i := 1; i < len(xs); i++ {
		work := times[i] * float64(xs[i])
		if math.Abs(work-base)/base > tol {
			return fmt.Errorf("mapping: point %d (x=%d) deviates %.1f%% from linear scaling",
				i, xs[i], 100*math.Abs(work-base)/base)
		}
	}
	return nil
}
