package mapping

import (
	"fmt"

	"ceresz/internal/stages"
	"ceresz/internal/wse"
)

// TunerConstraints captures the two §4.4 assumptions that can force a
// pipeline longer than 1: the rate at which the host can generate data and
// the PE-local memory available for the live block state.
type TunerConstraints struct {
	// InputWaveletsPerCycle is the sustained host data rate per row in
	// 32-bit words per cycle (≤ 1, the link rate). Zero means "fast
	// enough to saturate" (the paper's assumption 1).
	InputWaveletsPerCycle float64
	// MemPerPE overrides the mesh memory budget (0 = mesh default).
	MemPerPE int
}

// TuningPoint records one candidate pipeline length's projected rate.
type TuningPoint struct {
	PipelineLen    int
	ThroughputGBps float64
	// Feasible is false when the candidate violates a constraint (memory
	// or stage count); infeasible points carry zero throughput.
	Feasible bool
	Reason   string
}

// SelectPipelineLength evaluates every useful pipeline length (1 …
// ⌊C/t₁⌋, §4.2) for the chain on the mesh under the workload and returns
// the best feasible choice with the full candidate table. This automates
// the paper's "the optimal configuration can be easily obtained by tuning"
// (§4.4).
func SelectPipelineLength(chain *stages.Chain[float32], mesh wse.Config, w Workload, cons TunerConstraints) (int, []TuningPoint, error) {
	if chain == nil {
		return 0, nil, fmt.Errorf("mapping: nil chain")
	}
	if cons.MemPerPE > 0 {
		mesh.MemPerPE = cons.MemPerPE
	}
	costs := chain.EstimateCycles(uint(chain.Cfg.EstWidth))
	maxLen := MaxPipelineLength(costs)
	if maxLen > mesh.Cols {
		maxLen = mesh.Cols
	}
	if maxLen > len(chain.Stages) {
		maxLen = len(chain.Stages)
	}

	var points []TuningPoint
	best := 0
	bestRate := 0.0
	for pl := 1; pl <= maxLen; pl++ {
		pt := TuningPoint{PipelineLen: pl}
		plan, err := NewPlan(chain, PlanConfig{Mesh: mesh, PipelineLen: pl})
		if err != nil {
			pt.Reason = err.Error()
			points = append(points, pt)
			continue
		}
		proj, err := plan.Project(w)
		if err != nil {
			pt.Reason = err.Error()
			points = append(points, pt)
			continue
		}
		rate := proj.SteadyThroughputGBps
		// Assumption 1 (§4.4): the host feed caps each row's intake. When
		// the feed is slower than the pipelines' demand, the row's rate is
		// feed-bound and longer pipelines stop costing throughput.
		if cons.InputWaveletsPerCycle > 0 {
			feedGBps := cons.InputWaveletsPerCycle * 4 * wse.ClockHz * float64(mesh.Rows) / 1e9
			if feedGBps < rate {
				rate = feedGBps
			}
		}
		pt.Feasible = true
		pt.ThroughputGBps = rate
		points = append(points, pt)
		if best == 0 || rate > bestRate {
			best = pl
			bestRate = rate
		}
	}
	if best == 0 {
		return 0, points, fmt.Errorf("mapping: no feasible pipeline length (memory too small for block length %d?)", chain.Cfg.BlockLen)
	}
	return best, points, nil
}
