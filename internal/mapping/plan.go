package mapping

import (
	"fmt"

	"ceresz/internal/stages"
	"ceresz/internal/telemetry"
	"ceresz/internal/wse"
)

// telPlanBuild times Algorithm 1 planning on the host path (Default
// registry; disabled unless a CLI opts in).
var telPlanBuild = telemetry.T("mapping.plan_build")

// DefaultMsgOverhead is the calibrated per-message relay overhead (cycles
// of task activation + DSD setup per forwarded block, §2.1). It is what
// keeps tiny messages — zero blocks are a single wavelet — from relaying
// for free, and it is applied whenever PlanConfig.Mesh.MsgOverhead is
// unset.
const DefaultMsgOverhead = 30

// PlanConfig selects the mesh geometry and pipeline shape for a run.
type PlanConfig struct {
	// Mesh is the simulated wafer geometry and timing.
	Mesh wse.Config
	// PipelineLen is the number of consecutive PEs each pipeline spans
	// (the paper's pipeline_length; 1 runs the whole chain on a single PE,
	// which §4.4 shows is optimal when memory and input rate allow).
	PipelineLen int
	// ProcessorRelay forces the paper-literal Fig. 9 protocol on interior
	// pipeline PEs: raw traffic crossing them occupies their processor.
	// The default (false) lets the fabric router pass raw traffic through
	// interior PEs in hardware (paper Fig. 3 static color routing), which
	// is how a production CSL implementation would wire it — only head
	// PEs, which must count and capture blocks, relay in software. Head
	// PEs always use processor relay; the two modes emit identical bytes.
	ProcessorRelay bool
	// RecordSpans traces every block's lifecycle (inject → relay hops →
	// stage groups → eject) through the simulator's span log; the result
	// carries the assembled Result.Spans and the raw Result.SpanLog for
	// Perfetto export. Off by default — tracing every block costs memory
	// proportional to blocks × pipeline hops. Deterministic: the recorded
	// spans are bit-identical for any Mesh.Workers setting.
	RecordSpans bool
}

// Plan is a validated mapping of a stage chain onto a mesh.
type Plan struct {
	Chain  *stages.Chain[float32]
	Cfg    PlanConfig
	Groups []Group
	// EstCosts are the planning-time sub-stage costs fed to Algorithm 1.
	EstCosts []int64
	// Pipelines is the number of pipelines per row (⌊Cols/PipelineLen⌋).
	Pipelines int
	// groupLabels holds the span label for each pipeline position
	// ("group00"…), precomputed so handlers never format in the hot path.
	groupLabels []string
}

// NewPlan distributes the chain's sub-stages over PipelineLen PEs with
// Algorithm 1 and validates geometry and per-PE memory.
func NewPlan(chain *stages.Chain[float32], cfg PlanConfig) (*Plan, error) {
	defer telPlanBuild.Start().End()
	if chain == nil {
		return nil, fmt.Errorf("mapping: nil chain")
	}
	if cfg.PipelineLen < 1 {
		return nil, fmt.Errorf("mapping: pipeline length %d < 1", cfg.PipelineLen)
	}
	if cfg.Mesh.MsgOverhead == 0 {
		cfg.Mesh.MsgOverhead = DefaultMsgOverhead
	}
	mesh := cfg.Mesh
	if mesh.Rows < 1 || mesh.Cols < 1 {
		return nil, fmt.Errorf("mapping: invalid mesh %dx%d", mesh.Rows, mesh.Cols)
	}
	if cfg.PipelineLen > mesh.Cols {
		return nil, fmt.Errorf("mapping: pipeline length %d exceeds %d columns", cfg.PipelineLen, mesh.Cols)
	}
	if cfg.PipelineLen > len(chain.Stages) {
		return nil, fmt.Errorf("mapping: pipeline length %d exceeds %d sub-stages", cfg.PipelineLen, len(chain.Stages))
	}
	costs := chain.EstimateCycles(uint(chain.Cfg.EstWidth))
	groups, err := Distribute(costs, cfg.PipelineLen)
	if err != nil {
		return nil, err
	}
	p := &Plan{
		Chain:     chain,
		Cfg:       cfg,
		Groups:    groups,
		EstCosts:  costs,
		Pipelines: mesh.Cols / cfg.PipelineLen,
	}
	p.groupLabels = make([]string, len(groups))
	for i := range groups {
		p.groupLabels[i] = fmt.Sprintf("group%02d", i)
	}
	if err := p.checkMemory(); err != nil {
		return nil, err
	}
	return p, nil
}

// checkMemory conservatively verifies the 48 KB local-memory budget: every
// PE must hold one full block state (the flowing representation) plus a
// relay buffer for one raw block. This is what forces longer pipelines (or
// smaller blocks) when L grows (paper §4.4, assumption 2).
func (p *Plan) checkMemory() error {
	L := p.Chain.Cfg.BlockLen
	need := stateBytes(L)/p.Cfg.PipelineLen + relayBytes(L) // longer pipelines split the state
	budget := p.Cfg.Mesh.WithDefaults().MemPerPE
	if need > budget {
		return fmt.Errorf("mapping: block length %d needs ≈%d bytes per PE, over the %d-byte budget; use a longer pipeline or smaller blocks",
			L, need, budget)
	}
	return nil
}

// stateBytes is the worst-case live block state: raw f32 + scaled f64 +
// codes + abs + signs + all 32 bit planes + encoded copy.
func stateBytes(L int) int {
	return L*4 + L*8 + L*4 + L*4 + L/8 + 32*L/8 + (4 + L/8 + 32*L/8)
}

// relayBytes is the buffer a PE needs to forward one raw block.
func relayBytes(L int) int { return 4 * L }

// BottleneckCycles returns the steady-state per-block compute cost of the
// slowest PE under the plan's grouping.
func (p *Plan) BottleneckCycles() int64 {
	return Bottleneck(p.EstCosts, p.Groups)
}

// TotalCycles returns the planning-time total chain cost C.
func (p *Plan) TotalCycles() int64 {
	var sum int64
	for _, c := range p.EstCosts {
		sum += c
	}
	return sum
}

// GroupOf returns the stage group of pipeline position pos.
func (p *Plan) GroupOf(pos int) Group { return p.Groups[pos] }

// GroupLabel returns the span-log label of pipeline position pos — the
// string the PE programs stamp on their dispatch span events.
func (p *Plan) GroupLabel(pos int) string { return p.groupLabels[pos] }

// Describe renders the grouping for logs: one line per PE position.
func (p *Plan) Describe() string {
	s := fmt.Sprintf("pipeline length %d, %d pipelines/row, bottleneck %d cycles\n",
		p.Cfg.PipelineLen, p.Pipelines, p.BottleneckCycles())
	names := p.Chain.StageNames()
	for i, g := range p.Groups {
		s += fmt.Sprintf("  PE %d: %v (%d cycles)\n", i, names[g.Lo:g.Hi], GroupCost(p.EstCosts, g))
	}
	return s
}
