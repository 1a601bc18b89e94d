// Package critpath turns a simulated mapping run's raw observability —
// per-PE cycle attribution (wse.Attribution) and per-block lifecycle
// spans (wse.BlockSpan) — into answers to the questions the paper's
// evaluation asks: which stage group bottlenecks the pipeline (Fig. 10's
// per-PE execution profile), how balanced Algorithm 1's packing came out
// (Fig. 13), and how the measured relay-feed cost compares to the
// Formula (2)–(4) analytic model. Deltas between model and measurement
// are reported, never asserted — the analyzer is a lens, not a test.
package critpath

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"ceresz/internal/mapping"
	"ceresz/internal/wse"
)

// GroupStats aggregates one pipeline position (stage group) over every
// pipeline and row that instantiates it.
type GroupStats struct {
	// Pos is the pipeline position; Label is its span-log name
	// ("group00"…); Stages lists the sub-stages Algorithm 1 packed in.
	Pos    int      `json:"pos"`
	Label  string   `json:"label"`
	Stages []string `json:"stages"`
	// PEs is how many PEs run this group (rows × pipelines).
	PEs int `json:"pes"`
	// Busy/Compute/QueueWait/FabricStall/Idle sum the attribution buckets
	// over the group's PEs.
	Busy        int64 `json:"busy"`
	Compute     int64 `json:"compute"`
	QueueWait   int64 `json:"queue_wait"`
	FabricStall int64 `json:"fabric_stall"`
	Idle        int64 `json:"idle"`
	// MaxBusy / MaxBusyPE identify the group's own critical PE.
	MaxBusy   int64     `json:"max_busy"`
	MaxBusyPE wse.Coord `json:"max_busy_pe"`
	// Occupancy is Busy / (PEs · Elapsed): the group's mean duty cycle.
	Occupancy float64 `json:"occupancy"`
}

// RelayCheck compares the measured per-hop relay cost against the
// Formula (2) model term C₁ = MsgOverhead + AvgInputWavelets.
type RelayCheck struct {
	// Forwards counts processor relay hops (Context.Forward calls).
	Forwards int64 `json:"forwards"`
	// MeasuredPerHop is total relay cycles / Forwards.
	MeasuredPerHop float64 `json:"measured_per_hop"`
	// ModelPerHop is the analytic C₁.
	ModelPerHop float64 `json:"model_per_hop"`
	// DeltaPct is (measured − model) / model · 100.
	DeltaPct float64 `json:"delta_pct"`
}

// ModelCheck compares the run's measured cycle count against the full
// Formula (2)–(4) projection for the same workload.
type ModelCheck struct {
	MeasuredCycles int64   `json:"measured_cycles"`
	ModelCycles    float64 `json:"model_cycles"`
	// DeltaPct is (measured − model) / model · 100.
	DeltaPct float64 `json:"delta_pct"`
}

// PathSegment is one leg of the critical block's walk across the wafer.
type PathSegment struct {
	// Label names the leg: a stage-group or relay label for work,
	// "queue-wait" / "fabric" / "mailbox" for waits, "route" for router
	// hops.
	Label string `json:"label"`
	// PE is where the leg happened (meaningless for waits spanning PEs).
	PE wse.Coord `json:"pe"`
	// From/To bound the leg; Cycles = To − From.
	From   int64 `json:"from"`
	To     int64 `json:"to"`
	Cycles int64 `json:"cycles"`
}

// Report is the analyzer's full verdict for one run.
type Report struct {
	// Elapsed is the run length in cycles.
	Elapsed int64 `json:"elapsed"`
	// Groups holds per-position aggregates, pipeline order.
	Groups []GroupStats `json:"groups"`
	// BottleneckPos/BottleneckLabel name the stage group with the largest
	// busy total — the pipeline's rate limiter.
	BottleneckPos   int    `json:"bottleneck_pos"`
	BottleneckLabel string `json:"bottleneck_label"`
	// BusiestPE is MeshStats' critical PE and BusiestPEPos its pipeline
	// position; AgreesWithMeshStats reports whether the span/attribution
	// analysis and the aggregate busy counters name the same group.
	BusiestPE           wse.Coord `json:"busiest_pe"`
	BusiestPEPos        int       `json:"busiest_pe_pos"`
	AgreesWithMeshStats bool      `json:"agrees_with_mesh_stats"`
	// ImbalancePct is (max − min) / max · 100 over the groups' busy
	// totals — Algorithm 1's packing quality (0 is perfect balance).
	ImbalancePct float64 `json:"imbalance_pct"`
	// PipelineBottlenecks[p] is the bottleneck position of pipeline p
	// considered alone (summed over rows).
	PipelineBottlenecks []int `json:"pipeline_bottlenecks,omitempty"`
	// Relay is the Formula (2) per-hop cross-check; Model the full
	// Formula (2)–(4) projection cross-check.
	Relay RelayCheck `json:"relay"`
	Model ModelCheck `json:"model"`
	// SpanCount is how many block spans the run recorded (0 when span
	// tracing was off — the span-dependent fields below are then empty).
	SpanCount int `json:"span_count"`
	// CriticalSpan is the id of the last block to leave the wafer; its
	// end-to-end latency decomposes into CriticalPath.
	CriticalSpan    int64         `json:"critical_span,omitempty"`
	CriticalLatency int64         `json:"critical_latency,omitempty"`
	CriticalPath    []PathSegment `json:"critical_path,omitempty"`
}

// Options tunes the analysis.
type Options struct {
	// AvgInputWavelets overrides the mean fabric size of one input block
	// for the model cross-checks; 0 uses the plan's block length (exact
	// for compression, conservative for decompression).
	AvgInputWavelets float64
}

// Analyze builds the report for one finished run. It needs only what
// Result already carries: the mesh's attribution always, Spans when the
// plan set RecordSpans (the critical-path fields stay empty without them).
func Analyze(plan *mapping.Plan, res *mapping.Result, opts Options) Report {
	att := res.Attribution()
	pl := plan.Cfg.PipelineLen
	names := plan.Chain.StageNames()
	rep := Report{Elapsed: att.Elapsed}

	// Per-position aggregates. Only columns inside a pipeline belong to a
	// group; the span labels and col % PipelineLen agree by construction
	// (see mapping.install).
	rep.Groups = make([]GroupStats, pl)
	for pos := range rep.Groups {
		g := plan.GroupOf(pos)
		rep.Groups[pos] = GroupStats{
			Pos:    pos,
			Label:  plan.GroupLabel(pos),
			Stages: append([]string(nil), names[g.Lo:g.Hi]...),
		}
	}
	pipeBusy := map[[2]int]int64{} // (pipeline, pos) → busy
	for _, pa := range att.PEs {
		if pa.PE.Col >= plan.Pipelines*pl {
			continue // outside every pipeline (no program installed)
		}
		pos := pa.PE.Col % pl
		gs := &rep.Groups[pos]
		gs.PEs++
		gs.Busy += pa.Busy()
		gs.Compute += pa.Compute
		gs.QueueWait += pa.QueueWait
		gs.FabricStall += pa.FabricStall
		gs.Idle += pa.Idle
		if pa.Busy() > gs.MaxBusy {
			gs.MaxBusy = pa.Busy()
			gs.MaxBusyPE = pa.PE
		}
		pipeBusy[[2]int{pa.PE.Col / pl, pos}] += pa.Busy()
	}
	for pos := range rep.Groups {
		gs := &rep.Groups[pos]
		if gs.PEs > 0 && att.Elapsed > 0 {
			gs.Occupancy = float64(gs.Busy) / (float64(gs.PEs) * float64(att.Elapsed))
		}
	}

	// Bottleneck group: most busy cycles in total. Ties resolve to the
	// earliest position, matching MeshStats' first-wins BusiestPE scan.
	minBusy := rep.Groups[0].Busy
	for pos := 1; pos < len(rep.Groups); pos++ {
		b := rep.Groups[pos].Busy
		if b > rep.Groups[rep.BottleneckPos].Busy {
			rep.BottleneckPos = pos
		}
		if b < minBusy {
			minBusy = b
		}
	}
	rep.BottleneckLabel = rep.Groups[rep.BottleneckPos].Label
	if maxBusy := rep.Groups[rep.BottleneckPos].Busy; maxBusy > 0 {
		rep.ImbalancePct = 100 * float64(maxBusy-minBusy) / float64(maxBusy)
	}

	// Per-pipeline bottlenecks.
	rep.PipelineBottlenecks = make([]int, plan.Pipelines)
	for p := range rep.PipelineBottlenecks {
		best := int64(-1)
		for pos := 0; pos < pl; pos++ {
			if b := pipeBusy[[2]int{p, pos}]; b > best {
				best = b
				rep.PipelineBottlenecks[p] = pos
			}
		}
	}

	// Cross-check against the aggregate busy counters.
	sum := res.Mesh.Summary()
	rep.BusiestPE = sum.BusiestPE
	rep.BusiestPEPos = sum.BusiestPE.Col % pl
	rep.AgreesWithMeshStats = rep.BusiestPEPos == rep.BottleneckPos

	rep.Relay, rep.Model = modelChecks(plan, res, opts)
	analyzeSpans(&rep, res.Spans)
	return rep
}

// modelChecks computes the Formula (2) per-hop and Formula (2)–(4)
// end-to-end comparisons.
func modelChecks(plan *mapping.Plan, res *mapping.Result, opts Options) (RelayCheck, ModelCheck) {
	cfg := res.Mesh.Config()
	avgW := opts.AvgInputWavelets
	if avgW == 0 {
		avgW = float64(plan.Chain.Cfg.BlockLen)
	}

	var rc RelayCheck
	rc.Forwards = res.Mesh.AttributionTotals().Totals.Forwarded
	relayCycles := res.Mesh.Summary().TotalRelay
	rc.ModelPerHop = float64(cfg.MsgOverhead) + avgW
	if rc.Forwards > 0 {
		rc.MeasuredPerHop = float64(relayCycles) / float64(rc.Forwards)
		rc.DeltaPct = 100 * (rc.MeasuredPerHop - rc.ModelPerHop) / rc.ModelPerHop
	}

	var mc ModelCheck
	mc.MeasuredCycles = res.Cycles
	blocks := res.Meta.Blocks()
	if blocks > 0 {
		w := mapping.UniformWorkload(blocks, res.Meta.Elements, uint(plan.Chain.Cfg.EstWidth), avgW)
		if proj, err := plan.Project(w); err == nil && proj.TotalCycles > 0 {
			mc.ModelCycles = proj.TotalCycles
			mc.DeltaPct = 100 * (float64(res.Cycles) - proj.TotalCycles) / proj.TotalCycles
		}
	}
	return rc, mc
}

// analyzeSpans fills the span-dependent report fields: the critical
// (last-ejecting) block and its per-leg latency decomposition.
func analyzeSpans(rep *Report, spans []wse.BlockSpan) {
	rep.SpanCount = len(spans)
	if len(spans) == 0 {
		return
	}
	crit := -1
	for i, b := range spans {
		if b.EjectAt < 0 {
			continue
		}
		if crit < 0 || b.EjectAt > spans[crit].EjectAt {
			crit = i
		}
	}
	if crit < 0 {
		return
	}
	b := spans[crit]
	rep.CriticalSpan = b.Span
	rep.CriticalLatency = b.Latency()

	cursor := b.InjectAt
	add := func(label string, pe wse.Coord, from, to int64) {
		if to <= from {
			return
		}
		rep.CriticalPath = append(rep.CriticalPath, PathSegment{
			Label: label, PE: pe, From: from, To: to, Cycles: to - from,
		})
	}
	for _, ev := range b.Events {
		switch ev.Kind {
		case wse.SpanRoute:
			// Fabric transit from the previous hop to this router, then
			// the router's own link occupancy.
			add("fabric", ev.PE, cursor, ev.At)
			add("route", ev.PE, max64(cursor, ev.At), ev.End)
		case wse.SpanDispatch:
			// Waits leading into this hop: upstream production, fabric
			// transfer, then mailbox residency at the receiver.
			add("queue-wait", ev.PE, cursor, min64(ev.Sent, ev.At))
			add("fabric", ev.PE, max64(cursor, ev.Sent), min64(ev.Arrived, ev.At))
			add("mailbox", ev.PE, max64(cursor, ev.Arrived), ev.At)
			label := ev.Label
			if label == "" {
				label = "dispatch"
			}
			add(label, ev.PE, ev.At, ev.End)
		}
		if ev.End > cursor {
			cursor = ev.End
		}
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// WriteTo renders the report as human-readable lines.
func (r Report) WriteTo(w io.Writer) (int64, error) {
	var total int64
	emit := func(format string, args ...any) error {
		n, err := fmt.Fprintf(w, format, args...)
		total += int64(n)
		return err
	}
	if err := emit("critical path over %d cycles:\n", r.Elapsed); err != nil {
		return total, err
	}
	for _, g := range r.Groups {
		mark := " "
		if g.Pos == r.BottleneckPos {
			mark = "*"
		}
		if err := emit("%s %-8s %-28s pes=%-4d busy=%-10d occ=%5.1f%% qwait=%-10d fstall=%-10d\n",
			mark, g.Label, strings.Join(g.Stages, "+"), g.PEs, g.Busy,
			100*g.Occupancy, g.QueueWait, g.FabricStall); err != nil {
			return total, err
		}
	}
	agree := "agrees"
	if !r.AgreesWithMeshStats {
		agree = "DISAGREES"
	}
	if err := emit("bottleneck %s (imbalance %.1f%%); MeshStats busiest %v is position %d — %s\n",
		r.BottleneckLabel, r.ImbalancePct, r.BusiestPE, r.BusiestPEPos, agree); err != nil {
		return total, err
	}
	if r.Relay.Forwards > 0 {
		if err := emit("relay cost: measured %.1f cyc/hop vs model C1=%.1f (Formula 2): %+.1f%%\n",
			r.Relay.MeasuredPerHop, r.Relay.ModelPerHop, r.Relay.DeltaPct); err != nil {
			return total, err
		}
	}
	if r.Model.ModelCycles > 0 {
		if err := emit("end-to-end: measured %d cycles vs model %.0f (Formulas 2-4): %+.1f%%\n",
			r.Model.MeasuredCycles, r.Model.ModelCycles, r.Model.DeltaPct); err != nil {
			return total, err
		}
	}
	if r.SpanCount > 0 {
		if err := emit("spans: %d blocks traced; critical block %d latency %d cycles\n",
			r.SpanCount, r.CriticalSpan, r.CriticalLatency); err != nil {
			return total, err
		}
		// Collapse the walk into per-label totals for readability.
		byLabel := map[string]int64{}
		var labels []string
		for _, seg := range r.CriticalPath {
			if _, ok := byLabel[seg.Label]; !ok {
				labels = append(labels, seg.Label)
			}
			byLabel[seg.Label] += seg.Cycles
		}
		sort.Slice(labels, func(i, j int) bool { return byLabel[labels[i]] > byLabel[labels[j]] })
		for _, l := range labels {
			pct := 0.0
			if r.CriticalLatency > 0 {
				pct = 100 * float64(byLabel[l]) / float64(r.CriticalLatency)
			}
			if err := emit("  %-12s %10d cycles (%5.1f%%)\n", l, byLabel[l], pct); err != nil {
				return total, err
			}
		}
	}
	return total, nil
}

// String renders the report via WriteTo.
func (r Report) String() string {
	var sb strings.Builder
	_, _ = r.WriteTo(&sb)
	return sb.String()
}
