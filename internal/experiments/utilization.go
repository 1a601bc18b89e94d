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

// SimOccupancy is the simulator's aggregate cycle attribution for one
// run, emitted by cereszbench -json for scripting. Cycle buckets are summed over active PEs; their per-PE sums partition
// [0, elapsed] exactly, so queue-wait/fabric-stall shifts between two
// builds are directly comparable.
type SimOccupancy struct {
	ElapsedCycles     int64   `json:"elapsed_cycles"`
	ActivePEs         int     `json:"active_pes"`
	ComputeCycles     int64   `json:"compute_cycles"`
	RelayFwdCycles    int64   `json:"relay_forward_cycles"`
	QueueWaitCycles   int64   `json:"queue_wait_cycles"`
	FabricStallCycles int64   `json:"fabric_stall_cycles"`
	IdleCycles        int64   `json:"idle_cycles"`
	MailboxWaitCycles int64   `json:"mailbox_wait_cycles"`
	OccupancyPct      float64 `json:"occupancy_pct"` // busy / (active_pes × elapsed)
	PoolPeakWorkers   int     `json:"pool_peak_workers"`
}

// simOccupancy derives the diffable aggregate from a finished run.
func simOccupancy(r *mapping.Result) SimOccupancy {
	att := r.Mesh.AttributionTotals()
	t := att.Totals
	occ := 0.0
	if att.ActivePEs > 0 && att.Elapsed > 0 {
		occ = 100 * float64(t.Busy()) / float64(int64(att.ActivePEs)*att.Elapsed)
	}
	return SimOccupancy{
		ElapsedCycles:     att.Elapsed,
		ActivePEs:         att.ActivePEs,
		ComputeCycles:     t.Compute,
		RelayFwdCycles:    t.RelayForward,
		QueueWaitCycles:   t.QueueWait,
		FabricStallCycles: t.FabricStall,
		IdleCycles:        t.Idle,
		MailboxWaitCycles: t.MailboxWait,
		OccupancyPct:      occ,
		PoolPeakWorkers:   r.Mesh.PoolPeak(),
	}
}

// UtilizationRow is one configuration's PE-utilization summary.
type UtilizationRow struct {
	PipelineLen     int
	ProcessorRelay  bool
	Cycles          int64
	MeanUtilization float64
	BusiestPE       wse.Coord
	RelayShare      float64 // relay cycles / busy cycles, aggregate
	// Sim carries the stall-attribution aggregate for benchdiff.
	Sim SimOccupancy `json:"sim"`
}

// UtilizationResult addresses the paper's future-work question ("further
// improve the computation balance and bandwidth utilization of PEs") with
// measured per-PE utilization across pipeline lengths and the two relay
// modes, on an event-simulated 2×12 strip.
type UtilizationResult struct {
	Rows []UtilizationRow
}

// Utilization runs the sweep on a QMCPack sample.
func Utilization(cfg Config) (*UtilizationResult, error) {
	cfg = cfg.WithDefaults()
	ds, err := datasets.ByName("QMCPack", cfg.Scale)
	if err != nil {
		return nil, err
	}
	data := ds.Fields[0].Data(cfg.Seed)
	if len(data) > 32*1024 {
		data = data[:32*1024]
	}
	minV, maxV := quant.Range(data)
	eps, err := quant.REL(1e-3).Resolve(minV, maxV)
	if err != nil {
		return nil, err
	}
	res := &UtilizationResult{}
	for _, procRelay := range []bool{true, false} {
		for _, pl := range []int{1, 2, 3, 4, 6} {
			chain, err := stages.NewCompressChain(stages.Config{Eps: eps, EstWidth: 8})
			if err != nil {
				return nil, err
			}
			plan, err := mapping.NewPlan(chain, mapping.PlanConfig{
				Mesh:           wse.Config{Rows: 2, Cols: 12},
				PipelineLen:    pl,
				ProcessorRelay: procRelay,
			})
			if err != nil {
				return nil, err
			}
			r, err := plan.Compress(data)
			if err != nil {
				return nil, err
			}
			s := r.Mesh.Summary()
			relayShare := 0.0
			if busy := s.TotalCompute + s.TotalRelay + s.TotalSend; busy > 0 {
				relayShare = float64(s.TotalRelay) / float64(busy)
			}
			res.Rows = append(res.Rows, UtilizationRow{
				PipelineLen:     pl,
				ProcessorRelay:  procRelay,
				Cycles:          r.Cycles,
				MeanUtilization: s.MeanUtilization,
				BusiestPE:       s.BusiestPE,
				RelayShare:      relayShare,
				Sim:             simOccupancy(r),
			})
		}
	}
	return res, nil
}

// PrintUtilization renders the sweep.
func PrintUtilization(w io.Writer, r *UtilizationResult) {
	section(w, "PE utilization vs pipeline length (QMCPack, 2x12 mesh; paper future work)")
	fmt.Fprintf(w, "%14s %-16s %12s %12s %12s %11s %11s %s\n",
		"pipeline len", "relay mode", "cycles", "mean util", "relay share", "queue wait", "fab stall", "busiest")
	for _, row := range r.Rows {
		mode := "router"
		if row.ProcessorRelay {
			mode = "processor"
		}
		denom := float64(int64(row.Sim.ActivePEs) * row.Sim.ElapsedCycles)
		if denom == 0 {
			denom = 1
		}
		fmt.Fprintf(w, "%14d %-16s %12d %11.1f%% %11.1f%% %10.1f%% %10.1f%% %v\n",
			row.PipelineLen, mode, row.Cycles, 100*row.MeanUtilization, 100*row.RelayShare,
			100*float64(row.Sim.QueueWaitCycles)/denom, 100*float64(row.Sim.FabricStallCycles)/denom,
			row.BusiestPE)
	}
	fmt.Fprintln(w, "router relay removes interior-PE relay work; utilization spreads accordingly")
}
