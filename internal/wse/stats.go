package wse

import (
	"fmt"
	"io"
)

// MeshStats aggregates per-PE accounting over a finished run — the
// utilization view the paper's future-work section asks for ("further
// improve the computation balance and bandwidth utilization of PEs").
type MeshStats struct {
	// Elapsed is the completion cycle of the last PE.
	Elapsed int64
	// ActivePEs counts PEs that did any work.
	ActivePEs int
	// TotalCompute/TotalRelay/TotalSend sum the respective cycles over all
	// PEs.
	TotalCompute, TotalRelay, TotalSend int64
	// BusiestPE and BusiestCycles identify the critical PE.
	BusiestPE     Coord
	BusiestCycles int64
	// MeanUtilization is mean(busy/elapsed) over active PEs.
	MeanUtilization float64
	// MemPeak is the largest local-memory high-water mark.
	MemPeak int
}

// Summary computes aggregate statistics for the run so far.
func (m *Mesh) Summary() MeshStats {
	s, _ := m.Totals(nil)
	return s
}

// Totals is Summary and AttributionTotals from one walk over the mesh.
// When colCompute is not nil (one entry per column), the walk also adds
// each PE's compute cycles to its column's entry.
func (m *Mesh) Totals(colCompute []int64) (MeshStats, Attribution) {
	elapsed := m.Elapsed()
	s := MeshStats{Elapsed: elapsed}
	att := Attribution{Elapsed: elapsed, MeshPEs: len(m.pes)}
	var busySum float64
	for i := range m.pes {
		pe := &m.pes[i]
		st := &pe.stats
		if colCompute != nil {
			colCompute[pe.coord.Col] += st.ComputeCycles
		}
		if pa, ok := pe.attribution(elapsed); ok {
			att.ActivePEs++
			att.Totals.add(&pa)
		}
		busy := st.BusyCycles()
		if busy == 0 && st.Handled == 0 {
			continue
		}
		s.ActivePEs++
		s.TotalCompute += st.ComputeCycles
		s.TotalRelay += st.RelayCycles
		s.TotalSend += st.SendCycles
		if busy > s.BusiestCycles {
			s.BusiestCycles = busy
			s.BusiestPE = pe.coord
		}
		if st.MemPeak > s.MemPeak {
			s.MemPeak = st.MemPeak
		}
		if elapsed > 0 {
			busySum += float64(busy) / float64(elapsed)
		}
	}
	if s.ActivePEs > 0 {
		s.MeanUtilization = busySum / float64(s.ActivePEs)
	}
	return s, att
}

// RowProfile returns the busy cycles of every PE in a row, west to east —
// the per-PE view behind the paper's Fig. 10 profiling.
func (m *Mesh) RowProfile(row int) []Stats {
	out := make([]Stats, m.cfg.Cols)
	for c := 0; c < m.cfg.Cols; c++ {
		out[c] = m.PE(row, c).Stats()
	}
	return out
}

// WriteUtilization renders a per-column utilization profile of one row.
func (m *Mesh) WriteUtilization(w io.Writer, row int) {
	elapsed := m.Elapsed()
	fmt.Fprintf(w, "row %d utilization over %d cycles:\n", row, elapsed)
	fmt.Fprintf(w, "%5s %12s %12s %12s %8s %8s\n", "col", "compute", "relay", "send", "busy%", "msgs")
	for c, st := range m.RowProfile(row) {
		busyPct := 0.0
		if elapsed > 0 {
			busyPct = 100 * float64(st.BusyCycles()) / float64(elapsed)
		}
		fmt.Fprintf(w, "%5d %12d %12d %12d %7.1f%% %8d\n",
			c, st.ComputeCycles, st.RelayCycles, st.SendCycles, busyPct, st.Handled)
	}
}
