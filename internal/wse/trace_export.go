package wse

import (
	"fmt"
	"io"

	"ceresz/internal/telemetry"
)

// Chrome trace-event export for the simulator's SpanLog. It renders
// through the shared telemetry.ChromeTraceWriter — the same machinery the
// serving path uses for request spans — so simulator and server captures
// open in the same viewer with the same conventions.

// WriteChromeTrace renders the span log as a Chrome trace-event JSON
// array: one track per PE, one slice per lifecycle point of every traced
// block, and one flow arrow chain (ph "s"/"t"/"f", id = span id) linking
// each block's inject → hops → eject across tracks — Perfetto draws a
// block's whole journey over the wafer. Timestamps are simulator cycles
// presented as microseconds (one Perfetto "µs" is one PE clock cycle);
// cfg must be the configuration of the mesh that produced the log.
func (sl *SpanLog) WriteChromeTrace(w io.Writer, cfg Config) error {
	tw := telemetry.NewChromeTraceWriter(w)

	tid := func(c Coord) int { return c.Row*cfg.Cols + c.Col }
	seen := map[int]bool{}
	for _, e := range sl.events {
		id := tid(e.PE)
		if seen[id] {
			continue
		}
		seen[id] = true
		tw.Emit(telemetry.ThreadName(0, id, fmt.Sprintf("PE(%d,%d)", e.PE.Row, e.PE.Col)))
	}

	for _, b := range sl.BlockSpans() {
		flowID := fmt.Sprintf("%d", b.Span)
		for i, e := range b.Events {
			name := e.Kind.String()
			if e.Kind == SpanDispatch && e.Label != "" {
				name = e.Label
			}
			slice := telemetry.ChromeEvent{
				Name: name, Cat: "span", Ph: "X",
				Ts: e.At, Dur: 1, Pid: 0, Tid: tid(e.PE),
				Args: map[string]any{"span": b.Span, "wavelets": e.Wavelets},
			}
			if e.End > e.At {
				slice.Dur = e.End - e.At
			}
			switch e.Kind {
			case SpanInject:
				slice.Cname = "grey"
			case SpanRoute:
				slice.Cname = "yellow"
			case SpanDispatch:
				slice.Cname = "good"
				slice.Args["sent"] = e.Sent
				slice.Args["arrived"] = e.Arrived
			case SpanEject:
				slice.Cname = "grey"
			}
			tw.Emit(slice)
			// Flow arrow chain: start on the first lifecycle point, step
			// through the middle ones, finish (binding to the enclosing
			// slice's start, bp "e") on the last. Flow events bind to the
			// slice at the same (tid, ts), i.e. the one just emitted.
			flow := telemetry.ChromeEvent{Name: "block", Cat: "span", Ts: e.At, Pid: 0,
				Tid: tid(e.PE), ID: flowID}
			switch {
			case len(b.Events) == 1:
				continue // a single point has no arrow to draw
			case i == 0:
				flow.Ph = "s"
			case i == len(b.Events)-1:
				flow.Ph = "f"
				flow.BP = "e"
			default:
				flow.Ph = "t"
			}
			tw.Emit(flow)
		}
	}
	return tw.Close()
}

// UtilizationGrid returns each PE's busy fraction (busy cycles / elapsed
// cycles) as a Rows×Cols grid. An idle mesh yields all zeros.
func (m *Mesh) UtilizationGrid() [][]float64 {
	elapsed := m.Elapsed()
	grid := make([][]float64, m.cfg.Rows)
	for r := range grid {
		grid[r] = make([]float64, m.cfg.Cols)
		if elapsed == 0 {
			continue
		}
		for c := 0; c < m.cfg.Cols; c++ {
			grid[r][c] = float64(m.pes[r*m.cfg.Cols+c].stats.BusyCycles()) / float64(elapsed)
		}
	}
	return grid
}

// WriteHeatmapCSV writes the per-PE utilization heatmap as a Rows×Cols
// CSV of busy fractions — row r of the mesh is line r of the file.
func (m *Mesh) WriteHeatmapCSV(w io.Writer) error {
	for _, row := range m.UtilizationGrid() {
		for c, u := range row {
			if c > 0 {
				if _, err := io.WriteString(w, ","); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%.6f", u); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(w, "\n"); err != nil {
			return err
		}
	}
	return nil
}

// heatShades maps utilization deciles to terminal shades.
const heatShades = " .:-=+*#%@"

// WriteHeatmapASCII renders the utilization heatmap as one shade character
// per PE (space = idle, '@' = ≥90% busy), a quick terminal view of the
// paper's Fig. 10 balance profile across the whole mesh.
func (m *Mesh) WriteHeatmapASCII(w io.Writer) {
	fmt.Fprintf(w, "per-PE utilization (%dx%d mesh, %d cycles; shade ramp %q):\n",
		m.cfg.Rows, m.cfg.Cols, m.Elapsed(), heatShades)
	for _, row := range m.UtilizationGrid() {
		line := make([]byte, len(row))
		for c, u := range row {
			idx := int(u * 10)
			if idx >= len(heatShades) {
				idx = len(heatShades) - 1
			}
			if idx < 0 {
				idx = 0
			}
			line[c] = heatShades[idx]
		}
		fmt.Fprintf(w, "|%s|\n", line)
	}
}
