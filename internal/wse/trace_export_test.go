package wse

import (
	"bytes"
	"strings"
	"testing"
)

func TestHeatmapCSV(t *testing.T) {
	m, _ := tracedMesh(t, 4)
	var buf bytes.Buffer
	if err := m.WriteHeatmapCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != m.Config().Rows {
		t.Fatalf("heatmap has %d rows, want %d", len(lines), m.Config().Rows)
	}
	for _, line := range lines {
		cells := strings.Split(line, ",")
		if len(cells) != m.Config().Cols {
			t.Fatalf("heatmap row %q has %d cells, want %d", line, len(cells), m.Config().Cols)
		}
	}
	// The head PE worked; the routed-through middle PE's processor did not.
	grid := m.UtilizationGrid()
	if grid[0][0] <= 0 || grid[0][2] <= 0 {
		t.Fatalf("active PEs show zero utilization: %v", grid)
	}
	if grid[0][1] != 0 {
		t.Fatalf("router pass-through PE shows processor utilization %g", grid[0][1])
	}
	for _, row := range grid {
		for _, u := range row {
			if u < 0 || u > 1 {
				t.Fatalf("utilization %g outside [0,1]", u)
			}
		}
	}
}

func TestHeatmapIdleMesh(t *testing.T) {
	m, err := NewMesh(Config{Rows: 2, Cols: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.WriteHeatmapCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if want := "0.000000,0.000000\n0.000000,0.000000\n"; buf.String() != want {
		t.Fatalf("idle heatmap:\n%q\nwant\n%q", buf.String(), want)
	}
	var ascii bytes.Buffer
	m.WriteHeatmapASCII(&ascii)
	if !strings.Contains(ascii.String(), "2x2 mesh") {
		t.Fatalf("ascii heatmap header:\n%s", ascii.String())
	}
}

func TestHeatmapASCIIShades(t *testing.T) {
	m, _ := tracedMesh(t, 8)
	var buf bytes.Buffer
	m.WriteHeatmapASCII(&buf)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	// Header plus one line per mesh row, each |-delimited and Cols wide.
	if len(lines) != 1+m.Config().Rows {
		t.Fatalf("ascii heatmap:\n%s", buf.String())
	}
	for _, line := range lines[1:] {
		if !strings.HasPrefix(line, "|") || !strings.HasSuffix(line, "|") {
			t.Fatalf("unframed heatmap line %q", line)
		}
		if len(line) != m.Config().Cols+2 {
			t.Fatalf("heatmap line %q width %d, want %d", line, len(line), m.Config().Cols+2)
		}
	}
}
