package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSimRunCompress(t *testing.T) {
	if err := run(simOpts{rows: 2, cols: 6, pl: 2, blocks: 128, rel: 1e-3, seed: 7}); err != nil {
		t.Fatal(err)
	}
}

func TestSimRunDecompress(t *testing.T) {
	if err := run(simOpts{rows: 1, cols: 4, pl: 1, blocks: 64, rel: 1e-3, decompress: true, seed: 7}); err != nil {
		t.Fatal(err)
	}
}

func TestSimRunBadConfig(t *testing.T) {
	// Pipeline longer than columns is rejected by the planner.
	if err := run(simOpts{rows: 1, cols: 2, pl: 5, blocks: 32, rel: 1e-3, seed: 7}); err == nil {
		t.Fatal("accepted pipeline longer than the mesh")
	}
	if err := run(simOpts{rows: 1, cols: 2, pl: 1, blocks: 32, rel: 0, seed: 7}); err == nil {
		t.Fatal("accepted zero bound")
	}
}

// TestSimRunTraceAndHeatmap exercises the export path end to end: the
// trace file must be valid Chrome trace-event JSON (an array of ph:"X"
// slices, flow arrows and metadata, one track per PE) and the heatmap a
// rows×cols CSV.
func TestSimRunTraceAndHeatmap(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "out.json")
	heatPath := filepath.Join(dir, "out.csv")
	rows, cols := 2, 4
	if err := run(simOpts{
		rows: rows, cols: cols, pl: 1, blocks: 64, rel: 1e-3, seed: 7,
		traceFile: tracePath, heatmapFile: heatPath,
	}); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(raw, &events); err != nil {
		t.Fatalf("trace is not a JSON array: %v", err)
	}
	var slices int
	tids := map[float64]bool{}
	for _, ev := range events {
		switch ev["ph"] {
		case "X":
			slices++
			tids[ev["tid"].(float64)] = true
		case "M", "s", "t", "f":
		default:
			t.Fatalf("unexpected event phase %v", ev["ph"])
		}
	}
	if slices == 0 {
		t.Fatal("trace holds no slices")
	}
	if len(tids) < 2 {
		t.Fatalf("expected multiple PE tracks, got %d", len(tids))
	}

	heat, err := os.ReadFile(heatPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(heat)), "\n")
	if len(lines) != rows {
		t.Fatalf("heatmap has %d rows, want %d", len(lines), rows)
	}
	for _, line := range lines {
		if got := len(strings.Split(line, ",")); got != cols {
			t.Fatalf("heatmap row %q has %d cells, want %d", line, got, cols)
		}
	}
}

// TestSimRunSpanArtifacts runs -attrib -spans -trace -attribout on a 2×8
// mesh and checks the three artifacts: block spans, per-PE attribution,
// and a trace whose flow arrows start and finish.
func TestSimRunSpanArtifacts(t *testing.T) {
	dir := t.TempDir()
	spansPath := filepath.Join(dir, "spans.json")
	tracePath := filepath.Join(dir, "trace.json")
	attribPath := filepath.Join(dir, "attrib.json")
	if err := run(simOpts{
		rows: 2, cols: 8, pl: 4, blocks: 512, rel: 1e-3, seed: 7,
		attrib: true, spansFile: spansPath, traceFile: tracePath, attribFile: attribPath,
	}); err != nil {
		t.Fatal(err)
	}
	read := func(path string, v any) {
		t.Helper()
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, v); err != nil {
			t.Fatalf("%s: %v", filepath.Base(path), err)
		}
	}
	var spans []json.RawMessage
	read(spansPath, &spans)
	if len(spans) == 0 {
		t.Fatal("spans.json is empty")
	}
	var attrib struct {
		Attribution struct {
			PEs []json.RawMessage `json:"pes"`
		} `json:"attribution"`
	}
	read(attribPath, &attrib)
	if len(attrib.Attribution.PEs) == 0 {
		t.Fatal("attrib.json has no per-PE attribution")
	}
	var trace []map[string]any
	read(tracePath, &trace)
	if len(trace) == 0 {
		t.Fatal("trace.json has no trace events")
	}
	phases := map[any]int{}
	for _, ev := range trace {
		phases[ev["ph"]]++
	}
	if phases["s"] == 0 || phases["f"] == 0 {
		t.Fatalf("trace has no flow arrows: phases %v", phases)
	}
}
