package wse

import (
	"bytes"
	"strings"
	"testing"
)

func TestSummary(t *testing.T) {
	m, _ := NewMesh(Config{Rows: 2, Cols: 3})
	for r := 0; r < 2; r++ {
		for c := 0; c < 3; c++ {
			m.SetProgram(r, c, &echoProgram{cost: 100})
		}
	}
	for b := 0; b < 6; b++ {
		m.Inject(b%2, 0, Message{Color: 0, Payload: b, Wavelets: 8}, 0)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	s := m.Summary()
	if s.ActivePEs != 6 {
		t.Fatalf("active PEs %d, want 6", s.ActivePEs)
	}
	if s.Elapsed <= 0 || s.TotalCompute != 6*3*100 {
		t.Fatalf("summary %+v", s)
	}
	if s.BusiestCycles <= 0 {
		t.Fatal("no busiest PE")
	}
	if s.MeanUtilization <= 0 || s.MeanUtilization > 1 {
		t.Fatalf("utilization %g", s.MeanUtilization)
	}
}

func TestSummaryIdleMesh(t *testing.T) {
	m, _ := NewMesh(Config{Rows: 2, Cols: 2})
	s := m.Summary()
	if s.ActivePEs != 0 || s.MeanUtilization != 0 {
		t.Fatalf("idle mesh summary %+v", s)
	}
}

func TestRowProfileAndUtilization(t *testing.T) {
	m, _ := NewMesh(Config{Rows: 1, Cols: 4})
	for c := 0; c < 4; c++ {
		m.SetProgram(0, c, &echoProgram{cost: int64(10 * (c + 1))})
	}
	for b := 0; b < 4; b++ {
		m.Inject(0, 0, Message{Color: 0, Payload: b, Wavelets: 4}, 0)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	prof := m.RowProfile(0)
	if len(prof) != 4 {
		t.Fatalf("profile length %d", len(prof))
	}
	for c, st := range prof {
		if st.Handled != 4 {
			t.Fatalf("col %d handled %d messages, want 4", c, st.Handled)
		}
		if st.ComputeCycles != int64(4*10*(c+1)) {
			t.Fatalf("col %d compute %d", c, st.ComputeCycles)
		}
	}
	var buf bytes.Buffer
	m.WriteUtilization(&buf, 0)
	out := buf.String()
	if !strings.Contains(out, "row 0 utilization") || strings.Count(out, "\n") < 6 {
		t.Fatalf("utilization output:\n%s", out)
	}
}

func TestSummarySingleActivePE(t *testing.T) {
	// One working PE on an otherwise idle mesh: the busiest PE must be the
	// active one and the mean utilization must average over active PEs
	// only (not be diluted by the 8 idle ones).
	m, _ := NewMesh(Config{Rows: 3, Cols: 3})
	m.SetProgram(1, 1, ProgramFunc(func(ctx *Context, msg Message) {
		ctx.Spend(500)
	}))
	m.Inject(1, 1, Message{Color: 0, Wavelets: 4}, 0)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	s := m.Summary()
	if s.ActivePEs != 1 {
		t.Fatalf("active PEs %d, want 1", s.ActivePEs)
	}
	if s.BusiestPE != (Coord{Row: 1, Col: 1}) {
		t.Fatalf("busiest %v, want (1,1)", s.BusiestPE)
	}
	if s.BusiestCycles != 500 || s.TotalCompute != 500 {
		t.Fatalf("summary %+v", s)
	}
	if s.MeanUtilization != 1.0 {
		t.Fatalf("mean utilization %g, want 1.0 (the only active PE is busy the whole run)", s.MeanUtilization)
	}
}

func TestWriteUtilizationGolden(t *testing.T) {
	// Deterministic single-PE run → byte-exact utilization table.
	m, _ := NewMesh(Config{Rows: 1, Cols: 2})
	m.SetProgram(0, 0, ProgramFunc(func(ctx *Context, msg Message) {
		ctx.Spend(75)
	}))
	m.SetProgram(0, 1, ProgramFunc(func(*Context, Message) {}))
	m.Inject(0, 0, Message{Color: 0, Wavelets: 4}, 0)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	m.WriteUtilization(&buf, 0)
	want := "row 0 utilization over 75 cycles:\n" +
		"  col      compute        relay         send    busy%     msgs\n" +
		"    0           75            0            0   100.0%        1\n" +
		"    1            0            0            0     0.0%        0\n"
	if got := buf.String(); got != want {
		t.Fatalf("utilization table:\n%q\nwant:\n%q", got, want)
	}
}

func TestWriteUtilizationIdleMesh(t *testing.T) {
	// Zero elapsed cycles must not divide by zero.
	m, _ := NewMesh(Config{Rows: 1, Cols: 2})
	var buf bytes.Buffer
	m.WriteUtilization(&buf, 0)
	out := buf.String()
	if !strings.Contains(out, "over 0 cycles") || !strings.Contains(out, "0.0%") {
		t.Fatalf("idle utilization table:\n%s", out)
	}
}
