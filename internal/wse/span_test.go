package wse

import (
	"bytes"
	"encoding/json"
	"testing"
)

// tracedMesh runs a 1×3 pipeline with a router pass-through on the middle
// PE, every block tagged with span id b+1, so the span log holds all four
// event kinds.
func tracedMesh(t *testing.T, blocks int) (*Mesh, *SpanLog) {
	t.Helper()
	m, err := NewMesh(Config{Rows: 1, Cols: 3})
	if err != nil {
		t.Fatal(err)
	}
	sl := m.AttachSpans()
	m.SetRoute(0, 1, 4, East)
	m.SetProgram(0, 0, ProgramFunc(func(ctx *Context, msg Message) {
		ctx.Spend(10)
		fwd := msg
		fwd.Color = 4
		ctx.Send(East, fwd)
	}))
	m.SetProgram(0, 2, ProgramFunc(func(ctx *Context, msg Message) {
		ctx.Spend(5)
		ctx.Emit(msg.Payload, msg.Wavelets)
	}))
	for b := 0; b < blocks; b++ {
		m.Inject(0, 0, Message{Color: 0, Payload: b, Wavelets: 4, Span: int64(b) + 1}, int64(4*b))
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	return m, sl
}

// TestTracer checks the span log's dispatch events on a relay fixture: a
// dispatch's End−At is the handler's cost, untracked traffic records
// nothing, and every tracked block's lifecycle is complete.
func TestTracer(t *testing.T) {
	m, _ := NewMesh(Config{Rows: 1, Cols: 2})
	sl := m.AttachSpans()
	m.SetProgram(0, 0, ProgramFunc(func(ctx *Context, msg Message) {
		ctx.Spend(10)
		ctx.Forward(East)
	}))
	m.SetProgram(0, 1, ProgramFunc(func(ctx *Context, msg Message) {
		ctx.Emit(msg.Payload, msg.Wavelets)
	}))
	for b := 0; b < 3; b++ {
		m.Inject(0, 0, Message{Color: 0, Payload: b, Wavelets: 4, Span: int64(b) + 1}, 0)
	}
	m.Inject(0, 0, Message{Color: 0, Payload: 3, Wavelets: 4}, 0) // untracked
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	// Per tracked block: inject, dispatch on PE0, dispatch on PE1, eject.
	evs := sl.Events()
	if len(evs) != 3*4 {
		t.Fatalf("recorded %d events, want 12: %+v", len(evs), evs)
	}
	for _, e := range evs {
		if e.Span == 0 {
			t.Fatalf("untracked traffic recorded %+v", e)
		}
	}
	var first *SpanEvent
	for i := range evs {
		if evs[i].Kind == SpanDispatch {
			first = &evs[i]
			break
		}
	}
	if first == nil || first.PE != (Coord{0, 0}) || first.End-first.At != 14 { // 10 spend + 4 relay
		t.Fatalf("first dispatch %+v, want 14 cycles on PE(0,0)", first)
	}
	for _, b := range sl.BlockSpans() {
		if b.Hops != 2 || b.InjectAt < 0 || b.EjectAt < 0 {
			t.Fatalf("block span %+v", b)
		}
	}
}

// TestTracerRoutesAndNil checks that a routed hop is one SpanRoute event
// ending at its arrival cycle, and that AttachSpans after Run panics.
func TestTracerRoutesAndNil(t *testing.T) {
	m, sl := tracedMesh(t, 1)
	var route, sink []SpanEvent
	for _, e := range sl.Events() {
		switch {
		case e.Kind == SpanRoute:
			route = append(route, e)
		case e.Kind == SpanDispatch && e.PE == (Coord{0, 2}):
			sink = append(sink, e)
		}
	}
	if len(route) != 1 || route[0].PE != (Coord{0, 1}) {
		t.Fatalf("route events %+v, want one on PE(0,1)", route)
	}
	if len(sink) != 1 || route[0].End != sink[0].Arrived || route[0].End <= route[0].At {
		t.Fatalf("route %+v does not end at the sink's arrival %+v", route[0], sink)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("AttachSpans after Run did not panic")
		}
	}()
	m.AttachSpans()
}

// TestChromeTraceRoundTrip checks the Chrome export: a JSON array with one
// named track per PE, a positive-length slice per lifecycle point, and
// one flow arrow chain per block.
func TestChromeTraceRoundTrip(t *testing.T) {
	const blocks = 4
	m, sl := tracedMesh(t, blocks)
	var buf bytes.Buffer
	if err := sl.WriteChromeTrace(&buf, m.Config()); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace is not a JSON array: %v\n%s", err, buf.String())
	}
	tracks := map[float64]string{}
	slices := map[float64]int{}
	names := map[string]bool{}
	phases := map[string]int{}
	for _, ev := range events {
		ph, _ := ev["ph"].(string)
		phases[ph]++
		tid := ev["tid"].(float64)
		switch ph {
		case "M":
			tracks[tid] = ev["args"].(map[string]any)["name"].(string)
		case "X":
			slices[tid]++
			names[ev["name"].(string)] = true
			if ev["dur"].(float64) < 1 {
				t.Fatalf("slice with dur < 1: %v", ev)
			}
		case "s", "t", "f":
		default:
			t.Fatalf("unexpected ph %q in %v", ph, ev)
		}
	}
	want := map[float64]string{0: "PE(0,0)", 1: "PE(0,1)", 2: "PE(0,2)"}
	if len(tracks) != len(want) {
		t.Fatalf("tracks %v, want %v", tracks, want)
	}
	for tid, name := range want {
		if tracks[tid] != name || slices[tid] == 0 {
			t.Fatalf("track %v named %q with %d slices, want %q", tid, tracks[tid], slices[tid], name)
		}
	}
	for _, kind := range []string{"inject", "route", "dispatch", "eject"} {
		if !names[kind] {
			t.Fatalf("trace missing %q slices (have %v)", kind, names)
		}
	}
	if phases["s"] != blocks || phases["f"] != blocks {
		t.Fatalf("flow phases %v, want %d starts and finishes", phases, blocks)
	}
}
