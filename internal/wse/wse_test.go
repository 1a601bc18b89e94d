package wse

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// echoProgram spends a fixed cost per message and forwards east until the
// edge, then emits.
type echoProgram struct {
	cost int64
}

func (p *echoProgram) Init(*Context) {}

func (p *echoProgram) OnMessage(ctx *Context, msg Message) {
	ctx.Spend(p.cost)
	if ctx.Coord().Col == ctx.Cols()-1 {
		ctx.Emit(msg.Payload, msg.Wavelets)
		return
	}
	ctx.Forward(East)
}

func TestMeshGeometry(t *testing.T) {
	m, err := NewMesh(Config{Rows: 3, Cols: 4})
	if err != nil {
		t.Fatal(err)
	}
	if m.Config().MemPerPE != 48*1024 {
		t.Fatalf("default memory %d, want 48KiB", m.Config().MemPerPE)
	}
	if got := m.Seconds(850e6); got != 1 {
		t.Fatalf("850M cycles take %gs, want 1s at 850MHz", got)
	}
	if _, err := NewMesh(Config{Rows: 0, Cols: 5}); err == nil {
		t.Fatal("accepted zero rows")
	}
	if _, err := NewMesh(Config{Rows: 3000, Cols: 3000}); err == nil {
		t.Fatal("accepted oversized mesh")
	}
	if got := m.PE(2, 3).Coord(); got != (Coord{Row: 2, Col: 3}) {
		t.Fatalf("PE coord = %v", got)
	}
}

func TestDirOpposite(t *testing.T) {
	pairs := map[Dir]Dir{East: West, West: East}
	for d, o := range pairs {
		if d.Opposite() != o {
			t.Fatalf("%v.Opposite() = %v, want %v", d, d.Opposite(), o)
		}
	}
	if Ramp.Opposite() != Ramp {
		t.Fatal("Ramp.Opposite() != Ramp")
	}
}

func TestSingleHopTiming(t *testing.T) {
	// One message through a 1×2 mesh: handler cost 100 on PE0 (which
	// forwards, charging wavelets), link latency 1 + 8 wavelets in flight,
	// then 100 on PE1 which emits (charging wavelets again).
	m, _ := NewMesh(Config{Rows: 1, Cols: 2})
	for c := 0; c < 2; c++ {
		m.SetProgram(0, c, &echoProgram{cost: 100})
	}
	m.Inject(0, 0, Message{Color: 1, Payload: "blk", Wavelets: 8}, 0)
	elapsed, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	// PE0: 100 compute + 8 relay = ends at 108. Link: 1 latency + 8
	// wavelets in flight → arrives 117. PE1: 100 compute + 8 emit → 225.
	if elapsed != 225 {
		t.Fatalf("elapsed = %d, want 225", elapsed)
	}
	if got := m.PE(0, 0).Stats().ComputeCycles; got != 100 {
		t.Fatalf("PE0 compute = %d", got)
	}
	if got := m.PE(0, 0).Stats().RelayCycles; got != 8 {
		t.Fatalf("PE0 relay = %d", got)
	}
	em := m.Emissions()
	if len(em) != 1 || em[0].Payload != "blk" || em[0].At != 225 {
		t.Fatalf("emissions = %+v", em)
	}
}

func TestSendChargesRampLatency(t *testing.T) {
	m, _ := NewMesh(Config{Rows: 1, Cols: 2})
	sent := false
	m.SetProgram(0, 0, ProgramFunc(func(ctx *Context, msg Message) {
		ctx.Send(East, msg)
		sent = true
	}))
	var arrived int64 = -1
	m.SetProgram(0, 1, ProgramFunc(func(ctx *Context, msg Message) {
		arrived = ctx.Now()
	}))
	m.Inject(0, 0, Message{Color: 0, Payload: nil, Wavelets: 10}, 0)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if !sent {
		t.Fatal("sender never ran")
	}
	// Send cost = ramp 4 + 10 wavelets = 14; link = 1 + 10; arrival at 25.
	if arrived != 25 {
		t.Fatalf("arrival at %d, want 25", arrived)
	}
	if got := m.PE(0, 0).Stats().SendCycles; got != 14 {
		t.Fatalf("send cycles = %d, want 14", got)
	}
}

func TestPipelineOverlap(t *testing.T) {
	// Three PEs, cost 1000 each, 10 blocks: steady-state throughput must be
	// one block per ~(1000 + transfer) cycles, not per 3000 — the pipeline
	// parallelism of paper Fig. 2.
	const blocks = 10
	const cost = 1000
	m, _ := NewMesh(Config{Rows: 1, Cols: 3})
	for c := 0; c < 3; c++ {
		m.SetProgram(0, c, &echoProgram{cost: cost})
	}
	for b := 0; b < blocks; b++ {
		m.Inject(0, 0, Message{Color: 0, Payload: b, Wavelets: 32}, 0)
	}
	elapsed, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Emissions()) != blocks {
		t.Fatalf("emitted %d blocks, want %d", len(m.Emissions()), blocks)
	}
	// Serial execution would be ≈ blocks · 3 · cost = 30000.
	// Pipelined: fill (~3·(cost+32+33)) + (blocks-1)·(cost+32) ≈ 12.5k.
	serial := int64(blocks * 3 * cost)
	if elapsed >= serial*2/3 {
		t.Fatalf("elapsed %d shows no pipeline overlap (serial would be %d)", elapsed, serial)
	}
	// Blocks must come out in order.
	for i, e := range m.Emissions() {
		if e.Payload.(int) != i {
			t.Fatalf("emission %d carries block %v; order not preserved", i, e.Payload)
		}
	}
}

func TestLinkSerialization(t *testing.T) {
	// Two messages forwarded back-to-back share one link; the second's
	// arrival must be pushed out by the first's occupancy.
	m, _ := NewMesh(Config{Rows: 1, Cols: 2})
	m.SetProgram(0, 0, ProgramFunc(func(ctx *Context, msg Message) {
		// Zero compute: both sends queue in the same handler batch when
		// both messages are delivered at t=0 (handled sequentially).
		ctx.Forward(East)
	}))
	var arrivals []int64
	m.SetProgram(0, 1, ProgramFunc(func(ctx *Context, msg Message) {
		arrivals = append(arrivals, ctx.Now())
	}))
	m.Inject(0, 0, Message{Color: 0, Wavelets: 100}, 0)
	m.Inject(0, 0, Message{Color: 0, Wavelets: 100}, 0)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if len(arrivals) != 2 {
		t.Fatalf("got %d arrivals", len(arrivals))
	}
	// First: handler [0,100] (relay), link 1+100 → 201.
	// Second: handler [100,200], link occupied until 201 → departs 201,
	// arrives 302.
	if arrivals[0] != 201 || arrivals[1] != 302 {
		t.Fatalf("arrivals = %v, want [201 302]", arrivals)
	}
}

func TestMemoryBudget(t *testing.T) {
	m, _ := NewMesh(Config{Rows: 1, Cols: 1, MemPerPE: 1024})
	var allocErr error
	m.SetProgram(0, 0, ProgramFunc(func(ctx *Context, msg Message) {
		if err := ctx.Alloc(512); err != nil {
			t.Errorf("first alloc failed: %v", err)
		}
		if err := ctx.Alloc(600); err == nil {
			t.Error("over-budget alloc succeeded")
		} else {
			allocErr = err
		}
		ctx.Free(512)
		if err := ctx.Alloc(1024); err != nil {
			t.Errorf("alloc after free failed: %v", err)
		}
	}))
	m.Inject(0, 0, Message{Color: 0, Wavelets: 1}, 0)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if allocErr == nil || !strings.Contains(allocErr.Error(), "out of memory") {
		t.Fatalf("alloc error = %v", allocErr)
	}
	if got := m.PE(0, 0).Stats().MemPeak; got != 1024 {
		t.Fatalf("mem peak = %d, want 1024", got)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (int64, []Emission) {
		m, _ := NewMesh(Config{Rows: 2, Cols: 4})
		for r := 0; r < 2; r++ {
			for c := 0; c < 4; c++ {
				m.SetProgram(r, c, &echoProgram{cost: int64(50 + 10*c)})
			}
		}
		for b := 0; b < 20; b++ {
			m.Inject(b%2, 0, Message{Color: 0, Payload: b, Wavelets: 16}, int64(b))
		}
		elapsed, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return elapsed, m.Emissions()
	}
	e1, em1 := run()
	e2, em2 := run()
	if e1 != e2 {
		t.Fatalf("elapsed differs: %d vs %d", e1, e2)
	}
	if len(em1) != len(em2) {
		t.Fatalf("emission counts differ")
	}
	for i := range em1 {
		if em1[i] != em2[i] {
			t.Fatalf("emission %d differs: %+v vs %+v", i, em1[i], em2[i])
		}
	}
}

func TestRowsIndependent(t *testing.T) {
	// Identical work on 1 row vs 4 rows: per-row completion time must be
	// identical — the basis of the paper's linear row scaling (Fig. 7).
	rowTime := func(rows int) int64 {
		m, _ := NewMesh(Config{Rows: rows, Cols: 2})
		for r := 0; r < rows; r++ {
			for c := 0; c < 2; c++ {
				m.SetProgram(r, c, &echoProgram{cost: 500})
			}
			for b := 0; b < 8; b++ {
				m.Inject(r, 0, Message{Color: 0, Payload: b, Wavelets: 32}, 0)
			}
		}
		elapsed, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		if len(m.Emissions()) != rows*8 {
			t.Fatalf("rows=%d: %d emissions", rows, len(m.Emissions()))
		}
		return elapsed
	}
	t1 := rowTime(1)
	t4 := rowTime(4)
	if t1 != t4 {
		t.Fatalf("row completion differs with row count: %d vs %d (rows must not interfere)", t1, t4)
	}
}

func TestErrInjectToProgramlessPE(t *testing.T) {
	m, _ := NewMesh(Config{Rows: 1, Cols: 1})
	m.Inject(0, 0, Message{Color: 0, Wavelets: 1}, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("delivery to programless PE did not panic")
		}
	}()
	_, _ = m.Run()
}

func TestContextPanics(t *testing.T) {
	m, _ := NewMesh(Config{Rows: 1, Cols: 1})
	cases := []struct {
		name string
		f    func(ctx *Context, msg Message)
	}{
		{"send off mesh", func(ctx *Context, msg Message) { ctx.Send(East, msg) }},
		{"send to ramp", func(ctx *Context, msg Message) { ctx.Send(Ramp, msg) }},
		{"bad color", func(ctx *Context, msg Message) {
			msg.Color = 24
			ctx.Send(West, msg)
		}},
		{"zero wavelets", func(ctx *Context, msg Message) {
			msg.Wavelets = 0
			ctx.Send(West, msg)
		}},
		{"negative spend", func(ctx *Context, msg Message) { ctx.Spend(-1) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m, _ := NewMesh(Config{Rows: 1, Cols: 1})
			m.SetProgram(0, 0, ProgramFunc(c.f))
			m.Inject(0, 0, Message{Color: 0, Wavelets: 4}, 0)
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", c.name)
				}
			}()
			_, _ = m.Run()
		})
	}
	_ = m
}

func TestSeconds(t *testing.T) {
	m, _ := NewMesh(Config{Rows: 1, Cols: 1})
	if got := m.Seconds(850_000_000); got != 1.0 {
		t.Fatalf("Seconds(850M cycles) = %g, want 1", got)
	}
}

func TestLivelockGuard(t *testing.T) {
	// Two PEs ping-ponging forever must trip MaxEvents instead of hanging.
	m, _ := NewMesh(Config{Rows: 1, Cols: 2, MaxEvents: 1000})
	bounce := func(d Dir) Program {
		return ProgramFunc(func(ctx *Context, msg Message) {
			ctx.Forward(d)
		})
	}
	m.SetProgram(0, 0, bounce(East))
	m.SetProgram(0, 1, bounce(West))
	m.Inject(0, 0, Message{Color: 0, Wavelets: 1}, 0)
	if _, err := m.Run(); err == nil {
		t.Fatal("livelock not detected")
	}
}

// TestForwardRelaysTheHandledMessage pins Forward's semantics on a 1×3
// relay line: the relayed message is the one delivered — its Payload,
// Span and Wavelets survive whatever the handler did to its own copy —
// with this PE as its new From/Src side, and each dispatch span records
// the handled message's own Sent and Arrived even though the relay
// rewrote the message in place.
func TestForwardRelaysTheHandledMessage(t *testing.T) {
	m, _ := NewMesh(Config{Rows: 1, Cols: 3})
	sl := m.AttachSpans()
	type seen struct {
		payload  any
		span     int64
		wavelets int
		from     Dir
		src      Coord
	}
	var got [3][]seen
	for c := 0; c < 3; c++ {
		m.SetProgram(0, c, ProgramFunc(func(ctx *Context, msg Message) {
			got[c] = append(got[c], seen{msg.Payload, msg.Span, msg.Wavelets, msg.From, msg.Src})
			if c == 2 {
				ctx.Emit(msg.Payload, 1)
				return
			}
			ctx.Spend(10)
			msg.Payload, msg.Span, msg.Wavelets = "mutated", 99, 50
			ctx.Forward(East)
		}))
	}
	m.Inject(0, 0, Message{Color: 0, Payload: "a", Wavelets: 4, Span: 1}, 5)
	m.Inject(0, 0, Message{Color: 0, Payload: "b", Wavelets: 4, Span: 2}, 6)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	for c := 1; c < 3; c++ {
		want := []seen{
			{"a", 1, 4, West, Coord{0, c - 1}},
			{"b", 2, 4, West, Coord{0, c - 1}},
		}
		if !reflect.DeepEqual(got[c], want) {
			t.Fatalf("PE(0,%d) received %+v, want %+v", c, got[c], want)
		}
	}
	if f := m.PE(0, 0).Stats().Forwarded; f != 2 {
		t.Fatalf("PE(0,0) forwarded %d messages, want 2", f)
	}
	// Block b: injected at 6, it waits in PE(0,0)'s mailbox behind a
	// (dispatched 5, 10 spend + 4 relay → 19), runs 19–33, crosses the
	// link (1 + 4) behind a's, arrives at PE(0,1) at 38 and dispatches
	// there at once, when a's handler (24–38) ends.
	dispatches := map[Coord]SpanEvent{}
	for _, ev := range sl.Events() {
		if ev.Span == 2 && ev.Kind == SpanDispatch {
			dispatches[ev.PE] = ev
		}
	}
	want := map[Coord]SpanEvent{
		{0, 0}: {Span: 2, Kind: SpanDispatch, PE: Coord{0, 0}, At: 19, End: 33, Sent: 6, Arrived: 6, Wavelets: 4},
		{0, 1}: {Span: 2, Kind: SpanDispatch, PE: Coord{0, 1}, At: 38, End: 52, Sent: 33, Arrived: 38, Wavelets: 4},
		{0, 2}: {Span: 2, Kind: SpanDispatch, PE: Coord{0, 2}, At: 57, End: 58, Sent: 52, Arrived: 57, Wavelets: 4},
	}
	if !reflect.DeepEqual(dispatches, want) {
		t.Fatalf("block b's dispatch spans %+v, want %+v", dispatches, want)
	}
}

func TestForwardPanicsWithoutAMessageToRelay(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    Program
	}{
		{"second Forward", ProgramFunc(func(ctx *Context, msg Message) {
			ctx.Forward(East)
			ctx.Forward(East)
		})},
		{"Forward in Init", initForward{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, _ := NewMesh(Config{Rows: 1, Cols: 2})
			m.SetProgram(0, 0, tc.p)
			m.SetProgram(0, 1, ProgramFunc(func(*Context, Message) {}))
			m.Inject(0, 0, Message{Color: 0, Wavelets: 1}, 0)
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "no message to relay") {
					t.Fatalf("recovered %v, want the Forward panic", r)
				}
			}()
			_, _ = m.Run()
		})
	}
}

// initForward relays from Init, where no message is being handled.
type initForward struct{}

func (initForward) Init(ctx *Context)           { ctx.Forward(East) }
func (initForward) OnMessage(*Context, Message) {}

// TestRunOnce checks that a mesh simulates once: Run and Inject after Run
// panic and leave the first run's results as they were.
func TestRunOnce(t *testing.T) {
	m, _ := NewMesh(Config{Rows: 1, Cols: 2})
	for c := 0; c < 2; c++ {
		m.SetProgram(0, c, &echoProgram{cost: 5})
	}
	m.Inject(0, 0, Message{Color: 0, Payload: "x", Wavelets: 2}, 0)
	elapsed, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), name+" after Run") {
				t.Fatalf("%s after Run: recovered %v, want a panic", name, r)
			}
		}()
		f()
	}
	mustPanic("Run", func() { _, _ = m.Run() })
	mustPanic("Inject", func() { m.Inject(0, 0, Message{Color: 0, Wavelets: 1}, 0) })
	mustPanic("SetFeed", func() { m.SetFeed(&injectFeed{}) })
	if m.Elapsed() != elapsed || len(m.Emissions()) != 1 || m.PE(0, 1).Stats().Handled != 1 {
		t.Fatalf("after the refused calls: elapsed %d (was %d), %d emissions, PE(0,1) handled %d; want the first run's",
			m.Elapsed(), elapsed, len(m.Emissions()), m.PE(0, 1).Stats().Handled)
	}
}
