package wse

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// relayer arms a PE's relay: in a task build on the PE's relay task, in
// the reference build as the same count kept by the program, whose
// handler then relays with Forward — the handler Context.Relay's contract
// names. forwards counts the handler's own Forward calls.
type relayer struct {
	task     bool
	color    Color
	dir      Dir
	left     int
	forwards int
}

func (r *relayer) arm(ctx *Context, color Color, d Dir, n int) {
	if r.task {
		ctx.Relay(color, d, n)
		return
	}
	r.color, r.dir, r.left = color, d, n
}

// relayed relays msg from the reference build's handler where the task
// would have, and reports whether it did.
func (r *relayer) relayed(ctx *Context, msg Message) bool {
	if r.left == 0 || msg.Color != r.color {
		return false
	}
	if r.left > 0 {
		r.left--
	}
	ctx.LabelSpan("relay")
	r.forward(ctx, r.dir)
	return true
}

func (r *relayer) forward(ctx *Context, d Dir) {
	ctx.Forward(d)
	r.forwards++
}

// relayRow is a row of pl-PE pipelines shaped like the mapping's
// (Fig. 9b), on three colors: raw blocks (0), stage hand-offs (1) and
// control messages (2).
//   - A head captures every (pipelines east + 1)-th raw block: its relay
//     is armed for the blocks in between, and it re-arms it after each
//     capture. It works on the block and sends it on as a stage message.
//   - Every other PE of a pipeline that is not the last relays raw blocks
//     east, armed forever in Init. It works on stage messages, and the
//     pipeline's tail emits them.
//   - Each of those relaying PEs re-arms its relay on every control
//     message, with a count from (2, 0, −1, 1) in turn; a raw block that
//     reaches its handler is emitted there. Control messages are
//     forwarded by the handler to the row's end, which emits them.
type relayRow struct {
	relayer
	pl, pipes int
	ctl       int // control messages seen
}

func (p *relayRow) place(ctx *Context) (pipe, pos int) {
	c := ctx.Coord().Col
	return c / p.pl, c % p.pl
}

func (p *relayRow) Init(ctx *Context) {
	pipe, pos := p.place(ctx)
	switch {
	case pos == 0:
		p.arm(ctx, 0, East, p.pipes-pipe-1)
	case pipe < p.pipes-1:
		p.arm(ctx, 0, East, -1)
	}
}

func (p *relayRow) OnMessage(ctx *Context, msg Message) {
	if p.relayed(ctx, msg) {
		return
	}
	pipe, pos := p.place(ctx)
	switch msg.Color {
	case 0:
		if pos == 0 {
			p.arm(ctx, 0, East, p.pipes-pipe-1)
			ctx.LabelSpan("capture")
			ctx.Spend(int64(40 + 7*pipe))
			ctx.Send(East, Message{Color: 1, Payload: msg.Payload, Wavelets: msg.Wavelets + 1})
			return
		}
		ctx.LabelSpan("keep")
		ctx.Spend(9)
		ctx.Emit(msg.Payload, msg.Wavelets)
	case 1:
		ctx.LabelSpan("stage")
		ctx.Spend(int64(25 + 5*pos))
		if pos == p.pl-1 {
			ctx.Emit(msg.Payload, 2)
			return
		}
		ctx.Send(East, Message{Color: 1, Payload: msg.Payload, Wavelets: msg.Wavelets})
	case 2:
		ctx.LabelSpan("control")
		ctx.Spend(3)
		if pos > 0 && pipe < p.pipes-1 {
			p.arm(ctx, 0, East, [...]int{2, 0, -1, 1}[p.ctl%4])
			p.ctl++
		}
		if ctx.Coord().Col == ctx.Cols()-1 {
			ctx.Emit(msg.Payload, 1)
			return
		}
		p.forward(ctx, East)
	}
}

// relayMsgOverhead is the relay fixture's per-message relay charge.
const relayMsgOverhead = 3

// buildRelayMesh wires six rows of relayRow programs, with pipelines of
// two PEs on even rows and of three on odd ones, relaying on the relay
// task or, for the reference, through Forward. Each row gets raw blocks
// (one in five untracked) and a control message after every fourth, two
// of them on one cycle. Spans are attached.
func buildRelayMesh(t *testing.T, task bool, workers int) (*Mesh, []*relayRow) {
	t.Helper()
	const rows, cols = 6, 6
	m, err := NewMesh(Config{Rows: rows, Cols: cols, Workers: workers, MsgOverhead: relayMsgOverhead})
	if err != nil {
		t.Fatal(err)
	}
	m.AttachSpans()
	var progs []*relayRow
	for r := 0; r < rows; r++ {
		pl := 2 + r%2
		for c := 0; c < cols; c++ {
			p := &relayRow{relayer: relayer{task: task}, pl: pl, pipes: cols / pl}
			progs = append(progs, p)
			m.SetProgram(r, c, p)
		}
		for b := 0; b < 9+(5*r)%11; b++ {
			span := int64(100*r + b + 1)
			if b%5 == 3 {
				span = 0
			}
			at := int64(4*b + r%3)
			m.Inject(r, 0, Message{Color: 0, Payload: [2]int{r, b}, Wavelets: 2 + b%4, Span: span}, at)
			if b%4 == 3 {
				m.Inject(r, 0, Message{Color: 2, Payload: -b, Wavelets: 1, Span: span}, at)
			}
		}
	}
	return m, progs
}

// TestRelayTaskMatchesForward runs the relay fixture twice, relaying on
// the relay task and through a Forward handler, and requires everything
// observable to be identical, on one worker and on two: cycles, events,
// shard event counts, emissions, the span log, attribution and every PE's
// stats. Each relay-task dispatch span must
// also cover exactly the hop's charge, Wavelets + MsgOverhead. The keys
// one relay queues must be Forward's too, with the same push sequence
// numbers, which no output shows: a relay's two keys never tie.
func TestRelayTaskMatchesForward(t *testing.T) {
	type outcome struct {
		runSnapshot
		forwards int64 // Forward calls of the programs
		relayed  int64 // Stats.Forwarded summed
	}
	run := func(task bool, workers int) outcome {
		m, progs := buildRelayMesh(t, task, workers)
		o := outcome{runSnapshot: snapshot(t, m)}
		for i := range m.pes {
			o.relayed += m.pes[i].stats.Forwarded
			o.forwards += int64(progs[i].forwards)
		}
		return o
	}
	for _, workers := range []int{1, 2} {
		ref, got := run(false, workers), run(true, workers)
		if ref.forwards != ref.relayed {
			t.Fatalf("workers=%d: the reference relayed %d times but called Forward %d times", workers, ref.relayed, ref.forwards)
		}
		if got.forwards >= got.relayed {
			t.Fatalf("workers=%d: the task build called Forward %d times for %d relays; the task relayed nothing", workers, got.forwards, got.relayed)
		}
		if d := firstDiff(got.runSnapshot, ref.runSnapshot); d != "" {
			t.Fatalf("workers=%d: %s differs from the Forward reference", workers, d)
		}
		relays, keeps := 0, 0
		for _, ev := range got.spans {
			if ev.Kind == SpanDispatch && ev.Label == "keep" {
				keeps++
			}
			if ev.Kind != SpanDispatch || ev.Label != "relay" {
				continue
			}
			relays++
			if d := ev.End - ev.At; d != int64(ev.Wavelets)+relayMsgOverhead {
				t.Fatalf("workers=%d: relay dispatch %+v lasts %d cycles, want Wavelets + MsgOverhead = %d",
					workers, ev, d, ev.Wavelets+relayMsgOverhead)
			}
		}
		if relays == 0 || keeps == 0 {
			t.Fatalf("workers=%d: %d relay and %d keep dispatch spans recorded; the fixture must have both", workers, relays, keeps)
		}
	}
	if ref, got := oneRelayKeys(t, false), oneRelayKeys(t, true); len(ref) != 2 || !reflect.DeepEqual(got, ref) {
		t.Fatalf("one relay on the task queued %+v, through Forward %+v", got, ref)
	}
}

// oneRelayKeys drives PE (0,0)'s first dispatch, a relay on the task or
// through Forward, by hand and returns the keys it queued in pop order:
// its ready event, then the relayed delivery.
func oneRelayKeys(t *testing.T, task bool) []evKey {
	t.Helper()
	m, err := NewMesh(Config{Rows: 1, Cols: 2, MsgOverhead: relayMsgOverhead})
	if err != nil {
		t.Fatal(err)
	}
	m.SetProgram(0, 0, &armOnInit{relayer: &relayer{task: task}, color: 0, dir: East, n: 1})
	m.SetProgram(0, 1, ProgramFunc(func(*Context, Message) {}))
	m.Inject(0, 0, Message{Color: 0, Wavelets: 5}, 7)
	e := newEngine(m, 8, newEventBudget(m.cfg.MaxEvents, 1))
	e.load(0)
	k := e.q.pop()
	pe := &m.pes[0]
	e.enqueue(pe, k.slot)
	e.dispatch(pe, k.at)
	var keys []evKey
	for e.q.len() > 0 {
		keys = append(keys, e.q.pop())
	}
	return keys
}

// armOnInit arms its relayer in Init, and relays through it in the
// reference build.
type armOnInit struct {
	*relayer
	color Color
	dir   Dir
	n     int
}

func (p *armOnInit) Init(ctx *Context) { p.arm(ctx, p.color, p.dir, p.n) }

func (p *armOnInit) OnMessage(ctx *Context, msg Message) { p.relayed(ctx, msg) }

// TestRelayTaskPanics checks that arming the relay task fails where a
// Forward would at send time, off either end of the row too, and that
// the task's relays keep Forward's per-message checks. The task is armed
// on the PE in column col of a 1×2 mesh.
func TestRelayTaskPanics(t *testing.T) {
	for _, tc := range []struct {
		name     string
		col      int
		color    Color
		dir      Dir
		n        int
		task     bool
		wavelets int
		want     string
	}{
		{"arm toward the mesh edge", 0, 0, West, 1, true, 1, "leaves the mesh"},
		{"arm toward Ramp", 0, 0, Ramp, -1, true, 1, "toward Ramp"},
		{"arm an invalid color", 0, NumColors, East, 1, true, 1, "invalid color"},
		{"arm past the count's range", 0, 0, East, math.MaxInt, true, 1, "arm it for every one"},
		{"task relays a 0-wavelet injection", 0, 0, East, -1, true, 0, "0 wavelets"},
		{"Forward relays a 0-wavelet injection", 0, 0, East, -1, false, 0, "0 wavelets"},
		{"arm East off the row's end", 1, 0, East, -1, true, 1, "leaves the mesh"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.n > 0 && tc.n-1 == math.MaxInt32 {
				t.Skip("on a 32-bit host every count fits")
			}
			m, err := NewMesh(Config{Rows: 1, Cols: 2})
			if err != nil {
				t.Fatal(err)
			}
			for c := 0; c < 2; c++ {
				p := &armOnInit{relayer: &relayer{task: tc.task}}
				if c == tc.col {
					p.color, p.dir, p.n = tc.color, tc.dir, tc.n
				}
				m.SetProgram(0, c, p)
			}
			m.Inject(0, 0, Message{Color: 0, Wavelets: tc.wavelets}, 0)
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), tc.want) {
					t.Fatalf("recovered %v, want a panic containing %q", r, tc.want)
				}
			}()
			_, _ = m.Run()
		})
	}
}
