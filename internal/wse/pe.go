package wse

import (
	"fmt"
	"math"
)

// Program is the code installed on a PE. OnMessage is invoked once per
// delivered message, when the PE's processor is free — messages queue in
// arrival order while the processor is busy, which is how the simulator
// realizes the paper's serial relay-plus-compute accounting. A handler
// gets its own copy of the message. It passes the delivered message on
// with Context.Forward (a relay: the message itself moves on, at most
// once) and produces new ones with Context.Send. A delivery that the PE's
// relay task takes (Context.Relay) is relayed by the engine and never
// reaches OnMessage.
type Program interface {
	// Init runs at cycle 0, before any message is delivered.
	Init(ctx *Context)
	// OnMessage handles one delivered message.
	OnMessage(ctx *Context, msg Message)
}

// ProgramFunc adapts a function to the Program interface with a no-op Init.
type ProgramFunc func(ctx *Context, msg Message)

// Init implements Program.
func (f ProgramFunc) Init(*Context) {}

// OnMessage implements Program.
func (f ProgramFunc) OnMessage(ctx *Context, msg Message) { f(ctx, msg) }

// PE is one processing element.
type PE struct {
	coord   Coord
	mesh    *Mesh
	program Program
	idx     int32 // linear index row*Cols+col

	// The mailbox is a FIFO of slab slots threaded through the engine's
	// msgSlab (slabMsg.next): qhead is the oldest queued message, qtail
	// the newest, qcount the fill. Only the engine simulating the PE
	// touches it, and it is empty whenever that engine finishes.
	qhead, qtail int32
	qcount       int32
	running      bool

	// The relay task (Context.Relay): relayLeft more deliveries of
	// relayColor, or all of them while it is negative, are relayed toward
	// relayDir; 0 means disarmed. The fields fill the padding after
	// running, so the task adds nothing to a PE's size.
	relayColor Color
	relayDir   uint8
	relayLeft  int32

	// pushSeq stamps this PE's outgoing events with a strictly
	// increasing per-origin sequence — one third of the (at, src, seq)
	// event-ordering key (see queue.go).
	pushSeq int64

	memUsed int
	stats   Stats
}

// Coord returns the PE's mesh coordinate.
func (p *PE) Coord() Coord { return p.coord }

// Stats returns a copy of the PE's cycle accounting.
func (p *PE) Stats() Stats { return p.stats }

// Context is the API a Program uses during one OnMessage (or Init)
// invocation. All effects are accounted against the PE's processor time:
// Spend for computation, Send for memory→fabric transfers, Forward for
// fabric→fabric relaying. Outgoing messages depart when the handler
// finishes.
type Context struct {
	pe    *PE
	slab  *msgSlab // the running engine's; sends are stored straight into it
	start int64
	cost  int64

	// span is the handled message's block span id (0 when untracked or
	// during Init); outgoing sends inherit it, and LabelSpan names the
	// handler's work in the span log.
	span      int64
	spanLabel string
	// held is the handled message's slab slot, which Forward moves onto
	// the fabric; -1 during Init and once the message is forwarded.
	held int32

	sends []pendingSend
	emits []any
}

// pendingSend is a send the handler queued: its outgoing link and the
// slab slot already holding the message.
type pendingSend struct {
	dir  Dir
	slot int32
}

// reset prepares a pooled Context for the next handler invocation,
// reusing the sends/emits backing arrays.
func (c *Context) reset(pe *PE, start int64, slab *msgSlab) {
	c.pe = pe
	c.slab = slab
	c.start = start
	c.cost = 0
	c.span = 0
	c.spanLabel = ""
	c.held = -1
	c.sends = c.sends[:0]
	c.emits = c.emits[:0]
}

// LabelSpan names the work this handler performs for span tracing (e.g.
// a stage-group name; the relay task's dispatches carry "relay"). It is
// recorded on the dispatch span event when the handled message carries a
// span id, and is otherwise a no-op; programs may call it
// unconditionally.
func (c *Context) LabelSpan(label string) { c.spanLabel = label }

// Now returns the cycle at which the current handler began.
func (c *Context) Now() int64 { return c.start }

// Coord returns the executing PE's coordinate.
func (c *Context) Coord() Coord { return c.pe.coord }

// Cols returns the mesh width.
func (c *Context) Cols() int { return c.pe.mesh.cfg.Cols }

// Spend charges cycles of computation to the PE.
func (c *Context) Spend(cycles int64) {
	if cycles < 0 {
		panic(fmt.Sprintf("wse: negative Spend(%d) on %v", cycles, c.pe.coord))
	}
	c.cost += cycles
	c.pe.stats.ComputeCycles += cycles
}

// Send transmits a message from local memory toward the neighbor in
// direction d. It charges RampLatency + Wavelets cycles (moving the data
// from memory through the RAMP onto the fabric — the C₂ cost of §4.3).
// Sending off the mesh edge is an error; use Emit for wafer egress. A
// handler may Send any number of messages; one that does not carry a
// span id inherits the handled message's.
func (c *Context) Send(d Dir, msg Message) {
	dst := c.link(d, &msg)
	w := int64(msg.Wavelets) + RampLatency
	c.pe.stats.SendCycles += w
	c.cost += w
	msg.From = d.Opposite()
	msg.Src = c.pe.coord
	if msg.Span == 0 {
		msg.Span = c.span // the block's id follows it across hand-offs
	}
	c.sends = append(c.sends, pendingSend{dir: d, slot: c.slab.put(&msg, dst)})
}

// Forward relays the handled message, as it arrived on the fabric, to the
// neighbor in direction d without a round trip through local memory. It
// charges Wavelets + Config.MsgOverhead cycles (the C₁ cost of §4.3 — the
// relay term of Formula (2)). The message keeps its Payload, Span and
// Wavelets, whatever the handler did to its own copy, and leaves with
// this PE as its Src: like a router pass-through, the relay moves the
// message's own slab slot instead of storing a copy. A handler relays its
// message at most once, so a second Forward panics, as does one from
// Init, which handles no message; fan-out uses Send. Forward is for a
// handler that decides a message's fate when it sees it; a PE that relays
// a color's traffic without looking at it arms its relay task instead
// (Relay), which has the same effects without calling the program.
func (c *Context) Forward(d Dir) {
	slot := c.held
	if slot < 0 {
		panic(fmt.Sprintf("wse: Forward on %v with no message to relay (a second Forward, or Init); fan out with Send", c.pe.coord))
	}
	sm := &c.slab.msgs[slot]
	dst := c.link(d, &sm.msg)
	c.held = -1
	c.cost += c.pe.relay(sm, d, dst)
	c.sends = append(c.sends, pendingSend{dir: d, slot: slot})
}

// Relay arms the PE's relay task, the paper's relay (Fig. 4, Fig. 9): a
// task bound to a color that runs when that color's data arrives. The
// PE's next n deliveries of color are relayed toward d by the engine
// itself, without calling the program; n < 0 relays every one of them,
// and n == 0 disarms the task. Arming again replaces the color, the
// direction and the count, so a handler may re-arm the task after it
// took a delivery itself.
//
// A relayed message is the next one in the mailbox, as for any dispatch,
// and its relay has exactly the effects of a handler that only calls
// LabelSpan("relay") and Forward(d): the same charge, link occupancy,
// events and dispatch span. Arming panics where Forward would at send
// time — an invalid color, Ramp, or a neighbor off the mesh — and each
// relayed message still gets Forward's checks of its color and wavelets.
func (c *Context) Relay(color Color, d Dir, n int) {
	pe := c.pe
	if n == 0 {
		pe.relayLeft = 0
		return
	}
	if !color.Valid() {
		panic(fmt.Sprintf("wse: Relay on invalid color %d (the fabric has %d)", color, NumColors))
	}
	if n > math.MaxInt32 {
		panic(fmt.Sprintf("wse: Relay of %d deliveries; arm it for every one with n < 0", n))
	}
	pe.out(d)
	pe.relayColor, pe.relayDir, pe.relayLeft = color, uint8(d), int32(max(n, -1))
}

// relay readdresses the message in sm to leave this PE toward d, bound
// for its neighbor dst, and charges the hop: Wavelets +
// Config.MsgOverhead cycles of relay time. It returns the charge. Forward
// and the relay task both relay through it.
func (pe *PE) relay(sm *slabMsg, d Dir, dst int32) int64 {
	w := int64(sm.msg.Wavelets) + pe.mesh.cfg.MsgOverhead
	pe.stats.RelayCycles += w
	pe.stats.Forwarded++
	sm.msg.From = d.Opposite()
	sm.msg.Src = pe.coord
	sm.pe = dst
	return w
}

// link checks that msg may leave toward d and returns the linear index of
// the neighbor it goes to.
func (c *Context) link(d Dir, msg *Message) int32 {
	dst := c.pe.out(d)
	onWire(msg)
	return dst
}

// out returns the linear index of the PE's neighbor in direction d. It
// panics toward Ramp and off the mesh edge.
func (pe *PE) out(d Dir) int32 {
	if d == Ramp {
		panic("wse: cannot send toward Ramp; that is the local processor")
	}
	dst, ok := pe.mesh.neighbor(pe.coord, d)
	if !ok {
		panic(fmt.Sprintf("wse: send from %v toward %v leaves the mesh; use Emit", pe.coord, d))
	}
	return int32(dst.Row*pe.mesh.cfg.Cols + dst.Col)
}

// onWire panics unless msg can cross a link: a valid color and at least
// one wavelet.
func onWire(msg *Message) {
	if !msg.Color.Valid() {
		panic(fmt.Sprintf("wse: invalid color %d (the fabric has %d)", msg.Color, NumColors))
	}
	if msg.Wavelets < 1 {
		panic(fmt.Sprintf("wse: message with %d wavelets", msg.Wavelets))
	}
}

// Emit hands a payload off the wafer (the simulator's stand-in for the
// routing PEs that move data on and off the WSE, which the paper excludes
// from computation, §5.1.1). It charges Wavelets cycles.
func (c *Context) Emit(payload any, wavelets int) {
	if wavelets < 1 {
		panic("wse: Emit with no wavelets")
	}
	c.cost += int64(wavelets)
	c.pe.stats.SendCycles += int64(wavelets)
	c.emits = append(c.emits, payload)
}

// Alloc reserves bytes of the PE's local memory, failing when the 48 KB
// budget would be exceeded.
func (c *Context) Alloc(bytes int) error {
	if bytes < 0 {
		panic("wse: negative Alloc")
	}
	if c.pe.memUsed+bytes > c.pe.mesh.cfg.MemPerPE {
		return fmt.Errorf("wse: PE %v out of memory: %d + %d > %d bytes",
			c.pe.coord, c.pe.memUsed, bytes, c.pe.mesh.cfg.MemPerPE)
	}
	c.pe.memUsed += bytes
	if c.pe.memUsed > c.pe.stats.MemPeak {
		c.pe.stats.MemPeak = c.pe.memUsed
	}
	return nil
}

// Free releases bytes of local memory.
func (c *Context) Free(bytes int) {
	if bytes < 0 || bytes > c.pe.memUsed {
		panic(fmt.Sprintf("wse: bad Free(%d) with %d allocated on %v", bytes, c.pe.memUsed, c.pe.coord))
	}
	c.pe.memUsed -= bytes
}
