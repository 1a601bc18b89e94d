package wse

import "fmt"

// Fabric timing and clock of the CS-2.
const (
	// LinkLatency is the fixed per-hop cycle cost before a message's
	// wavelets stream across a link.
	LinkLatency = 1
	// RampLatency is the fixed cost of moving a message between local
	// memory and the fabric; it is why C₂ > C₁ in §4.3.
	RampLatency = 4
	// ClockHz converts cycles to seconds (850 MHz, §5.1.1).
	ClockHz = 850e6
)

// Config describes a simulated wafer.
type Config struct {
	// Rows and Cols give the mesh geometry. The full CS-2 exposes
	// 750×994 usable PEs (§5.1.1).
	Rows, Cols int
	// MemPerPE is the local memory budget in bytes (default 48 KB).
	MemPerPE int
	// MsgOverhead is the per-message processor cost of receiving and
	// re-issuing a fabric transfer (task activation + DSD setup, §2.1's
	// data-triggering mechanism). It is charged on every processor relay
	// (Context.Forward or the relay task) in addition to the wavelet
	// streaming time. Default 0; the CereSZ mapping sets its own
	// calibrated value.
	MsgOverhead int64
	// MaxEvents aborts a runaway simulation (default 500M events).
	MaxEvents int64
	// Workers bounds the host worker pool that simulates the rows, each
	// worker one row after another: 0 runs one worker per available CPU
	// (GOMAXPROCS), and any other value at most that many, but at least
	// one. The worker count changes nothing observable — cycle counts,
	// emission order, the span log and per-PE stats are the same for
	// every value (see DESIGN.md §5d).
	Workers int
}

// FullWSE is the usable mesh geometry of the CS-2 (§5.1.1).
var FullWSE = Config{Rows: 750, Cols: 994}

// WithDefaults returns the config with unset fields defaulted.
func (c Config) WithDefaults() Config {
	if c.MemPerPE == 0 {
		c.MemPerPE = 48 * 1024
	}
	if c.MaxEvents == 0 {
		c.MaxEvents = 500_000_000
	}
	return c
}

// Mesh is a simulated 2D grid of PEs with a discrete-event engine.
type Mesh struct {
	cfg Config
	pes []PE

	// routes is the dense router table: routes[pe*NumColors+color] is
	// the pass-through direction, or routeNone. Allocated lazily on the
	// first SetRoute (~18 MB for the full wafer, nil for meshes that
	// route nothing).
	routes []int8

	// feed loads the host injections, one row at a time, into the
	// engine that simulates the row (see Feeder).
	feed Feeder

	processed int64
	// emissions is the emission log in emission order. A run leaves its
	// rows' tagged logs in rowEmis, and Emissions merges them into the
	// log on its first call.
	emissions []Emission
	rowEmis   [][]tagged[Emission]
	spans     *SpanLog

	// linkFree[pe][dir] is the cycle at which PE pe's outgoing link
	// toward dir (East or West) becomes free; messages on one link
	// serialize. A cell is only ever written while simulating its owning
	// PE's row, so workers never race on it.
	linkFree [][2]int64

	shards  int
	workers int
	// shardEvents is the per-row processed-event count of the last Run.
	// Deterministic: it depends only on the row, never on worker
	// scheduling.
	shardEvents []int64
	// poolPeak is the peak number of concurrently running workers seen in
	// the last Run — a host-side occupancy measure, NOT deterministic
	// across runs; it feeds telemetry only.
	poolPeak int
	ran      bool
}

// routeNone marks an unrouted (pe, color) slot in the dense route table.
const routeNone = int8(-1)

// hostSrc is the event-ordering origin for host injections; it sorts
// before every PE index. Their seq orders them by row, then by injection
// order within the row (see Injector.Inject).
const hostSrc = int32(-1)

// NewMesh builds a mesh of idle PEs.
func NewMesh(cfg Config) (*Mesh, error) {
	cfg = cfg.WithDefaults()
	if cfg.Rows <= 0 || cfg.Cols <= 0 {
		return nil, fmt.Errorf("wse: invalid mesh %dx%d", cfg.Rows, cfg.Cols)
	}
	if cfg.Rows*cfg.Cols > 4_000_000 {
		return nil, fmt.Errorf("wse: mesh %dx%d exceeds simulator capacity", cfg.Rows, cfg.Cols)
	}
	m := &Mesh{cfg: cfg}
	m.pes = make([]PE, cfg.Rows*cfg.Cols)
	for i := range m.pes {
		m.pes[i] = PE{coord: Coord{Row: i / cfg.Cols, Col: i % cfg.Cols}, idx: int32(i), mesh: m}
	}
	m.linkFree = make([][2]int64, cfg.Rows*cfg.Cols)
	return m, nil
}

// Config returns the mesh configuration (with defaults applied).
func (m *Mesh) Config() Config { return m.cfg }

// PE returns the PE at (row, col).
func (m *Mesh) PE(row, col int) *PE {
	if row < 0 || row >= m.cfg.Rows || col < 0 || col >= m.cfg.Cols {
		panic(fmt.Sprintf("wse: PE(%d,%d) outside %dx%d mesh", row, col, m.cfg.Rows, m.cfg.Cols))
	}
	return &m.pes[row*m.cfg.Cols+col]
}

// SetProgram installs a program on a PE. Must be called before Run.
func (m *Mesh) SetProgram(row, col int, p Program) {
	if m.ran {
		panic("wse: SetProgram after Run")
	}
	m.PE(row, col).program = p
}

// SetRoute configures the PE's fabric router to forward messages of the
// given color toward out without involving the processor — the static
// color routing of paper Fig. 3. Routed messages cost only link time;
// they are never delivered to the PE's program. Must be called before Run.
func (m *Mesh) SetRoute(row, col int, color Color, out Dir) {
	if m.ran {
		panic("wse: SetRoute after Run")
	}
	if !color.Valid() {
		panic(fmt.Sprintf("wse: invalid color %d", color))
	}
	if out == Ramp {
		panic("wse: route toward Ramp would be a normal delivery; omit the route instead")
	}
	pe := m.PE(row, col)
	if _, ok := m.neighbor(pe.coord, out); !ok {
		panic(fmt.Sprintf("wse: route at %v toward %v leaves the mesh", pe.coord, out))
	}
	if m.routes == nil {
		m.routes = make([]int8, len(m.pes)*NumColors)
		for i := range m.routes {
			m.routes[i] = routeNone
		}
	}
	m.routes[int(pe.idx)*NumColors+int(color)] = int8(out)
}

// routeOf returns the router pass-through direction for a color at a PE,
// or routeNone.
func (m *Mesh) routeOf(pe int32, color Color) int8 {
	if m.routes == nil {
		return routeNone
	}
	return m.routes[int(pe)*NumColors+int(color)]
}

// Feeder is a mesh's host feed: the simulator's stand-in for data
// flowing onto the wafer from the host (the paper assumes "the input data
// is generated on the first PE of each row", §4.3). Run calls FeedRow once
// for every row of the mesh, before the row's first event, on the worker
// that simulates the row. Calls for different rows may run at the same
// time, so FeedRow must write nothing that another row's call reads.
type Feeder interface {
	// RowLen is how many messages FeedRow injects into row. Run reads it
	// for every row before any event loop starts, to size each engine
	// once; a feed that injects more still runs, its engine's arrays
	// regrow.
	RowLen(row int) int
	// FeedRow injects row's messages through in, which is valid only for
	// the call.
	FeedRow(row int, in *Injector)
}

// SetFeed installs the mesh's host feed. A mesh has one feed. Must be
// called before Run.
func (m *Mesh) SetFeed(f Feeder) {
	if m.ran {
		panic("wse: SetFeed after Run")
	}
	if m.feed != nil {
		panic("wse: the mesh already has a feed")
	}
	m.feed = f
}

// Injector is a feed's handle on the engine that simulates one row: it
// stores each injected message straight into that engine's slab and
// queue.
type Injector struct {
	e   *engine
	row int
	n   int64 // the row's injections so far
}

// Inject schedules an external message delivery to the row's PE in
// column col at cycle at. The message arrives from direction West
// carrying the OffWafer source sentinel, so programs can distinguish host
// ingress from fabric traffic. Host messages order before every fabric
// event of their cycle, and among themselves by (row, injection order
// within the row).
func (in *Injector) Inject(col int, msg Message, at int64) {
	e := in.e
	cols := e.m.cfg.Cols
	if col < 0 || col >= cols {
		panic(fmt.Sprintf("wse: Inject into column %d of a %d-column mesh", col, cols))
	}
	if at < 0 {
		panic("wse: Inject at negative time")
	}
	if in.n == 1<<32 {
		panic(fmt.Sprintf("wse: more than 2^32 injections into row %d", in.row))
	}
	msg.From = West
	msg.Src = OffWafer
	msg.sentAt = at // the host "let go" at the scheduled delivery time
	slot := e.slab.put(&msg, int32(in.row*cols+col))
	e.q.push(evKey{at: at, seq: int64(in.row)<<32 | in.n, src: hostSrc, slot: slot})
	in.n++
}

// Inject schedules one host message, as Injector.Inject does, through a
// feed that replays each row's Inject calls in call order — a
// convenience for tests and small programs, which installs that feed on
// the first call. A mesh fed by SetFeed takes no Inject. Must be called
// before Run.
func (m *Mesh) Inject(row, col int, msg Message, at int64) {
	if m.ran {
		panic("wse: Inject after Run")
	}
	m.PE(row, col) // bounds check
	f, ok := m.feed.(*injectFeed)
	if !ok {
		f = &injectFeed{rows: make([][]injection, m.cfg.Rows)}
		m.SetFeed(f)
	}
	f.rows[row] = append(f.rows[row], injection{col: col, msg: msg, at: at})
}

// injectFeed is the feed behind Mesh.Inject: every row's calls, in call
// order.
type injectFeed struct{ rows [][]injection }

type injection struct {
	col int
	msg Message
	at  int64
}

func (f *injectFeed) RowLen(row int) int { return len(f.rows[row]) }

func (f *injectFeed) FeedRow(row int, in *Injector) {
	for i := range f.rows[row] {
		j := &f.rows[row][i]
		in.Inject(j.col, j.msg, j.at)
	}
}

// Emissions returns everything programs handed off the wafer, in emission
// order: the (at, src, seq) order of the events whose handlers emitted,
// with Init's emissions first, in PE order, and one handler's emissions
// in the order it made them. The first call after a run merges the rows'
// logs, each already in that order, into it; a run that never asks does
// not merge.
func (m *Mesh) Emissions() []Emission {
	if m.rowEmis != nil {
		n := 0
		for _, l := range m.rowEmis {
			n += len(l)
		}
		m.emissions = make([]Emission, 0, n)
		mergeTagged(m.rowEmis, func(em *Emission) { m.emissions = append(m.emissions, *em) })
		m.rowEmis = nil
	}
	return m.emissions
}

// neighbor returns the coordinate adjacent to c in direction d, if any.
func (m *Mesh) neighbor(c Coord, d Dir) (Coord, bool) {
	switch d {
	case East:
		c.Col++
	case West:
		c.Col--
	default:
		return c, false
	}
	return c, c.Col >= 0 && c.Col < m.cfg.Cols
}

// Run executes the simulation until no events remain. It returns the
// number of cycles at which the last PE finished (the paper's runtime
// measurement: "the clock cycles needed for the last PE to finish
// processing its data", §4.1). A mesh runs once: a second Run panics.
func (m *Mesh) Run() (int64, error) {
	if m.ran {
		panic("wse: Run after Run")
	}
	m.ran = true
	if err := m.runRows(); err != nil {
		return 0, err
	}
	return m.Elapsed(), nil
}

// Processed returns the number of simulator events handled so far — a
// telemetry measure of how much discrete-event work a run cost the host.
func (m *Mesh) Processed() int64 { return m.processed }

// Elapsed returns the completion cycle of the busiest PE so far.
func (m *Mesh) Elapsed() int64 {
	var last int64
	for i := range m.pes {
		if la := m.pes[i].stats.LastActive; la > last {
			last = la
		}
	}
	return last
}

// Seconds converts cycles to seconds at the CS-2 clock.
func (m *Mesh) Seconds(cycles int64) float64 {
	return float64(cycles) / ClockHz
}

// engine runs one row's discrete-event loop after another on a worker of
// the run's pool (see rows.go). Engines share the mesh's PE and link state
// but only ever touch the rows they simulate.
//
// The queue's calendar makes an engine larger than a page, so each gets
// pages of its own: no other worker's engine shares a cache line with the
// fields this one writes on every event, which would move that line
// between the cores on every event (DESIGN.md §5d).
type engine struct {
	m    *Mesh
	slab msgSlab
	ctx  Context // pooled; reset per handler instead of allocated per dispatch
	// inj is the feed's handle on this engine.
	inj Injector

	processed int64
	// budget is the run's MaxEvents allowance, which the engine draws in
	// prepaid chunks: quota is what is left of its chunk.
	budget *eventBudget
	quota  int64

	// emis and spanEvs tag the row's emissions and span events with the
	// key of the event that caused them, cause, for the deterministic
	// post-run merge. The engine appends emissions to the row's stretch
	// of the run's log, and copies its span events out and empties them
	// for the next row.
	emis    []tagged[Emission]
	spanEvs []tagged[SpanEvent]
	cause   evKey

	q calQueue
}

// newEngine returns an engine whose queue and slab hold room keys and
// messages before they grow, and which draws its events from budget.
func newEngine(m *Mesh, room int, budget *eventBudget) *engine {
	e := &engine{m: m, budget: budget}
	e.q.init(room)
	e.slab.msgs = make([]slabMsg, 0, room)
	e.slab.free = make([]int32, 0, room)
	return e
}

// roomFor is the queue and slab room of a row that starts with n host
// deliveries to its cols PEs. Beyond the preloaded set a row keeps about
// one event per PE in flight — a ready event, or a message on its way to
// the next stage — and never more than the preloaded work feeds. A
// program that keeps more in flight still runs; the arrays regrow.
func roomFor(n, cols int) int { return n + min(n, cols) + 16 }

// load empties the engine, then starts row r on it: runs the row's
// programs' Init at cycle 0 and queues what they send, then has the feed
// store the row's host injections in place.
func (e *engine) load(r int) {
	m := e.m
	e.q.reset()
	e.slab.msgs, e.slab.free = e.slab.msgs[:0], e.slab.free[:0]
	cols := m.cfg.Cols
	for i := r * cols; i < (r+1)*cols; i++ {
		pe := &m.pes[i]
		if pe.program == nil {
			continue
		}
		// Init's by-products order before every event's, by PE.
		e.cause = evKey{at: -1, src: pe.idx}
		e.ctx.reset(pe, 0, &e.slab)
		pe.program.Init(&e.ctx)
		e.finishHandler(pe, 0)
	}
	if f := m.feed; f != nil {
		e.inj = Injector{e: e, row: r}
		f.FeedRow(r, &e.inj)
	}
}

// run drains the queue.
func (e *engine) run() error {
	m := e.m
	for e.q.len() > 0 {
		k := e.q.pop()
		e.processed++
		if err := e.drawQuota(); err != nil {
			return err
		}
		// Every by-product of processing this event (emissions, span
		// records) is attributed to its ordering key, so the run can
		// merge its rows' by-products into one order.
		e.cause = k
		if k.slot < 0 {
			// Ready: the PE's processor came free.
			pe := &m.pes[^k.slot]
			pe.running = false
			if pe.qcount > 0 {
				e.dispatch(pe, k.at)
			}
			continue
		}
		sm := &e.slab.msgs[k.slot]
		pe := &m.pes[sm.pe]
		if d := m.routeOf(sm.pe, sm.msg.Color); d != routeNone {
			// Router pass-through: re-emit on the configured link with
			// no processor involvement (only link serialization).
			e.routeForward(pe, k.slot, Dir(d), k.at)
			continue
		}
		sm.msg.arrivedAt = k.at
		if m.spans != nil && sm.msg.Span != 0 && k.src == hostSrc {
			e.recordSpan(SpanEvent{Span: sm.msg.Span, Kind: SpanInject, PE: pe.coord,
				At: k.at, End: k.at, Sent: sm.msg.sentAt, Wavelets: sm.msg.Wavelets})
		}
		e.enqueue(pe, k.slot)
		if !pe.running {
			e.dispatch(pe, k.at)
		}
	}
	return nil
}

// enqueue appends a delivered message's slot to pe's mailbox FIFO, which
// is a list threaded through the slab.
func (e *engine) enqueue(pe *PE, slot int32) {
	if pe.qcount == 0 {
		pe.qhead = slot
	} else {
		e.slab.msgs[pe.qtail].next = slot
	}
	pe.qtail = slot
	pe.qcount++
}

// dequeue removes and returns the slot of pe's oldest queued message.
func (e *engine) dequeue(pe *PE) int32 {
	slot := pe.qhead
	pe.qhead = e.slab.msgs[slot].next
	pe.qcount--
	return slot
}

// routeForward re-emits the routed message in slot toward out at time t,
// paying only link occupancy (the router moves wavelets in hardware). The
// message keeps its slot: only its arrival side and destination change.
func (e *engine) routeForward(pe *PE, slot int32, out Dir, t int64) {
	m := e.m
	dst, ok := m.neighbor(pe.coord, out)
	if !ok {
		panic(fmt.Sprintf("wse: route off mesh at %v", pe.coord))
	}
	sm := &e.slab.msgs[slot]
	free := &m.linkFree[pe.idx][out]
	depart := max(t, *free)
	arrive := depart + LinkLatency + int64(sm.msg.Wavelets)
	*free = arrive
	// sentAt stays: the router never takes ownership of the data.
	sm.msg.From = out.Opposite()
	sm.msg.Src = pe.coord
	sm.pe = int32(dst.Row*m.cfg.Cols + dst.Col)
	pe.stats.Routed++
	if m.spans != nil && sm.msg.Span != 0 {
		e.recordSpan(SpanEvent{Span: sm.msg.Span, Kind: SpanRoute, PE: pe.coord,
			At: t, End: arrive, Sent: sm.msg.sentAt, Wavelets: sm.msg.Wavelets})
	}
	e.q.push(evKey{at: arrive, seq: pe.pushSeq, src: pe.idx, slot: slot})
	pe.pushSeq++
}

// recordSpan tags a span event with the cause event's ordering key for
// the post-run merge.
func (e *engine) recordSpan(ev SpanEvent) {
	e.spanEvs = append(e.spanEvs, tagged[SpanEvent]{cause: e.cause, v: ev})
}

// dispatch pops the next queued message on pe and runs its handler at
// time t: the PE's relay task when it is armed for the message's color,
// the program otherwise.
func (e *engine) dispatch(pe *PE, t int64) {
	if pe.program == nil {
		// No route and no program: a real fabric would drop the wavelets,
		// but silently losing data in a simulation hides mapping bugs, so
		// the harness fails loudly instead.
		panic(fmt.Sprintf("wse: message delivered to programless PE %v", pe.coord))
	}
	slot := e.dequeue(pe)
	sm := &e.slab.msgs[slot]
	// The producer's hand-off, which a relay re-stamps when the handler
	// ends; the dispatch span records it as delivered.
	sentAt := sm.msg.sentAt
	// Attribute the processor-idle gap before this dispatch: up to the
	// producer's hand-off the PE was starved by upstream (queue-wait);
	// from hand-off to delivery the data was on the fabric (fabric-stall).
	// The clamps cover messages sent before the PE went idle and the Init
	// edge case (Init charges cost without a dispatch window, so a
	// delivery can precede LastActive).
	if gap := t - pe.stats.LastActive; gap > 0 {
		idleStart := t - gap
		sent := sentAt
		if sent < idleStart {
			sent = idleStart
		}
		if sent > t {
			sent = t
		}
		pe.stats.QueueWaitCycles += sent - idleStart
		pe.stats.FabricStallCycles += t - sent
	}
	pe.stats.MailboxWaitCycles += t - sm.msg.arrivedAt
	pe.running = true
	var end int64
	label, kept := "relay", int32(-1)
	if pe.relayLeft != 0 && sm.msg.Color == pe.relayColor {
		end = e.relayTask(pe, slot, t)
	} else {
		e.ctx.reset(pe, t, &e.slab)
		e.ctx.span, e.ctx.held = sm.msg.Span, slot
		pe.program.OnMessage(&e.ctx, sm.msg)
		end = e.finishHandler(pe, t)
		label, kept = e.ctx.spanLabel, e.ctx.held
	}
	pe.stats.Handled++
	// The slot still holds the handled message, relayed or not (its Span,
	// Wavelets and arrival survive a relay), but a handler's sends may
	// have grown the slab under sm.
	msg := &e.slab.msgs[slot].msg
	if e.m.spans != nil && msg.Span != 0 {
		e.recordSpan(SpanEvent{Span: msg.Span, Kind: SpanDispatch, PE: pe.coord,
			At: t, End: end, Sent: sentAt, Arrived: msg.arrivedAt,
			Label: label, Wavelets: msg.Wavelets})
	}
	if kept >= 0 {
		e.slab.release(kept) // not relayed: the message ends here
	}
	e.q.push(readyKey(end, pe.idx, pe.pushSeq))
	pe.pushSeq++
}

// relayTask runs pe's armed relay task on the delivered message in slot
// at time t, with the effects of a handler that only forwards it (see
// Context.Relay), and returns the handler's end time.
func (e *engine) relayTask(pe *PE, slot int32, t int64) int64 {
	if pe.relayLeft > 0 {
		pe.relayLeft--
	}
	sm := &e.slab.msgs[slot]
	onWire(&sm.msg)
	d := Dir(pe.relayDir)
	end := t + pe.relay(sm, d, pe.out(d))
	pe.stats.LastActive = max(pe.stats.LastActive, end)
	e.launch(pe, d, slot, end)
	return end
}

// finishHandler applies a completed handler's effects: schedules its
// sends, which Context already stored in the slab, and records its
// emissions. Returns the handler's end time.
func (e *engine) finishHandler(pe *PE, t int64) int64 {
	m := e.m
	ctx := &e.ctx
	end := t + ctx.cost
	pe.stats.LastActive = max(pe.stats.LastActive, end)
	for _, s := range ctx.sends {
		e.launch(pe, s.dir, s.slot, end)
	}
	for _, p := range ctx.emits {
		em := Emission{From: pe.coord, At: end, Payload: p}
		if m.spans != nil && ctx.span != 0 {
			e.recordSpan(SpanEvent{Span: ctx.span, Kind: SpanEject, PE: pe.coord, At: end, End: end})
		}
		e.emis = append(e.emis, tagged[Emission]{cause: e.cause, v: em})
	}
	return end
}

// launch puts the message in slot on pe's outgoing link toward d when its
// producer lets go, at the end of the handler that sent or relayed it,
// and schedules its delivery. The message occupies the link for its
// wavelet count, so back-to-back messages on one link serialize.
func (e *engine) launch(pe *PE, d Dir, slot int32, end int64) {
	sm := &e.slab.msgs[slot]
	free := &e.m.linkFree[pe.idx][d]
	depart := max(end, *free)
	arrive := depart + LinkLatency + int64(sm.msg.Wavelets)
	*free = arrive
	sm.msg.sentAt = end
	e.q.push(evKey{at: arrive, seq: pe.pushSeq, src: pe.idx, slot: slot})
	pe.pushSeq++
}
