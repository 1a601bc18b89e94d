package mapping

import (
	"fmt"
	"strings"
	"time"

	"ceresz/internal/core"
	"ceresz/internal/stages"
	"ceresz/internal/telemetry"
	"ceresz/internal/wse"
)

// Fabric colors used by the mapping (well inside the 24 available).
const (
	// colorRaw carries unprocessed blocks east along a row (the Fig. 9
	// relay traffic).
	colorRaw wse.Color = 0
	// colorStage carries intermediate block state between consecutive PEs
	// of one pipeline.
	colorStage wse.Color = 1
)

// flowBlock is the payload traveling the fabric: one block and its global
// position, so the emitted stream can be reassembled in order.
type flowBlock struct {
	id  int
	raw []float32 // compression input (nil for decompression)
	enc []byte    // decompression input (nil for compression)
	// st is the block's state while the block is on the wafer: the head
	// PE takes it from its row's free list on capture, and the tail PE
	// copies the result out and returns it before emitting the block.
	st *stages.BlockState[float32]
}

// newFlowBlocks returns a run's n blocks, numbered 0..n-1. They carry no
// block state: a run holds states only for the blocks in flight (see
// rowState).
func newFlowBlocks(n int) []flowBlock {
	blocks := make([]flowBlock, n)
	for b := range blocks {
		blocks[b].id = b
	}
	return blocks
}

// rowState is one mesh row's share of a run: the block states not
// holding a block, the tally of blocks its tail PEs kept and, for
// compression, the row's encoded blocks in emission order with where each
// one lies. Rows are the engine's unit, so only one worker ever touches
// a row's state, and it needs no lock.
type rowState struct {
	free []*stages.BlockState[float32]
	made int
	log  []byte
	// ext[k] locates the row's k-th block, block id k·rows + row (see
	// rowFeed), in log.
	ext []extent

	// r is the row, and n how many blocks it carries. seen marks the
	// blocks its tail PEs kept (bit k for its k-th block), kept counts
	// them, and bad is the first block keep refused.
	r, n int
	seen []uint64
	kept int
	bad  error
}

// take returns a free block state of length L, doubling the row's states
// when none is free. A PipelineLen-1 row returns each state in the
// handler that took it, so it allocates one state per run.
func (r *rowState) take(L int) *stages.BlockState[float32] {
	if len(r.free) == 0 {
		n := max(1, r.made)
		batch := stages.NewBlockStates[float32](L, n)
		for i := range batch {
			r.free = append(r.free, &batch[i])
		}
		r.made += n
	}
	st := r.free[len(r.free)-1]
	r.free = r.free[:len(r.free)-1]
	return st
}

// give returns a state whose block has left the wafer.
func (r *rowState) give(st *stages.BlockState[float32]) { r.free = append(r.free, st) }

// extent locates one encoded block in its row's log.
type extent struct{ off, n int }

// runOutput is where one run's tail PEs leave their blocks' results
// before returning the states: compression appends to the row logs,
// decompression copies straight into the reconstructed field.
type runOutput struct {
	dir  stages.Direction
	L    int
	rows []rowState
	data []float32 // decompression: the reconstructed field
}

// keep copies a finished block's result out of its state, after checking
// that the block belongs to the row and is not already out: with every
// row's count at its n after the run (see check), every block left the
// wafer exactly once.
func (o *runOutput) keep(row *rowState, fb *flowBlock) {
	rows := len(o.rows)
	k := fb.id / rows
	if fb.id < 0 || fb.id%rows != row.r || k >= row.n {
		row.refuse(fmt.Errorf("mapping: row %d emitted block %d, not one of its %d", row.r, fb.id, row.n))
		return
	}
	if row.seen == nil {
		row.seen = make([]uint64, (row.n+63)/64)
	}
	w, bit := k/64, uint64(1)<<(k%64)
	if row.seen[w]&bit != 0 {
		row.refuse(fmt.Errorf("mapping: block %d emitted twice", fb.id))
		return
	}
	row.seen[w] |= bit
	row.kept++
	st := fb.st
	if o.dir == stages.Compress {
		row.ext[k] = extent{off: len(row.log), n: len(st.Encoded)}
		row.log = append(row.log, st.Encoded...)
		return
	}
	// The field's last block may be partial: copy clips the padding.
	copy(o.data[fb.id*o.L:], st.Raw)
}

// refuse records the row's first refused block.
func (r *rowState) refuse(err error) {
	if r.bad == nil {
		r.bad = err
	}
}

// check verifies that every block of the run left the wafer exactly once,
// from the rows' tallies.
func (o *runOutput) check(nBlocks int) error {
	kept := 0
	for i := range o.rows {
		if err := o.rows[i].bad; err != nil {
			return err
		}
		kept += o.rows[i].kept
	}
	if kept != nBlocks {
		return fmt.Errorf("mapping: %d blocks emitted, want %d", kept, nBlocks)
	}
	return nil
}

// peProgram is the per-PE code: relay raw blocks for pipelines to the
// east, capture every (pipelinesEast+1)-th raw block if a head, and run
// the assigned stage group on pipeline traffic (paper Fig. 9b). The
// relays run on the PE's relay task, so OnMessage sees only the blocks
// the PE works on.
type peProgram struct {
	plan   *Plan
	row    *rowState
	out    *runOutput
	isHead bool
	isTail bool
	group  Group

	// relayInit counts the pipelines east of this one: the blocks a head
	// relays between two captures. Raw traffic crosses the PE unless it
	// is 0.
	relayInit int
}

// Init implements wse.Program: arm the PE's relay task, and reserve its
// static working set — its share of the block state plus a relay buffer
// when raw traffic passes through — against the 48 KB budget.
func (pp *peProgram) Init(ctx *wse.Context) {
	switch {
	case pp.isHead:
		ctx.Relay(colorRaw, wse.East, pp.relayInit)
	case pp.relayInit > 0 && pp.plan.Cfg.ProcessorRelay:
		// Raw traffic crosses this interior PE, and no router route
		// takes it (see install): the processor relays every block.
		ctx.Relay(colorRaw, wse.East, -1)
	}
	L := pp.plan.Chain.Cfg.BlockLen
	bytes := stateBytes(L) / pp.plan.Cfg.PipelineLen
	if pp.relayInit > 0 || !pp.isHead {
		bytes += relayBytes(L)
	}
	if err := ctx.Alloc(bytes); err != nil {
		// Unreachable: NewPlan's checkMemory is strictly more conservative.
		panic(err)
	}
}

// OnMessage implements wse.Program. A raw block reaches it only at a head
// whose relay task has run out: the head captures the block and re-arms
// the task for the next relayInit blocks.
func (pp *peProgram) OnMessage(ctx *wse.Context, msg wse.Message) {
	switch {
	case msg.Color == colorRaw && pp.isHead:
		ctx.Relay(colorRaw, wse.East, pp.relayInit)
		fb := msg.Payload.(*flowBlock)
		fb.st = pp.row.take(pp.out.L)
		if pp.out.dir == stages.Compress {
			fb.st.ResetForCompress(fb.raw)
		} else {
			fb.st.ResetForDecompress(fb.enc)
		}
		pp.process(ctx, fb)
	case msg.Color == colorStage:
		pp.process(ctx, msg.Payload.(*flowBlock))
	default:
		panic(fmt.Sprintf("mapping: unexpected color %d at %v", msg.Color, ctx.Coord()))
	}
}

func (pp *peProgram) process(ctx *wse.Context, fb *flowBlock) {
	chain := pp.plan.Chain
	ctx.LabelSpan(pp.plan.groupLabels[ctx.Coord().Col%pp.plan.Cfg.PipelineLen])
	for i := pp.group.Lo; i < pp.group.Hi; i++ {
		ctx.Spend(chain.Stages[i].Cycles(fb.st))
		chain.Stages[i].Run(fb.st)
	}
	if pp.isTail {
		w := fb.st.Wavelets()
		pp.out.keep(pp.row, fb)
		pp.row.give(fb.st)
		fb.st = nil
		ctx.Emit(fb, w)
		return
	}
	ctx.Send(wse.East, wse.Message{
		Color:    colorStage,
		Payload:  fb,
		Wavelets: fb.st.Wavelets(),
	})
}

// Result reports one simulated run.
type Result struct {
	// Bytes is the compressed stream (compression runs).
	Bytes []byte
	// Data is the reconstructed field (decompression runs).
	Data []float32
	// Cycles is the completion time of the last PE (§4.1's measurement).
	Cycles int64
	// Seconds is Cycles at the configured clock.
	Seconds float64
	// ThroughputGBps is uncompressed-bytes / Seconds / 1e9 — the paper's
	// throughput metric for both directions (§5.1.4).
	ThroughputGBps float64
	// Mesh exposes per-PE statistics for profiling (Fig. 10).
	Mesh *wse.Mesh
	// Meta is the stream metadata.
	Meta core.Meta
	// Telemetry is the run's private instrument snapshot: simulated cycle
	// accounting, relay occupancy, per-stage-group load, and the host-side
	// cost of the simulation itself. Each run gets its own registry, so
	// concurrent simulations never mix.
	Telemetry telemetry.Snapshot
	// Spans holds every block's assembled lifecycle when
	// PlanConfig.RecordSpans is set (nil otherwise).
	Spans []wse.BlockSpan
	// SpanLog is the raw span log behind Spans, for Perfetto export
	// (nil unless RecordSpans).
	SpanLog *wse.SpanLog

	// blockStates counts the block states the run allocated.
	blockStates int
}

// Attribution is the per-PE timeline decomposition (compute,
// relay-forward, queue-wait, fabric-stall, idle) of the run; every PE's
// buckets sum to Cycles exactly, and the whole structure is bit-identical
// across Mesh.Workers settings. It is built on each call.
func (r *Result) Attribution() wse.Attribution { return r.Mesh.Attribution() }

// newRun builds a mesh for a run of nBlocks blocks and wires the plan
// onto it. The run uses the mesh's first min(Rows, nBlocks) rows (all of
// them when there are no blocks).
func (p *Plan) newRun(nBlocks int) (*wse.Mesh, *runOutput, *wse.SpanLog, error) {
	m, err := wse.NewMesh(p.Cfg.Mesh)
	if err != nil {
		return nil, nil, nil, err
	}
	var spanLog *wse.SpanLog
	if p.Cfg.RecordSpans {
		spanLog = m.AttachSpans()
	}
	rows := p.Cfg.Mesh.Rows
	if rows > nBlocks && nBlocks > 0 {
		rows = nBlocks
	}
	out := &runOutput{dir: p.Chain.Dir, L: p.Chain.Cfg.BlockLen, rows: make([]rowState, rows)}
	for r := range out.rows {
		out.rows[r].r, out.rows[r].n = r, rowBlocks(nBlocks, rows, r)
	}
	p.install(m, out)
	return m, out, spanLog, nil
}

// install wires the plan's programs onto the mesh's first len(out.rows)
// rows. Unless ProcessorRelay is set, interior pipeline PEs get a static
// router route for the raw-block color, so crossing traffic never touches
// their processor.
func (p *Plan) install(m *wse.Mesh, out *runOutput) {
	rows := len(out.rows)
	pl := p.Cfg.PipelineLen
	progs := make([]peProgram, 0, rows*p.Pipelines*pl) // never regrows: SetProgram keeps pointers
	for r := 0; r < rows; r++ {
		for pipe := 0; pipe < p.Pipelines; pipe++ {
			for pos := 0; pos < pl; pos++ {
				col := pipe*pl + pos
				interiorWithTraffic := pos > 0 && pipe < p.Pipelines-1
				if interiorWithTraffic && !p.Cfg.ProcessorRelay {
					m.SetRoute(r, col, colorRaw, wse.East)
				}
				progs = append(progs, peProgram{
					plan:      p,
					row:       &out.rows[r],
					out:       out,
					isHead:    pos == 0,
					isTail:    pos == pl-1,
					group:     p.Groups[pos],
					relayInit: p.Pipelines - pipe - 1,
				})
				m.SetProgram(r, col, &progs[len(progs)-1])
			}
		}
	}
}

// rowFeed streams a run's blocks onto the wafer at link rate, the "data
// generated fast enough" assumption of §4.4: row r's west-edge PE gets
// blocks r, r+rows, r+2·rows, … (§4.3). It is the mesh's feed, so each
// row is fed on the worker that simulates it; FeedRow only reads blocks.
type rowFeed struct {
	blocks   []flowBlock
	rows     int
	wavelets func(*flowBlock) int
}

func (f *rowFeed) RowLen(r int) int { return rowBlocks(len(f.blocks), f.rows, r) }

func (f *rowFeed) FeedRow(r int, in *wse.Injector) {
	t := int64(0)
	for b := r; b < len(f.blocks); b += f.rows {
		fb := &f.blocks[b]
		w := f.wavelets(fb)
		in.Inject(0, wse.Message{Color: colorRaw, Payload: fb, Wavelets: w, Span: int64(fb.id) + 1}, t)
		t += int64(w) + wse.LinkLatency
	}
}

// rowBlocks is how many of n blocks row r of a rows-row run carries:
// ids r, r+rows, … below n (none for a row past the run's rows).
func rowBlocks(n, rows, r int) int { return max(0, (n-r+rows-1)/rows) }

// Compress runs the plan on data and returns the compressed stream, which
// is byte-identical to internal/core's for the same parameters.
func (p *Plan) Compress(data []float32) (*Result, error) {
	if p.Chain.Dir != stages.Compress {
		return nil, fmt.Errorf("mapping: Compress on a %v chain", p.Chain.Dir)
	}
	L := p.Chain.Cfg.BlockLen
	nBlocks := (len(data) + L - 1) / L
	m, out, spanLog, err := p.newRun(nBlocks)
	if err != nil {
		return nil, err
	}
	rows := len(out.rows)
	ext := make([]extent, nBlocks)
	for r := range out.rows {
		n := out.rows[r].n
		out.rows[r].ext, ext = ext[:n:n], ext[n:]
	}

	blocks := newFlowBlocks(nBlocks)
	for b := range blocks {
		blocks[b].raw = data[b*L : min((b+1)*L, len(data))]
	}
	m.SetFeed(&rowFeed{blocks: blocks, rows: rows, wavelets: func(*flowBlock) int { return L }})

	runStart := time.Now()
	cycles, err := m.Run()
	if err != nil {
		return nil, err
	}
	wall := time.Since(runStart)

	meta := core.Meta{
		HeaderBytes: p.Chain.Cfg.HeaderBytes,
		BlockLen:    L,
		Elements:    len(data),
		Eps:         p.Chain.Cfg.Eps,
	}
	if err := out.check(nBlocks); err != nil {
		return nil, err
	}
	size := core.StreamHeaderSize
	for i := range out.rows {
		size += len(out.rows[i].log)
	}
	stream := core.AppendStreamHeader(make([]byte, 0, size), meta)
	for id := 0; id < nBlocks; id++ {
		row := &out.rows[id%rows]
		e := row.ext[id/rows]
		stream = append(stream, row.log[e.off:e.off+e.n]...)
	}
	res := p.newResult(m, cycles, int64(4*len(data)), meta, wall, spanLog, out)
	res.Bytes = stream
	return res, nil
}

// Decompress runs the plan on a compressed stream and reconstructs the
// data, exactly as internal/core.Decompress would.
func (p *Plan) Decompress(comp []byte) (*Result, error) {
	if p.Chain.Dir != stages.Decompress {
		return nil, fmt.Errorf("mapping: Decompress on a %v chain", p.Chain.Dir)
	}
	meta, offsets, err := core.BlockOffsets(comp)
	if err != nil {
		return nil, err
	}
	if meta.BlockLen != p.Chain.Cfg.BlockLen {
		return nil, fmt.Errorf("mapping: stream block length %d does not match plan's %d", meta.BlockLen, p.Chain.Cfg.BlockLen)
	}
	if meta.HeaderBytes != p.Chain.Cfg.HeaderBytes {
		return nil, fmt.Errorf("mapping: stream header size %d does not match plan's %d", meta.HeaderBytes, p.Chain.Cfg.HeaderBytes)
	}
	if meta.Eps != p.Chain.Cfg.Eps {
		return nil, fmt.Errorf("mapping: stream ε %g does not match plan's %g", meta.Eps, p.Chain.Cfg.Eps)
	}
	body := comp[core.StreamHeaderSize:]
	nBlocks := meta.Blocks()

	m, out, spanLog, err := p.newRun(nBlocks)
	if err != nil {
		return nil, err
	}
	out.data = make([]float32, meta.Elements)

	blocks := newFlowBlocks(nBlocks)
	for b := range blocks {
		blocks[b].enc = body[offsets[b]:offsets[b+1]]
	}
	m.SetFeed(&rowFeed{blocks: blocks, rows: len(out.rows), wavelets: func(fb *flowBlock) int { return (len(fb.enc) + 3) / 4 }})

	runStart := time.Now()
	cycles, err := m.Run()
	if err != nil {
		return nil, err
	}
	wall := time.Since(runStart)
	if err := out.check(nBlocks); err != nil {
		return nil, err
	}
	res := p.newResult(m, cycles, int64(4*meta.Elements), meta, wall, spanLog, out)
	res.Data = out.data
	return res, nil
}

func (p *Plan) newResult(m *wse.Mesh, cycles, inputBytes int64, meta core.Meta, wall time.Duration, spanLog *wse.SpanLog, out *runOutput) *Result {
	secs := m.Seconds(cycles)
	tput := 0.0
	if secs > 0 {
		tput = float64(inputBytes) / secs / 1e9
	}
	res := &Result{
		Cycles:         cycles,
		Seconds:        secs,
		ThroughputGBps: tput,
		Mesh:           m,
		Meta:           meta,
		SpanLog:        spanLog,
	}
	if spanLog != nil {
		res.Spans = spanLog.BlockSpans()
	}
	for i := range out.rows {
		res.blockStates += out.rows[i].made
	}
	res.Telemetry = p.runTelemetry(m, cycles, wall)
	return res
}

// runTelemetry fills a fresh registry with the run's accounting: simulated
// cycle totals split by kind, stall attribution, worker-pool occupancy,
// relay occupancy, estimated versus measured per-stage-group load, and the
// host wall time the simulation itself took. The same values also land on
// the Default registry (no-op unless a CLI enabled it), so a long-running
// bench server exposes them at /debug/metrics across runs.
func (p *Plan) runTelemetry(m *wse.Mesh, cycles int64, wall time.Duration) telemetry.Snapshot {
	reg := telemetry.NewRegistry()
	reg.Histogram("sim.run_wall").Observe(wall.Nanoseconds())
	reg.Counter("sim.events").Add(m.Processed())
	reg.Counter("sim.cycles").Add(cycles)
	reg.Gauge("sim.shards").Set(int64(m.Shards()))
	reg.Gauge("sim.workers").Set(int64(m.Workers()))
	// Column c holds pipeline position c mod PipelineLen, so one walk
	// that sums compute per column also recovers each stage group's load.
	cols := make([]int64, m.Config().Cols)
	s, tot := m.Totals(cols)
	att := tot.Totals
	reg.Counter("sim.cycles.compute").Add(s.TotalCompute)
	reg.Counter("sim.cycles.relay").Add(s.TotalRelay)
	reg.Counter("sim.cycles.send").Add(s.TotalSend)
	reg.Counter("sim.cycles.queue_wait").Add(att.QueueWait)
	reg.Counter("sim.cycles.fabric_stall").Add(att.FabricStall)
	reg.Counter("sim.cycles.idle").Add(att.Idle)
	reg.Counter("sim.cycles.mailbox_wait").Add(att.MailboxWait)
	reg.Counter("sim.forwards").Add(att.Forwarded)
	reg.Gauge("sim.active_pes").Set(int64(s.ActivePEs))
	reg.Gauge("sim.mem_peak_bytes").Set(int64(s.MemPeak))
	reg.Gauge("sim.mean_utilization_pct").Set(int64(100 * s.MeanUtilization))
	if busy := s.TotalCompute + s.TotalRelay + s.TotalSend; busy > 0 {
		reg.Gauge("sim.relay_share_pct").Set(100 * s.TotalRelay / busy)
	}
	// Worker-pool occupancy. Pool peak is host-side (scheduler-dependent)
	// like sim.run_wall; the per-row event counts are deterministic, and
	// their spread measures how balanced the rows were.
	reg.Gauge("sim.pool_peak_workers").Set(int64(m.PoolPeak()))
	if se := m.ShardEvents(); len(se) > 0 {
		minE, maxE := se[0], se[0]
		for _, n := range se[1:] {
			if n < minE {
				minE = n
			}
			if n > maxE {
				maxE = n
			}
		}
		reg.Gauge("sim.shard_events_min").Set(minE)
		reg.Gauge("sim.shard_events_max").Set(maxE)
		if maxE > 0 {
			reg.Gauge("sim.shard_imbalance_pct").Set(100 * (maxE - minE) / maxE)
		}
	}
	// Per-stage-group load: Algorithm 1's estimate next to what the mesh
	// actually measured.
	perPos := make([]int64, p.Cfg.PipelineLen)
	for c, v := range cols {
		perPos[c%p.Cfg.PipelineLen] += v
	}
	for pos, g := range p.Groups {
		reg.Counter(fmt.Sprintf("plan.group%02d.est_cycles", pos)).Add(GroupCost(p.EstCosts, g))
		reg.Counter(fmt.Sprintf("plan.group%02d.compute_cycles", pos)).Add(perPos[pos])
	}
	snap := reg.Snapshot()
	mirrorToDefault(snap)
	return snap
}

// mirrorToDefault replays a run's private snapshot onto the process-wide
// Default registry — a no-op unless a CLI enabled it — so a long-running
// process (cereszbench -debug-addr) exposes simulator readings at
// /debug/metrics across runs. Counters accumulate; gauges keep the latest
// run's level.
func mirrorToDefault(s telemetry.Snapshot) {
	if !telemetry.Enabled() {
		return
	}
	for name, v := range s.Counters {
		telemetry.C(name).Add(v)
	}
	for name, v := range s.Gauges {
		if strings.HasSuffix(name, ".max") {
			continue // snapshot artifact of the source gauge, not a gauge itself
		}
		telemetry.G(name).Set(v)
	}
}
