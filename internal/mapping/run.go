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
	raw []float32          // compression input (nil for decompression)
	enc []byte             // decompression input (nil for compression)
	st  *stages.BlockState // loaded when a head PE captures the block
}

// newFlowBlocks returns a run's n blocks, each with its block state from
// one per-run arena (stages.NewBlockStates), so that capturing a block
// allocates nothing.
func newFlowBlocks(n, L int) []flowBlock {
	blocks := make([]flowBlock, n)
	states := stages.NewBlockStates(L, n)
	for b := range blocks {
		blocks[b] = flowBlock{id: b, st: &states[b]}
	}
	return blocks
}

// peProgram is the per-PE code: relay raw blocks for pipelines to the
// east, capture every (pipelinesEast+1)-th raw block if a head, and run
// the assigned stage group on pipeline traffic (paper Fig. 9b).
type peProgram struct {
	plan   *Plan
	isHead bool
	isTail bool
	group  Group

	relayInit int // blocks to relay between two captures
	relayLeft int
}

// Init implements wse.Program: reserve this PE's static working set — its
// share of the block state plus a relay buffer when raw traffic passes
// through — against the 48 KB budget.
func (pp *peProgram) Init(ctx *wse.Context) {
	pp.relayLeft = pp.relayInit
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

// OnMessage implements wse.Program.
func (pp *peProgram) OnMessage(ctx *wse.Context, msg wse.Message) {
	switch msg.Color {
	case colorRaw:
		if !pp.isHead {
			// Interior PEs relay raw traffic toward farther pipelines.
			ctx.LabelSpan("relay")
			ctx.Forward(wse.East)
			return
		}
		if pp.relayLeft > 0 {
			pp.relayLeft--
			ctx.LabelSpan("relay")
			ctx.Forward(wse.East)
			return
		}
		pp.relayLeft = pp.relayInit
		fb := msg.Payload.(*flowBlock)
		if pp.plan.Chain.Dir == stages.Compress {
			fb.st.ResetForCompress(fb.raw)
		} else {
			fb.st.ResetForDecompress(fb.enc)
		}
		pp.process(ctx, fb)
	case colorStage:
		pp.process(ctx, msg.Payload.(*flowBlock))
	default:
		panic(fmt.Sprintf("mapping: unexpected color %d at %v", msg.Color, ctx.Coord()))
	}
}

// ShardProfile implements wse.ShardAware: all of the mapping's traffic
// is strictly east-bound (colorRaw relays, colorStage pipeline
// hand-offs), so every row can simulate as its own shard.
func (*peProgram) ShardProfile() wse.ShardProfile {
	return wse.ShardProfile{RowLocal: true}
}

func (pp *peProgram) process(ctx *wse.Context, fb *flowBlock) {
	chain := pp.plan.Chain
	ctx.LabelSpan(pp.plan.groupLabels[ctx.Coord().Col%pp.plan.Cfg.PipelineLen])
	for i := pp.group.Lo; i < pp.group.Hi; i++ {
		ctx.Spend(chain.Stages[i].Cycles(fb.st))
		chain.Stages[i].Run(fb.st)
	}
	if pp.isTail {
		ctx.Emit(fb, fb.st.Wavelets())
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
	// Attribution is the per-PE timeline decomposition (compute,
	// relay-forward, queue-wait, fabric-stall, idle) of the run; every
	// PE's buckets sum to Cycles exactly, and the whole structure is
	// bit-identical across Mesh.Workers settings.
	Attribution wse.Attribution
	// Spans holds every block's assembled lifecycle when
	// PlanConfig.RecordSpans is set (nil otherwise).
	Spans []wse.BlockSpan
	// SpanLog is the raw span log behind Spans, for Perfetto export
	// (nil unless RecordSpans).
	SpanLog *wse.SpanLog
}

// install wires the plan's programs onto rows [0, rows) of the mesh.
// Unless ProcessorRelay is set, interior pipeline PEs get a static router
// route for the raw-block color, so crossing traffic never touches their
// processor.
func (p *Plan) install(m *wse.Mesh, rows int) {
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

// feed streams every block onto the wafer at link rate, the "data
// generated fast enough" assumption of §4.4: row r's west-edge PE gets
// blocks r, r+rows, r+2·rows, … (§4.3).
func feed(m *wse.Mesh, blocks []flowBlock, rows int, wavelets func(*flowBlock) int) {
	for r := 0; r < rows; r++ {
		t := int64(0)
		for b := r; b < len(blocks); b += rows {
			fb := &blocks[b]
			w := wavelets(fb)
			m.Inject(r, 0, wse.Message{Color: colorRaw, Payload: fb, Wavelets: w,
				Span: int64(fb.id) + 1}, t)
			t += int64(w) + wse.LinkLatency
		}
	}
}

// Compress runs the plan on data and returns the compressed stream, which
// is byte-identical to internal/core's for the same parameters.
func (p *Plan) Compress(data []float32) (*Result, error) {
	if p.Chain.Dir != stages.Compress {
		return nil, fmt.Errorf("mapping: Compress on a %v chain", p.Chain.Dir)
	}
	L := p.Chain.Cfg.BlockLen
	nBlocks := (len(data) + L - 1) / L
	m, err := wse.NewMesh(p.Cfg.Mesh)
	if err != nil {
		return nil, err
	}
	var spanLog *wse.SpanLog
	if p.Cfg.RecordSpans {
		spanLog = m.AttachSpans()
	}
	rows := p.Cfg.Mesh.Rows
	if rows > nBlocks && nBlocks > 0 {
		rows = nBlocks
	}
	p.install(m, rows)

	blocks := newFlowBlocks(nBlocks, L)
	for b := range blocks {
		blocks[b].raw = data[b*L : min((b+1)*L, len(data))]
	}
	feed(m, blocks, rows, func(*flowBlock) int { return L })

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
	encoded, err := collectBlocks(m, nBlocks)
	if err != nil {
		return nil, err
	}
	size := core.StreamHeaderSize
	for _, fb := range encoded {
		size += len(fb.st.Encoded)
	}
	out := core.AppendStreamHeader(make([]byte, 0, size), meta)
	for _, fb := range encoded {
		out = append(out, fb.st.Encoded...)
	}
	res := p.newResult(m, cycles, int64(4*len(data)), meta, wall, spanLog)
	res.Bytes = out
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

	m, err := wse.NewMesh(p.Cfg.Mesh)
	if err != nil {
		return nil, err
	}
	var spanLog *wse.SpanLog
	if p.Cfg.RecordSpans {
		spanLog = m.AttachSpans()
	}
	rows := p.Cfg.Mesh.Rows
	if rows > nBlocks && nBlocks > 0 {
		rows = nBlocks
	}
	p.install(m, rows)

	blocks := newFlowBlocks(nBlocks, meta.BlockLen)
	for b := range blocks {
		blocks[b].enc = body[offsets[b]:offsets[b+1]]
	}
	feed(m, blocks, rows, func(fb *flowBlock) int { return (len(fb.enc) + 3) / 4 })

	runStart := time.Now()
	cycles, err := m.Run()
	if err != nil {
		return nil, err
	}
	wall := time.Since(runStart)
	decoded, err := collectBlocks(m, nBlocks)
	if err != nil {
		return nil, err
	}
	L := meta.BlockLen
	out := make([]float32, meta.Elements)
	for _, fb := range decoded {
		lo := fb.id * L
		hi := lo + L
		if hi > len(out) {
			hi = len(out)
		}
		copy(out[lo:hi], fb.st.Raw)
	}
	res := p.newResult(m, cycles, int64(4*meta.Elements), meta, wall, spanLog)
	res.Data = out
	return res, nil
}

func (p *Plan) newResult(m *wse.Mesh, cycles, inputBytes int64, meta core.Meta, wall time.Duration, spanLog *wse.SpanLog) *Result {
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
		Attribution:    m.Attribution(),
		SpanLog:        spanLog,
	}
	if spanLog != nil {
		res.Spans = spanLog.BlockSpans()
	}
	res.Telemetry = p.runTelemetry(m, cycles, wall, res.Attribution)
	return res
}

// runTelemetry fills a fresh registry with the run's accounting: simulated
// cycle totals split by kind, stall attribution, worker-pool occupancy,
// relay occupancy, estimated versus measured per-stage-group load, and the
// host wall time the simulation itself took. The same values also land on
// the Default registry (no-op unless a CLI enabled it), so a long-running
// bench server exposes them at /debug/metrics across runs.
func (p *Plan) runTelemetry(m *wse.Mesh, cycles int64, wall time.Duration, att wse.Attribution) telemetry.Snapshot {
	reg := telemetry.NewRegistry()
	reg.Histogram("sim.run_wall").Observe(wall.Nanoseconds())
	reg.Counter("sim.events").Add(m.Processed())
	reg.Counter("sim.cycles").Add(cycles)
	reg.Gauge("sim.shards").Set(int64(m.Shards()))
	reg.Gauge("sim.workers").Set(int64(m.Workers()))
	s := m.Summary()
	reg.Counter("sim.cycles.compute").Add(s.TotalCompute)
	reg.Counter("sim.cycles.relay").Add(s.TotalRelay)
	reg.Counter("sim.cycles.send").Add(s.TotalSend)
	reg.Counter("sim.cycles.queue_wait").Add(att.Totals.QueueWait)
	reg.Counter("sim.cycles.fabric_stall").Add(att.Totals.FabricStall)
	reg.Counter("sim.cycles.idle").Add(att.Totals.Idle)
	reg.Counter("sim.cycles.mailbox_wait").Add(att.Totals.MailboxWait)
	reg.Counter("sim.forwards").Add(att.Totals.Forwarded)
	reg.Gauge("sim.active_pes").Set(int64(s.ActivePEs))
	reg.Gauge("sim.mem_peak_bytes").Set(int64(s.MemPeak))
	reg.Gauge("sim.mean_utilization_pct").Set(int64(100 * s.MeanUtilization))
	if busy := s.TotalCompute + s.TotalRelay + s.TotalSend; busy > 0 {
		reg.Gauge("sim.relay_share_pct").Set(100 * s.TotalRelay / busy)
	}
	// Worker-pool occupancy for the sharded engine. Pool peak is host-side
	// (scheduler-dependent) like sim.run_wall; the shard event counts are
	// deterministic, and their spread measures how balanced the row shards
	// were.
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
	// actually measured. Column c holds pipeline position c mod PipelineLen,
	// so summing per-PE compute per position recovers the group split.
	perPos := make([]int64, p.Cfg.PipelineLen)
	for r := 0; r < m.Config().Rows; r++ {
		for c := 0; c < m.Config().Cols; c++ {
			perPos[c%p.Cfg.PipelineLen] += m.PE(r, c).Stats().ComputeCycles
		}
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

// collectBlocks gathers the emitted flow blocks and orders them by id.
func collectBlocks(m *wse.Mesh, nBlocks int) ([]*flowBlock, error) {
	ems := m.Emissions()
	if len(ems) != nBlocks {
		return nil, fmt.Errorf("mapping: %d blocks emitted, want %d", len(ems), nBlocks)
	}
	// Block ids are dense 0..nBlocks-1, so the emissions sort by direct
	// placement: out[id] is the slot, and a filled slot is a duplicate.
	out := make([]*flowBlock, nBlocks)
	for _, e := range ems {
		fb, ok := e.Payload.(*flowBlock)
		if !ok {
			return nil, fmt.Errorf("mapping: unexpected emission payload %T", e.Payload)
		}
		if fb.id < 0 || fb.id >= nBlocks {
			return nil, fmt.Errorf("mapping: emitted block id %d outside [0,%d)", fb.id, nBlocks)
		}
		if out[fb.id] != nil {
			return nil, fmt.Errorf("mapping: block %d emitted twice", fb.id)
		}
		out[fb.id] = fb
	}
	return out, nil
}
