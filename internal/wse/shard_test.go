package wse

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
)

// rowEcho is echoProgram with a RowLocal shard profile, so meshes running
// it partition into one shard per row.
type rowEcho struct {
	echoProgram
}

func (*rowEcho) ShardProfile() ShardProfile { return ShardProfile{RowLocal: true} }

// buildEchoMesh wires a rows×cols mesh of rowEcho PEs with blocksPerRow
// staggered injections per row head.
func buildEchoMesh(t *testing.T, rows, cols, blocksPerRow, workers int) *Mesh {
	t.Helper()
	m, err := NewMesh(Config{Rows: rows, Cols: cols, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			m.SetProgram(r, c, &rowEcho{echoProgram{cost: 50}})
		}
	}
	for r := 0; r < rows; r++ {
		for b := 0; b < blocksPerRow; b++ {
			m.Inject(r, 0, Message{Color: 1, Payload: fmt.Sprintf("r%db%d", r, b), Wavelets: 4}, int64(5*b))
		}
	}
	return m
}

// runSnapshot captures everything observable about a finished run.
type runSnapshot struct {
	elapsed   int64
	processed int64
	emissions []Emission
	stats     []Stats
}

func snapshot(t *testing.T, m *Mesh) runSnapshot {
	t.Helper()
	elapsed, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	s := runSnapshot{elapsed: elapsed, processed: m.Processed(), emissions: m.Emissions()}
	cfg := m.Config()
	for r := 0; r < cfg.Rows; r++ {
		for c := 0; c < cfg.Cols; c++ {
			s.stats = append(s.stats, m.PE(r, c).Stats())
		}
	}
	return s
}

func TestShardedMatchesSequential(t *testing.T) {
	ref := snapshot(t, buildEchoMesh(t, 8, 6, 32, 1))
	for _, workers := range []int{2, 3, 8} {
		m := buildEchoMesh(t, 8, 6, 32, workers)
		got := snapshot(t, m)
		if m.Shards() != 8 {
			t.Fatalf("workers=%d: %d shards, want 8", workers, m.Shards())
		}
		if got.elapsed != ref.elapsed || got.processed != ref.processed {
			t.Fatalf("workers=%d: elapsed/processed %d/%d, want %d/%d",
				workers, got.elapsed, got.processed, ref.elapsed, ref.processed)
		}
		if !reflect.DeepEqual(got.emissions, ref.emissions) {
			t.Fatalf("workers=%d: emission log diverges from sequential", workers)
		}
		if !reflect.DeepEqual(got.stats, ref.stats) {
			t.Fatalf("workers=%d: per-PE stats diverge from sequential", workers)
		}
	}
}

func TestUnprofiledProgramsFallBackToOneShard(t *testing.T) {
	m, err := NewMesh(Config{Rows: 4, Cols: 2, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 4; r++ {
		for c := 0; c < 2; c++ {
			m.SetProgram(r, c, &echoProgram{cost: 10}) // no ShardProfile
		}
	}
	m.Inject(0, 0, Message{Color: 0, Payload: 1, Wavelets: 1}, 0)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Shards() != 1 || m.Workers() != 1 {
		t.Fatalf("got %d shards / %d workers, want the sequential fallback", m.Shards(), m.Workers())
	}
}

// southLiar claims RowLocal but sends South from a handler.
type southLiar struct{}

func (*southLiar) Init(*Context) {}
func (*southLiar) OnMessage(ctx *Context, msg Message) {
	if ctx.Coord().Row == 0 {
		ctx.Forward(South)
	}
}
func (*southLiar) ShardProfile() ShardProfile { return ShardProfile{RowLocal: true} }

func TestShardProfileViolationPanics(t *testing.T) {
	m, err := NewMesh(Config{Rows: 2, Cols: 2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 2; r++ {
		for c := 0; c < 2; c++ {
			m.SetProgram(r, c, &southLiar{})
		}
	}
	m.Inject(0, 0, Message{Color: 0, Payload: 1, Wavelets: 1}, 0)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Run did not panic on a RowLocal violation")
		}
		if !strings.Contains(fmt.Sprint(r), "shard-profile violation") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	m.Run()
}

func TestInjectCarriesOffWaferSrc(t *testing.T) {
	m, err := NewMesh(Config{Rows: 1, Cols: 2})
	if err != nil {
		t.Fatal(err)
	}
	var srcs []Coord
	rec := ProgramFunc(func(ctx *Context, msg Message) {
		srcs = append(srcs, msg.Src)
		if ctx.Coord().Col == 0 {
			ctx.Forward(East)
		}
	})
	m.SetProgram(0, 0, rec)
	m.SetProgram(0, 1, rec)
	m.Inject(0, 0, Message{Color: 0, Payload: "x", Wavelets: 1, Src: Coord{Row: 9, Col: 9}}, 0)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if len(srcs) != 2 {
		t.Fatalf("saw %d deliveries, want 2", len(srcs))
	}
	if srcs[0] != OffWafer {
		t.Fatalf("injected message Src = %v, want the OffWafer sentinel %v", srcs[0], OffWafer)
	}
	if want := (Coord{Row: 0, Col: 0}); srcs[1] != want {
		t.Fatalf("fabric message Src = %v, want sender %v", srcs[1], want)
	}
}

// mixedRow is a RowLocal program whose traffic depends on its row's kind,
// not on its coordinates, so a row behaves the same on a 1-row mesh:
//   - kind 0 relays every message east to the row's last PE, which
//     emits; its head also sends one untracked message from Init;
//   - kind 1 emits on every PE and sends a grown copy east;
//   - kind 2 relays on even columns and emits and sends on odd ones.
type mixedRow struct {
	kind int
}

func (p *mixedRow) Init(ctx *Context) {
	if p.kind == 0 && ctx.Coord().Col == 0 {
		ctx.Send(East, Message{Color: 1, Payload: "init", Wavelets: 3})
	}
}

func (p *mixedRow) OnMessage(ctx *Context, msg Message) {
	col := ctx.Coord().Col
	last := col == ctx.Cols()-1
	relay := p.kind == 0 || (p.kind == 2 && col%2 == 0)
	if relay && !last {
		ctx.LabelSpan("relay")
		ctx.Spend(int64(20 + col))
		ctx.Forward(East)
		return
	}
	ctx.LabelSpan("stage")
	ctx.Spend(int64(15 + 3*col))
	ctx.Emit(msg.Payload, 2)
	if p.kind != 0 && !last {
		msg.Wavelets++
		ctx.Send(East, msg)
	}
}

func (*mixedRow) ShardProfile() ShardProfile { return ShardProfile{RowLocal: true} }

// buildMixedMesh wires rows with mixedRow programs of kind r%3 and
// 1+(7r)%13 blocks per row (one in five untracked), spans attached.
// rowOff shifts the row used for kind and blocks, so a 1-row mesh can
// replay any row of the 64-row one.
func buildMixedMesh(t *testing.T, rows, rowOff, workers int) *Mesh {
	t.Helper()
	const cols = 6
	m, err := NewMesh(Config{Rows: rows, Cols: cols, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	m.AttachSpans()
	for r := 0; r < rows; r++ {
		row := r + rowOff
		for c := 0; c < cols; c++ {
			m.SetProgram(r, c, &mixedRow{kind: row % 3})
		}
		for b := 0; b < 1+(7*row)%13; b++ {
			var span int64
			if b%5 != 4 {
				span = int64(100*row + b + 1)
			}
			m.Inject(r, 0, Message{Color: 0, Payload: [2]int{row, b}, Wavelets: 2 + b%4, Span: span}, int64(3*b+row%4))
		}
	}
	return m
}

// TestWorkerEngineReusedAcrossShards runs 64 unequal row shards on two
// workers, each of which runs one engine shard after shard, and checks
// everything observable against the sequential engine. Each shard's
// event count must equal its row run alone on a fresh mesh.
func TestWorkerEngineReusedAcrossShards(t *testing.T) {
	const rows = 64
	run := func(m *Mesh) int64 {
		t.Helper()
		elapsed, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return elapsed
	}
	seq := buildMixedMesh(t, rows, 0, 1)
	seqElapsed := run(seq)
	got := buildMixedMesh(t, rows, 0, 2)
	if elapsed := run(got); elapsed != seqElapsed {
		t.Fatalf("elapsed %d cycles, want the sequential %d", elapsed, seqElapsed)
	}
	if got.Shards() != rows || got.Workers() != 2 {
		t.Fatalf("ran %d shards on %d workers, want %d on 2", got.Shards(), got.Workers(), rows)
	}
	if !reflect.DeepEqual(got.Emissions(), seq.Emissions()) {
		t.Fatal("emission log diverges from sequential")
	}
	if len(seq.spans.Events()) == 0 {
		t.Fatal("no span events recorded")
	}
	if !reflect.DeepEqual(got.spans.Events(), seq.spans.Events()) {
		t.Fatal("span log diverges from sequential")
	}
	if !reflect.DeepEqual(got.Attribution(), seq.Attribution()) {
		t.Fatal("attribution diverges from sequential")
	}
	att := got.Attribution()
	att.PEs = nil
	if tot := got.AttributionTotals(); !reflect.DeepEqual(tot, att) {
		t.Fatalf("AttributionTotals = %+v, want Attribution without its PE list %+v", tot, att)
	}
	if n := testing.AllocsPerRun(10, func() { got.AttributionTotals() }); n != 0 {
		t.Fatalf("AttributionTotals allocates %v times", n)
	}
	want := make([]int64, rows)
	var total int64
	for r := range want {
		alone := buildMixedMesh(t, 1, r, 1)
		run(alone)
		want[r] = alone.Processed()
		total += want[r]
	}
	if !reflect.DeepEqual(got.ShardEvents(), want) {
		t.Fatalf("shard events %v, want each row's own count %v", got.ShardEvents(), want)
	}
	if se := seq.ShardEvents(); len(se) != 1 || se[0] != total || got.Processed() != total {
		t.Fatalf("sequential shard events %v and sharded total %d, want [%d] and %d", se, got.Processed(), total, total)
	}
}

// tieFeed feeds every row of a mesh two messages a cycle, on the same
// cycles in every row, so host keys tie on their cycle across rows and
// within one; calls counts each row's FeedRow calls.
type tieFeed struct {
	calls []atomic.Int32
}

func (f *tieFeed) RowLen(row int) int { return 1 + (5*row)%7 }

func (f *tieFeed) FeedRow(row int, in *Injector) {
	f.calls[row].Add(1)
	for b := 0; b < f.RowLen(row); b++ {
		var span int64
		if b%4 != 3 {
			span = int64(100*row + b + 1)
		}
		in.Inject(0, Message{Color: 0, Payload: [2]int{row, b}, Wavelets: 2 + b%3, Span: span}, int64(6*(b/2)))
	}
}

// initSouth is a mixedRow whose head also sends a tracked message into
// the row below from Init, which RowLocal allows, and whose head on row 1
// emits from Init.
type initSouth struct{ mixedRow }

func (p *initSouth) Init(ctx *Context) {
	p.mixedRow.Init(ctx)
	c := ctx.Coord()
	if c.Col != 0 {
		return
	}
	if c.Row < ctx.Rows()-1 {
		ctx.Send(South, Message{Color: 1, Payload: "south", Wavelets: 2, Span: int64(-1 - c.Row)})
	}
	if c.Row == 1 {
		ctx.Emit("init", 1)
	}
}

// buildTieMesh wires rows of initSouth programs fed by a tieFeed, spans
// attached.
func buildTieMesh(t *testing.T, rows, workers int) (*Mesh, *tieFeed) {
	t.Helper()
	const cols = 5
	m, err := NewMesh(Config{Rows: rows, Cols: cols, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	m.AttachSpans()
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			m.SetProgram(r, c, &initSouth{mixedRow{kind: r % 3}})
		}
	}
	f := &tieFeed{calls: make([]atomic.Int32, rows)}
	m.SetFeed(f)
	return m, f
}

// TestRowFeedMatchesSequential feeds same-cycle injections on every row,
// plus Init sends across rows, and checks the sharded engine against the
// sequential one: cycles, events, emission order, attribution and span
// log must be identical, and each row must be fed exactly once.
func TestRowFeedMatchesSequential(t *testing.T) {
	const rows = 12
	seq, seqFeed := buildTieMesh(t, rows, 1)
	seqElapsed, err := seq.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3} {
		m, f := buildTieMesh(t, rows, workers)
		elapsed, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		if m.Shards() != rows {
			t.Fatalf("workers=%d: %d shards, want %d", workers, m.Shards(), rows)
		}
		if elapsed != seqElapsed || m.Processed() != seq.Processed() {
			t.Fatalf("workers=%d: elapsed/processed %d/%d, want %d/%d",
				workers, elapsed, m.Processed(), seqElapsed, seq.Processed())
		}
		if !reflect.DeepEqual(m.Emissions(), seq.Emissions()) {
			t.Fatalf("workers=%d: emission log diverges from sequential", workers)
		}
		if !reflect.DeepEqual(m.Attribution(), seq.Attribution()) {
			t.Fatalf("workers=%d: attribution diverges from sequential", workers)
		}
		if !reflect.DeepEqual(m.spans.Events(), seq.spans.Events()) {
			t.Fatalf("workers=%d: span log diverges from sequential", workers)
		}
		for r := range f.calls {
			if n, sn := f.calls[r].Load(), seqFeed.calls[r].Load(); n != 1 || sn != 1 {
				t.Fatalf("workers=%d: row %d fed %d times (sequential %d), want once", workers, r, n, sn)
			}
		}
	}
	ems := seq.Emissions()
	if len(ems) == 0 || ems[0].Payload != "init" {
		t.Fatalf("emission log does not open with Init's emission: %v", ems[:min(len(ems), 1)])
	}
	var south int
	for _, ev := range seq.spans.Events() {
		if ev.Span < 0 && ev.Kind == SpanDispatch && ev.PE == (Coord{Row: int(-ev.Span), Col: 0}) {
			south++
		}
	}
	if south != rows-1 {
		t.Fatalf("%d Init sends dispatched across rows, want %d", south, rows-1)
	}
}

// TestEmissionsMergedOnDemand checks that a sharded run leaves its
// emission log unmerged until Emissions is called, that the lazy merge
// equals merging at the end of the run, and that a second call returns
// the same log.
func TestEmissionsMergedOnDemand(t *testing.T) {
	m := buildMixedMesh(t, 16, 0, 2)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.shardEmis == nil {
		t.Fatal("the run merged its emissions before anyone asked")
	}
	var eager []Emission
	mergeTagged(slices.Clone(m.shardEmis), func(em *Emission) { eager = append(eager, *em) })
	got := m.Emissions()
	if len(got) == 0 || !reflect.DeepEqual(got, eager) {
		t.Fatalf("lazy merge gave %d emissions, eager %d, or they differ", len(got), len(eager))
	}
	again := m.Emissions()
	if len(again) != len(got) || &again[0] != &got[0] {
		t.Fatal("a second Emissions call did not return the first call's log")
	}
	seq := buildMixedMesh(t, 16, 0, 1)
	if _, err := seq.Run(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, seq.Emissions()) {
		t.Fatal("merged log diverges from sequential")
	}
}

// rowBounce relays every message back toward the other PE of a 2-column
// row, forever: a livelock that stays inside its row.
type rowBounce struct{}

func (rowBounce) Init(*Context) {}
func (rowBounce) OnMessage(ctx *Context, msg Message) {
	ctx.Forward([2]Dir{East, West}[ctx.Coord().Col])
}
func (rowBounce) ShardProfile() ShardProfile { return ShardProfile{RowLocal: true} }

// TestMaxEventsOnAnyWorkerCount checks the sharded engine's event budget:
// a run whose events stay within MaxEvents succeeds on every worker
// count, also when each worker draws more than one chunk, and a livelock
// on row shards still fails.
func TestMaxEventsOnAnyWorkerCount(t *testing.T) {
	echo := func(rows, cols, blocks int, maxEvents int64, workers int) (*Mesh, error) {
		m, err := NewMesh(Config{Rows: rows, Cols: cols, Workers: workers, MaxEvents: maxEvents})
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				m.SetProgram(r, c, &rowEcho{echoProgram{cost: 50}})
			}
			for b := 0; b < blocks; b++ {
				m.Inject(r, 0, Message{Color: 1, Wavelets: 4}, int64(5*b))
			}
		}
		_, err = m.Run()
		return m, err
	}
	for _, tc := range []struct {
		rows, cols, blocks int
		maxEvents          int64
	}{
		{2, 4, 1, 100},
		{8, 6, 200, 0}, // 0: exactly the run's own event count
	} {
		seq, err := echo(tc.rows, tc.cols, tc.blocks, 1_000_000, 1)
		if err != nil {
			t.Fatal(err)
		}
		limit := tc.maxEvents
		if limit == 0 {
			limit = seq.Processed()
		}
		for _, workers := range []int{1, 2, 3} {
			m, err := echo(tc.rows, tc.cols, tc.blocks, limit, workers)
			if err != nil {
				t.Fatalf("%dx%d mesh, %d blocks a row, MaxEvents %d, workers=%d: %v (the run has %d events)",
					tc.rows, tc.cols, tc.blocks, limit, workers, err, seq.Processed())
			}
			if m.Processed() != seq.Processed() {
				t.Fatalf("workers=%d: %d events, want %d", workers, m.Processed(), seq.Processed())
			}
		}
	}
	m, err := NewMesh(Config{Rows: 2, Cols: 2, Workers: 2, MaxEvents: 1000})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 2; r++ {
		m.SetProgram(r, 0, rowBounce{})
		m.SetProgram(r, 1, rowBounce{})
		m.Inject(r, 0, Message{Color: 0, Wavelets: 1}, 0)
	}
	if _, err := m.Run(); err == nil || !strings.Contains(err.Error(), "livelock") {
		t.Fatalf("a livelock on two row shards returned %v, want the livelock error", err)
	} else if m.Shards() != 2 {
		t.Fatalf("the livelock ran on %d shards, want 2", m.Shards())
	}
}

// TestFailedRunKeepsCounts holds a run that fails on MaxEvents to the
// counts the sequential engine reports for it: a two-row ping-pong
// livelocks on any worker count, and afterwards Processed exceeds
// MaxEvents and ShardEvents has one entry per shard, summing to it.
func TestFailedRunKeepsCounts(t *testing.T) {
	const maxEvents = 1000
	for _, workers := range []int{1, 2} {
		m, err := NewMesh(Config{Rows: 2, Cols: 2, Workers: workers, MaxEvents: maxEvents})
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 2; r++ {
			m.SetProgram(r, 0, rowBounce{})
			m.SetProgram(r, 1, rowBounce{})
			m.Inject(r, 0, Message{Color: 0, Wavelets: 1}, 0)
		}
		if _, err := m.Run(); err == nil {
			t.Fatalf("workers=%d: the ping-pong did not fail", workers)
		}
		if m.Processed() <= maxEvents {
			t.Fatalf("workers=%d: %d events processed, want more than MaxEvents %d", workers, m.Processed(), maxEvents)
		}
		ev := m.ShardEvents()
		if len(ev) != m.Shards() {
			t.Fatalf("workers=%d: %d ShardEvents entries for %d shards", workers, len(ev), m.Shards())
		}
		var sum int64
		for _, n := range ev {
			sum += n
		}
		if sum != m.Processed() {
			t.Fatalf("workers=%d: ShardEvents %v sum to %d, Processed is %d", workers, ev, sum, m.Processed())
		}
	}
}
