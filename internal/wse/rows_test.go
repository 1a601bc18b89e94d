package wse

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
)

// buildEchoMesh wires a rows×cols mesh of echoProgram PEs with
// blocksPerRow staggered injections per row head.
func buildEchoMesh(t *testing.T, rows, cols, blocksPerRow, workers int) *Mesh {
	t.Helper()
	m, err := NewMesh(Config{Rows: rows, Cols: cols, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			m.SetProgram(r, c, &echoProgram{cost: 50})
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
	elapsed, processed int64
	shardEvents        []int64
	emissions          []Emission
	spans              []SpanEvent
	attribution        Attribution
	stats              []Stats
}

func snapshot(t *testing.T, m *Mesh) runSnapshot {
	t.Helper()
	elapsed, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	s := runSnapshot{elapsed: elapsed, processed: m.Processed(), shardEvents: m.ShardEvents(),
		emissions: m.Emissions(), attribution: m.Attribution()}
	if m.spans != nil {
		s.spans = m.spans.Events()
	}
	for i := range m.pes {
		s.stats = append(s.stats, m.pes[i].Stats())
	}
	return s
}

// firstDiff names the first part of two snapshots that differs, or
// returns "".
func firstDiff(a, b runSnapshot) string {
	switch {
	case a.elapsed != b.elapsed || a.processed != b.processed:
		return fmt.Sprintf("elapsed/processed %d/%d vs %d/%d", a.elapsed, a.processed, b.elapsed, b.processed)
	case !reflect.DeepEqual(a.shardEvents, b.shardEvents):
		return fmt.Sprintf("shard events %v vs %v", a.shardEvents, b.shardEvents)
	case !reflect.DeepEqual(a.emissions, b.emissions):
		return "emission log"
	case !reflect.DeepEqual(a.spans, b.spans):
		return "span log"
	case !reflect.DeepEqual(a.attribution, b.attribution):
		return "attribution"
	case !reflect.DeepEqual(a.stats, b.stats):
		return "per-PE stats"
	}
	return ""
}

// workerCounts are the pool sizes the worker-count invariance tests run.
var workerCounts = []int{1, 2, 4}

// sameOnEveryWorkerCount builds and runs a mesh on each of workerCounts
// and requires one shard per row, min(workers, rows) workers, and
// everything observable equal to the one-worker run's, which it returns.
func sameOnEveryWorkerCount(t *testing.T, build func(workers int) *Mesh) runSnapshot {
	t.Helper()
	var ref runSnapshot
	for i, workers := range workerCounts {
		m := build(workers)
		got := snapshot(t, m)
		rows := m.Config().Rows
		if m.Shards() != rows || len(got.shardEvents) != rows || m.Workers() != min(workers, rows) {
			t.Fatalf("workers=%d: %d shards (%d event counts) on %d workers, want %d on %d",
				workers, m.Shards(), len(got.shardEvents), m.Workers(), rows, min(workers, rows))
		}
		if i == 0 {
			ref = got
			continue
		}
		if d := firstDiff(got, ref); d != "" {
			t.Fatalf("workers=%d: %s differs from one worker's", workers, d)
		}
	}
	return ref
}

// TestShardedMatchesSequential checks that an echo mesh gives the same
// run on every worker count as on one worker, which simulates its rows in
// sequence.
func TestShardedMatchesSequential(t *testing.T) {
	sameOnEveryWorkerCount(t, func(workers int) *Mesh { return buildEchoMesh(t, 8, 6, 32, workers) })
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

// mixedRow is a program whose traffic depends on its row's kind,
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

// TestWorkerEngineReusedAcrossShards runs 64 unequal rows, on one
// worker's single engine row after row and on pools, and requires the
// same run from every worker count. Each row's event count must equal
// that row's run alone on a fresh mesh.
func TestWorkerEngineReusedAcrossShards(t *testing.T) {
	const rows = 64
	var got *Mesh
	ref := sameOnEveryWorkerCount(t, func(workers int) *Mesh {
		m := buildMixedMesh(t, rows, 0, workers)
		if workers == 1 {
			got = m
		}
		return m
	})
	if len(ref.spans) == 0 {
		t.Fatal("no span events recorded")
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
		if _, err := alone.Run(); err != nil {
			t.Fatal(err)
		}
		want[r] = alone.Processed()
		total += want[r]
	}
	if !reflect.DeepEqual(ref.shardEvents, want) || ref.processed != total {
		t.Fatalf("shard events %v (total %d), want each row's own count %v (total %d)", ref.shardEvents, ref.processed, want, total)
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

// initEast is a mixedRow whose head also sends a tracked message east
// from Init, and whose head on row 1 emits from Init.
type initEast struct{ mixedRow }

func (p *initEast) Init(ctx *Context) {
	p.mixedRow.Init(ctx)
	c := ctx.Coord()
	if c.Col != 0 {
		return
	}
	ctx.Send(East, Message{Color: 1, Payload: "east", Wavelets: 2, Span: int64(-1 - c.Row)})
	if c.Row == 1 {
		ctx.Emit("init", 1)
	}
}

// buildTieMesh wires rows of initEast programs fed by a tieFeed, spans
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
			m.SetProgram(r, c, &initEast{mixedRow{kind: r % 3}})
		}
	}
	f := &tieFeed{calls: make([]atomic.Int32, rows)}
	m.SetFeed(f)
	return m, f
}

// TestRowFeedMatchesSequential feeds same-cycle injections on every row,
// plus Init sends, and requires the same run on every worker count as on
// one worker: cycles, events, emission order, attribution and span log.
// Each row must be fed exactly once, Init's emission must open the
// emission log, and every row's Init send must be dispatched.
func TestRowFeedMatchesSequential(t *testing.T) {
	const rows = 12
	var feeds []*tieFeed
	ref := sameOnEveryWorkerCount(t, func(workers int) *Mesh {
		m, f := buildTieMesh(t, rows, workers)
		feeds = append(feeds, f)
		return m
	})
	for i, f := range feeds {
		for r := range f.calls {
			if n := f.calls[r].Load(); n != 1 {
				t.Fatalf("workers=%d: row %d fed %d times, want once", workerCounts[i], r, n)
			}
		}
	}
	if ems := ref.emissions; len(ems) == 0 || ems[0].Payload != "init" {
		t.Fatalf("emission log does not open with Init's emission: %v", ems[:min(len(ems), 1)])
	}
	var sent int
	for _, ev := range ref.spans {
		if ev.Span < 0 && ev.Kind == SpanDispatch && ev.PE == (Coord{Row: int(-1 - ev.Span), Col: 1}) {
			sent++
		}
	}
	if sent != rows {
		t.Fatalf("%d Init sends dispatched, want %d", sent, rows)
	}
}

// TestEmissionsMergedOnDemand checks that a run leaves its emission log
// unmerged until Emissions is called, that the lazy merge equals merging
// at the end of the run, and that a second call returns the same log.
func TestEmissionsMergedOnDemand(t *testing.T) {
	m := buildMixedMesh(t, 16, 0, 2)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.rowEmis == nil {
		t.Fatal("the run merged its emissions before anyone asked")
	}
	var eager []Emission
	mergeTagged(slices.Clone(m.rowEmis), func(em *Emission) { eager = append(eager, *em) })
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
		t.Fatal("merged log diverges from one worker's")
	}
}

// rowBounce relays every message back toward the other PE of a 2-column
// row, forever: a livelock that stays inside its row.
type rowBounce struct{}

func (rowBounce) Init(*Context) {}
func (rowBounce) OnMessage(ctx *Context, msg Message) {
	ctx.Forward([2]Dir{East, West}[ctx.Coord().Col])
}

// TestMaxEventsOnAnyWorkerCount checks the run's event budget:
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
				m.SetProgram(r, c, &echoProgram{cost: 50})
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
		t.Fatalf("a livelock on two rows returned %v, want the livelock error", err)
	} else if m.Shards() != 2 {
		t.Fatalf("the livelock ran on %d shards, want 2", m.Shards())
	}
}

// TestFailedRunKeepsCounts holds a run that fails on MaxEvents to its
// counts: a two-row ping-pong livelocks on every worker count, and
// afterwards Processed exceeds MaxEvents and ShardEvents has one entry
// per row, summing to it. How far past MaxEvents the run got depends on
// the worker count, which holds that many prepaid chunks of the budget.
func TestFailedRunKeepsCounts(t *testing.T) {
	const maxEvents = 1000
	for _, workers := range workerCounts {
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
		if len(ev) != 2 || m.Shards() != 2 {
			t.Fatalf("workers=%d: %d ShardEvents entries for %d shards, want one per row", workers, len(ev), m.Shards())
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
