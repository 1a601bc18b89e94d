package wse

import (
	"fmt"
	"reflect"
	"strings"
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
		ctx.Forward(South, msg)
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
			ctx.Forward(East, msg)
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
