package wse

import (
	"math/rand"
	"os"
	"strconv"
	"testing"
)

// buildBenchMesh builds a mesh of relay pipelines (every PE forwards east
// at a fixed per-message cost, the edge emits) and streams blocksPerRow
// messages into each row head — the simulator's hot loop with
// mapping-shaped traffic, ready to Run.
func buildBenchMesh(tb testing.TB, cfg Config, blocksPerRow int) *Mesh {
	tb.Helper()
	m, err := NewMesh(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	for r := 0; r < cfg.Rows; r++ {
		for c := 0; c < cfg.Cols; c++ {
			m.SetProgram(r, c, benchProgram(200))
		}
	}
	for r := 0; r < cfg.Rows; r++ {
		for blk := 0; blk < blocksPerRow; blk++ {
			m.Inject(r, 0, Message{Color: 0, Payload: blk, Wavelets: 8}, int64(9*blk))
		}
	}
	return m
}

// benchMeshRun builds and runs a rows×cols bench mesh per iteration.
func benchMeshRun(b *testing.B, rows, cols, blocksPerRow int) {
	b.ReportAllocs()
	var events int64
	for i := 0; i < b.N; i++ {
		m := buildBenchMesh(b, benchConfig(rows, cols), blocksPerRow)
		if _, err := m.Run(); err != nil {
			b.Fatal(err)
		}
		if got := len(m.Emissions()); got != rows*blocksPerRow {
			b.Fatalf("%d emissions, want %d", got, rows*blocksPerRow)
		}
		events = m.Processed()
	}
	b.ReportMetric(float64(events), "events/run")
}

func BenchmarkMeshRun(b *testing.B) {
	b.Run("small", func(b *testing.B) { benchMeshRun(b, 1, 8, 512) })
	b.Run("many", func(b *testing.B) { benchMeshRun(b, 64, 8, 256) })
}

// benchConfig builds the mesh config for the benchmark geometry. The
// CERESZ_SIM_WORKERS environment variable sets Config.Workers (0/unset =
// one worker per CPU, N = a pool of N), so cmd/benchdiff can pair one
// worker's runs with a pool's under the same benchmark names.
func benchConfig(rows, cols int) Config {
	cfg := Config{Rows: rows, Cols: cols}
	if s := os.Getenv("CERESZ_SIM_WORKERS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil {
			cfg.Workers = n
		}
	}
	return cfg
}

// benchProgram builds the per-PE relay program.
func benchProgram(cost int64) Program {
	return &echoProgram{cost: cost}
}

// BenchmarkEventQueueHold times one pop plus one push on the engine's
// event queue and on the 4-ary heap alone, under the classic hold model
// at a fixed depth: pop the minimum and push it back 33–93 cycles later
// (a relay hop or a handler), or 1000–4000 cycles later for one in four
// events (a block waiting its turn). 53 is the mean queue depth of the
// 64×64 mapping run.
func BenchmarkEventQueueHold(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	delays := make([]int64, 4096)
	for i := range delays {
		if rng.Intn(4) == 0 {
			delays[i] = 1000 + rng.Int63n(3001)
		} else {
			delays[i] = 33 + rng.Int63n(61)
		}
	}
	type queue interface {
		push(evKey)
		pop() evKey
	}
	hold := func(b *testing.B, q queue, depth int) {
		var seq int64
		for i := 0; i < depth; i++ {
			q.push(evKey{at: delays[i], seq: seq, src: int32(i), slot: int32(i)})
			seq++
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := q.pop()
			k.at += delays[i&(len(delays)-1)]
			k.seq = seq
			seq++
			q.push(k)
		}
	}
	for _, depth := range []int{16, 53, 200} {
		b.Run(strconv.Itoa(depth), func(b *testing.B) {
			b.Run("heap", func(b *testing.B) { hold(b, &eventHeap{keys: make([]evKey, 0, depth)}, depth) })
			b.Run("calendar", func(b *testing.B) { hold(b, newCalQueue(depth), depth) })
		})
	}
}
