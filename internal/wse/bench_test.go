package wse

import (
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
// CERESZ_SIM_WORKERS environment variable selects the engine (1 = the
// sequential reference, 0/unset = auto, N = a sharded pool of N), so
// cmd/benchdiff can pair sequential and sharded runs of the same
// benchmark names.
func benchConfig(rows, cols int) Config {
	cfg := Config{Rows: rows, Cols: cols}
	if s := os.Getenv("CERESZ_SIM_WORKERS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil {
			cfg.Workers = n
		}
	}
	return cfg
}

// benchProgram builds the per-PE relay program, row-sharded via its
// ShardProfile.
func benchProgram(cost int64) Program {
	return &rowEcho{echoProgram{cost: cost}}
}
