package mapping

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"ceresz/internal/wse"
)

// shardWorkerCounts is the worker matrix for the differential tests:
// the sequential reference, the smallest sharded pool, and one worker
// per CPU (forced to at least 2 so the sharded path always runs).
func shardWorkerCounts() []int {
	n := runtime.NumCPU()
	if n < 2 {
		n = 2
	}
	return []int{1, 2, n}
}

// emissionKey flattens a mesh emission for comparison across runs.
type emissionKey struct {
	from wse.Coord
	at   int64
	id   int
}

func emissionLog(t *testing.T, m *wse.Mesh) []emissionKey {
	t.Helper()
	var out []emissionKey
	for _, e := range m.Emissions() {
		fb, ok := e.Payload.(*flowBlock)
		if !ok {
			t.Fatalf("unexpected emission payload %T", e.Payload)
		}
		out = append(out, emissionKey{from: e.From, at: e.At, id: fb.id})
	}
	return out
}

// TestShardedRunsMatchSequential is the differential determinism check:
// for every plan shape the sharded engine must reproduce the sequential
// engine's cycle count, emission order and output bytes exactly, for any
// worker count.
func TestShardedRunsMatchSequential(t *testing.T) {
	data := smoothField(32*96, 11)
	configs := []struct {
		name string
		cfg  PlanConfig
	}{
		{"multi-row", PlanConfig{Mesh: wse.Config{Rows: 4, Cols: 6}, PipelineLen: 2}},
		{"processor-relay", PlanConfig{Mesh: wse.Config{Rows: 3, Cols: 6}, PipelineLen: 2, ProcessorRelay: true}},
	}
	for _, tc := range configs {
		t.Run(tc.name, func(t *testing.T) {
			var refBytes []byte
			var refCycles, refDecCycles int64
			var refEms, refDecEms []emissionKey
			for i, workers := range shardWorkerCounts() {
				cfg := tc.cfg
				cfg.Mesh.Workers = workers

				chain := compressChain(t, 1e-3, 12)
				plan, err := NewPlan(chain, cfg)
				if err != nil {
					t.Fatal(err)
				}
				res, err := plan.Compress(data)
				if err != nil {
					t.Fatal(err)
				}
				ems := emissionLog(t, res.Mesh)

				dchain := decompressChain(t, 1e-3, 12)
				dplan, err := NewPlan(dchain, cfg)
				if err != nil {
					t.Fatal(err)
				}
				dres, err := dplan.Decompress(res.Bytes)
				if err != nil {
					t.Fatal(err)
				}
				dems := emissionLog(t, dres.Mesh)

				if i == 0 {
					refBytes, refCycles, refEms = res.Bytes, res.Cycles, ems
					refDecCycles, refDecEms = dres.Cycles, dems
					continue
				}
				if res.Cycles != refCycles {
					t.Errorf("workers=%d: compress cycles %d, sequential %d", workers, res.Cycles, refCycles)
				}
				if !bytes.Equal(res.Bytes, refBytes) {
					t.Errorf("workers=%d: compressed stream differs from sequential", workers)
				}
				if len(ems) != len(refEms) {
					t.Fatalf("workers=%d: %d emissions, sequential %d", workers, len(ems), len(refEms))
				}
				for j := range ems {
					if ems[j] != refEms[j] {
						t.Fatalf("workers=%d: emission %d = %+v, sequential %+v", workers, j, ems[j], refEms[j])
					}
				}
				if dres.Cycles != refDecCycles {
					t.Errorf("workers=%d: decompress cycles %d, sequential %d", workers, dres.Cycles, refDecCycles)
				}
				for j := range dems {
					if dems[j] != refDecEms[j] {
						t.Fatalf("workers=%d: decompress emission %d = %+v, sequential %+v", workers, j, dems[j], refDecEms[j])
					}
				}
				if workers > 1 && res.Mesh.Shards() < 2 {
					t.Errorf("workers=%d: run used %d shards, expected row sharding", workers, res.Mesh.Shards())
				}
			}
		})
	}
}

// TestAttributionAndSpansDeterministic extends the differential check to
// the observability outputs: per-PE cycle attribution, per-block
// lifecycle spans and their Chrome trace export must be bit-identical
// across worker counts, every PE's buckets must partition [0, Elapsed]
// exactly on every run, and recording spans must not keep a multi-row
// run off the sharded engine.
func TestAttributionAndSpansDeterministic(t *testing.T) {
	data := smoothField(32*96, 13)
	configs := []struct {
		name string
		cfg  PlanConfig
	}{
		{"multi-row", PlanConfig{Mesh: wse.Config{Rows: 4, Cols: 6}, PipelineLen: 2, RecordSpans: true}},
	}
	for _, tc := range configs {
		t.Run(tc.name, func(t *testing.T) {
			var refAtt wse.Attribution
			var refSpans []wse.BlockSpan
			var refTrace []byte
			for i, workers := range shardWorkerCounts() {
				cfg := tc.cfg
				cfg.Mesh.Workers = workers

				chain := compressChain(t, 1e-3, 12)
				plan, err := NewPlan(chain, cfg)
				if err != nil {
					t.Fatal(err)
				}
				res, err := plan.Compress(data)
				if err != nil {
					t.Fatal(err)
				}
				att := res.Attribution()

				// Invariant on every run: buckets tile [0, Elapsed].
				for _, pa := range att.PEs {
					sum := pa.Compute + pa.RelayForward + pa.QueueWait + pa.FabricStall + pa.Idle
					if sum != att.Elapsed {
						t.Fatalf("workers=%d PE %v: buckets sum to %d, elapsed %d", workers, pa.PE, sum, att.Elapsed)
					}
					if pa.Idle < 0 {
						t.Fatalf("workers=%d PE %v: negative idle %d", workers, pa.PE, pa.Idle)
					}
				}
				if len(res.Spans) == 0 {
					t.Fatalf("workers=%d: no spans recorded", workers)
				}
				var trace bytes.Buffer
				if err := res.SpanLog.WriteChromeTrace(&trace, res.Mesh.Config()); err != nil {
					t.Fatal(err)
				}
				if tc.name == "multi-row" && workers > 1 && res.Mesh.Shards() < 2 {
					t.Errorf("workers=%d: traced run used %d shards, expected row sharding", workers, res.Mesh.Shards())
				}

				if i == 0 {
					refAtt, refSpans, refTrace = att, res.Spans, trace.Bytes()
					continue
				}
				if !bytes.Equal(trace.Bytes(), refTrace) {
					t.Errorf("workers=%d: Chrome trace differs from sequential", workers)
				}
				if !reflect.DeepEqual(att, refAtt) {
					t.Errorf("workers=%d: attribution differs from sequential\n got %+v\nwant %+v", workers, att, refAtt)
				}
				if len(res.Spans) != len(refSpans) {
					t.Fatalf("workers=%d: %d spans, sequential %d", workers, len(res.Spans), len(refSpans))
				}
				for j := range res.Spans {
					if !reflect.DeepEqual(res.Spans[j], refSpans[j]) {
						t.Fatalf("workers=%d: span %d differs\n got %+v\nwant %+v", workers, j, res.Spans[j], refSpans[j])
					}
				}
			}
		})
	}
}

// TestFullWaferCompletes simulates a compression plan on the full-wafer
// 750×994 geometry (two blocks per row) and cross-checks the sharded
// engine's cycle count against the sequential reference on a reduced-row
// slice of the same shape.
func TestFullWaferCompletes(t *testing.T) {
	if testing.Short() {
		t.Skip("full-wafer mesh is slow in -short mode")
	}
	run := func(rows int, workers int) *Result {
		t.Helper()
		mesh := wse.FullWSE
		mesh.Rows = rows
		mesh.Workers = workers
		data := smoothField(32*2*rows, 3)
		chain := compressChain(t, 1e-3, 12)
		plan, err := NewPlan(chain, PlanConfig{Mesh: mesh, PipelineLen: 1})
		if err != nil {
			t.Fatal(err)
		}
		res, err := plan.Compress(data)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	// Reduced-row cross-check: sharded cycles must equal sequential.
	seq := run(16, 1)
	shd := run(16, 4)
	if shd.Mesh.Shards() != 16 {
		t.Fatalf("reduced-rows run used %d shards, want 16", shd.Mesh.Shards())
	}
	if seq.Cycles != shd.Cycles {
		t.Fatalf("reduced-rows cross-check: sharded %d cycles, sequential %d", shd.Cycles, seq.Cycles)
	}
	if !bytes.Equal(seq.Bytes, shd.Bytes) {
		t.Fatal("reduced-rows cross-check: streams differ")
	}

	// Full wafer on the sharded engine (Workers: 4 rather than auto, so
	// the row-sharded path runs even on single-CPU hosts).
	full := run(wse.FullWSE.Rows, 4)
	if full.Cycles <= 0 {
		t.Fatalf("full-wafer run reported %d cycles", full.Cycles)
	}
	if full.Mesh.Shards() != wse.FullWSE.Rows {
		t.Fatalf("full wafer used %d shards, want %d", full.Mesh.Shards(), wse.FullWSE.Rows)
	}
	t.Logf("full wafer: %d cycles, %d events, %d shards × %d workers",
		full.Cycles, full.Mesh.Processed(), full.Mesh.Shards(), full.Mesh.Workers())
}
