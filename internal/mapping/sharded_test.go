package mapping

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"ceresz/internal/wse"
)

// shardWorkerCounts is the worker matrix of the worker-count invariance
// tests: one worker, which simulates the rows in sequence, and two pools.
var shardWorkerCounts = []int{1, 2, 4}

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

// meshRun is what a run's mesh reports, beyond its emissions.
type meshRun struct {
	processed   int64
	shards      int
	shardEvents []int64
	stats       []wse.Stats
}

func meshRunOf(m *wse.Mesh) meshRun {
	cfg := m.Config()
	r := meshRun{processed: m.Processed(), shards: m.Shards(), shardEvents: m.ShardEvents()}
	for row := 0; row < cfg.Rows; row++ {
		r.stats = append(r.stats, m.RowProfile(row)...)
	}
	return r
}

// diff names the first part of two mesh reports that differs, or
// returns "".
func (r meshRun) diff(o meshRun) string {
	switch {
	case r.processed != o.processed || r.shards != o.shards:
		return fmt.Sprintf("processed/shards %d/%d vs %d/%d", r.processed, r.shards, o.processed, o.shards)
	case !reflect.DeepEqual(r.shardEvents, o.shardEvents):
		return "shard events"
	case !reflect.DeepEqual(r.stats, o.stats):
		return "per-PE stats"
	}
	return ""
}

// TestShardedRunsMatchSequential is the worker-count invariance check:
// for every plan shape each worker count must reproduce one worker's
// cycle count, event counts, per-PE stats, emission order and output
// bytes exactly, with one shard per row.
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
			var refRun, refDecRun meshRun
			for i, workers := range shardWorkerCounts {
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
				run, decRun := meshRunOf(res.Mesh), meshRunOf(dres.Mesh)
				if run.shards != tc.cfg.Mesh.Rows || len(run.shardEvents) != run.shards {
					t.Fatalf("workers=%d: %d shards, %d event counts, want one per row of %d",
						workers, run.shards, len(run.shardEvents), tc.cfg.Mesh.Rows)
				}

				if i == 0 {
					refBytes, refCycles, refEms, refRun = res.Bytes, res.Cycles, ems, run
					refDecCycles, refDecEms, refDecRun = dres.Cycles, dems, decRun
					continue
				}
				if res.Cycles != refCycles {
					t.Errorf("workers=%d: compress cycles %d, one worker %d", workers, res.Cycles, refCycles)
				}
				if d := run.diff(refRun); d != "" {
					t.Errorf("workers=%d: compress %s differ from one worker's", workers, d)
				}
				if !bytes.Equal(res.Bytes, refBytes) {
					t.Errorf("workers=%d: compressed stream differs from one worker's", workers)
				}
				if len(ems) != len(refEms) {
					t.Fatalf("workers=%d: %d emissions, one worker %d", workers, len(ems), len(refEms))
				}
				for j := range ems {
					if ems[j] != refEms[j] {
						t.Fatalf("workers=%d: emission %d = %+v, one worker %+v", workers, j, ems[j], refEms[j])
					}
				}
				if dres.Cycles != refDecCycles {
					t.Errorf("workers=%d: decompress cycles %d, one worker %d", workers, dres.Cycles, refDecCycles)
				}
				if d := decRun.diff(refDecRun); d != "" {
					t.Errorf("workers=%d: decompress %s differ from one worker's", workers, d)
				}
				for j := range dems {
					if dems[j] != refDecEms[j] {
						t.Fatalf("workers=%d: decompress emission %d = %+v, one worker %+v", workers, j, dems[j], refDecEms[j])
					}
				}
			}
		})
	}
}

// TestAttributionAndSpansDeterministic extends the worker-count
// invariance check to the observability outputs: per-PE cycle
// attribution, per-block lifecycle spans and their Chrome trace export
// must be bit-identical across worker counts, and every PE's buckets must
// partition [0, Elapsed] exactly on every run.
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
			for i, workers := range shardWorkerCounts {
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

				if i == 0 {
					refAtt, refSpans, refTrace = att, res.Spans, trace.Bytes()
					continue
				}
				if !bytes.Equal(trace.Bytes(), refTrace) {
					t.Errorf("workers=%d: Chrome trace differs from one worker's", workers)
				}
				if !reflect.DeepEqual(att, refAtt) {
					t.Errorf("workers=%d: attribution differs from one worker's\n got %+v\nwant %+v", workers, att, refAtt)
				}
				if len(res.Spans) != len(refSpans) {
					t.Fatalf("workers=%d: %d spans, one worker %d", workers, len(res.Spans), len(refSpans))
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
// 750×994 geometry (two blocks per row) and cross-checks a pool's cycle
// count against one worker's on a reduced-row slice of the same shape.
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

	// Reduced-row cross-check: a pool's cycles must equal one worker's.
	one := run(16, 1)
	pool := run(16, 4)
	if pool.Mesh.Shards() != 16 {
		t.Fatalf("reduced-rows run used %d shards, want 16", pool.Mesh.Shards())
	}
	if one.Cycles != pool.Cycles {
		t.Fatalf("reduced-rows cross-check: 4 workers %d cycles, one worker %d", pool.Cycles, one.Cycles)
	}
	if !bytes.Equal(one.Bytes, pool.Bytes) {
		t.Fatal("reduced-rows cross-check: streams differ")
	}

	// Full wafer on a pool of 4 (rather than auto, so the pool runs even
	// on single-CPU hosts).
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
