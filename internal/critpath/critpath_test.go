package critpath

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"ceresz/internal/mapping"
	"ceresz/internal/stages"
	"ceresz/internal/wse"
)

func smoothField(n int, seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	data := make([]float32, n)
	v := 0.0
	for i := range data {
		v += rng.NormFloat64() * 0.02
		data[i] = float32(math.Sin(float64(i)*0.015)*2 + v)
	}
	return data
}

// runPlan compresses a smooth field on the given geometry with span
// recording on and returns plan + result.
func runPlan(t *testing.T, rows, cols, pl int) (*mapping.Plan, *mapping.Result) {
	t.Helper()
	chain, err := stages.NewCompressChain(stages.Config{BlockLen: 32, Eps: 1e-3, EstWidth: 8})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := mapping.NewPlan(chain, mapping.PlanConfig{
		Mesh:        wse.Config{Rows: rows, Cols: cols},
		PipelineLen: pl,
		RecordSpans: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := plan.Compress(smoothField(32*64, 7))
	if err != nil {
		t.Fatal(err)
	}
	return plan, res
}

// TestBottleneckAgreesWithMeshStats is the acceptance check: on the
// Fig. 10-style pipeline plan the analyzer must name the stage group
// containing MeshStats' busiest PE.
func TestBottleneckAgreesWithMeshStats(t *testing.T) {
	for _, tc := range []struct {
		name           string
		rows, cols, pl int
	}{
		{"fig10_1x12_pl12", 1, 12, 12},
		{"multirow_4x8_pl4", 4, 8, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan, res := runPlan(t, tc.rows, tc.cols, tc.pl)
			rep := Analyze(plan, res, Options{})
			if !rep.AgreesWithMeshStats {
				t.Errorf("analyzer bottleneck %s (pos %d) disagrees with MeshStats busiest PE %v (pos %d)\n%s",
					rep.BottleneckLabel, rep.BottleneckPos, rep.BusiestPE, rep.BusiestPEPos, rep.String())
			}
			if rep.BottleneckLabel != plan.GroupLabel(rep.BottleneckPos) {
				t.Errorf("label %q does not match position %d", rep.BottleneckLabel, rep.BottleneckPos)
			}
			if len(rep.PipelineBottlenecks) != plan.Pipelines {
				t.Errorf("got %d pipeline bottlenecks, want %d", len(rep.PipelineBottlenecks), plan.Pipelines)
			}
		})
	}
}

// TestBucketSumsEqualElapsed is the other acceptance check: every PE's
// timeline buckets partition [0, Elapsed] exactly.
func TestBucketSumsEqualElapsed(t *testing.T) {
	_, res := runPlan(t, 4, 8, 4)
	att := res.Attribution()
	if att.Elapsed != res.Cycles {
		t.Fatalf("attribution elapsed %d != run cycles %d", att.Elapsed, res.Cycles)
	}
	for _, pa := range att.PEs {
		sum := pa.Compute + pa.RelayForward + pa.QueueWait + pa.FabricStall + pa.Idle
		if sum != att.Elapsed {
			t.Errorf("PE %v: buckets sum to %d, want %d", pa.PE, sum, att.Elapsed)
		}
		if pa.Idle < 0 {
			t.Errorf("PE %v: negative idle %d", pa.PE, pa.Idle)
		}
	}
}

// TestRelayCostMatchesFormula2 verifies the Formula (2) cross-check is
// exact for compression: every processor relay moves one raw block of L
// wavelets, so the measured per-hop cost is exactly MsgOverhead + L.
func TestRelayCostMatchesFormula2(t *testing.T) {
	plan, res := runPlan(t, 2, 8, 4)
	rep := Analyze(plan, res, Options{})
	if rep.Relay.Forwards == 0 {
		t.Fatal("no relay forwards on a 2-pipeline row")
	}
	if math.Abs(rep.Relay.DeltaPct) > 1e-9 {
		t.Errorf("relay delta %.6f%% (measured %.2f, model %.2f); want exact match for uniform raw blocks",
			rep.Relay.DeltaPct, rep.Relay.MeasuredPerHop, rep.Relay.ModelPerHop)
	}
	if rep.Model.ModelCycles <= 0 {
		t.Error("model cross-check missing")
	}
}

// TestCriticalPathDecomposition checks the span walk: segments tile the
// critical block's latency with no gaps or overlaps.
func TestCriticalPathDecomposition(t *testing.T) {
	plan, res := runPlan(t, 2, 8, 4)
	rep := Analyze(plan, res, Options{})
	if rep.SpanCount != len(res.Spans) || rep.SpanCount == 0 {
		t.Fatalf("span count %d, result has %d", rep.SpanCount, len(res.Spans))
	}
	if len(rep.CriticalPath) == 0 {
		t.Fatal("empty critical path")
	}
	var sum int64
	cursor := rep.CriticalPath[0].From
	for _, seg := range rep.CriticalPath {
		if seg.From != cursor {
			t.Fatalf("segment %q starts at %d, previous ended at %d", seg.Label, seg.From, cursor)
		}
		if seg.Cycles != seg.To-seg.From || seg.Cycles <= 0 {
			t.Fatalf("segment %q: bad extent [%d,%d) cycles=%d", seg.Label, seg.From, seg.To, seg.Cycles)
		}
		cursor = seg.To
		sum += seg.Cycles
	}
	if sum != rep.CriticalLatency {
		t.Errorf("segments sum to %d cycles, critical latency is %d", sum, rep.CriticalLatency)
	}
	// The walk must include real stage work, not only waits.
	if !strings.Contains(rep.String(), "group") {
		t.Errorf("no stage-group leg in critical path:\n%s", rep.String())
	}
}
