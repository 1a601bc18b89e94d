package mapping

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"ceresz/internal/datasets"
	"ceresz/internal/quant"
	"ceresz/internal/stages"
	"ceresz/internal/telemetry"
	"ceresz/internal/wse"
)

// nyxField returns the first n elements (all of them for n ≤ 0) of the
// Small-scale NYX field 3 (velocity_x) at seed 7 — the field the wse-sim
// benchmark workload simulates.
func nyxField(tb testing.TB, n int) []float32 {
	tb.Helper()
	ds, err := datasets.ByName("NYX", datasets.Small)
	if err != nil {
		tb.Fatal(err)
	}
	data := ds.Fields[3].Data(7)
	if n > 0 && n < len(data) {
		data = data[:n]
	}
	return data
}

// roundTripPlans builds the compress and decompress plans the root
// package's SimulateCompress/SimulateDecompress would build for data at a
// value-range-relative bound rel: ε resolved from the data's range, the
// compress chain's planning width sampled from the data, the decompress
// chain's fixed at 8.
func roundTripPlans(tb testing.TB, data []float32, rel float64, cfg PlanConfig) (cp, dp *Plan) {
	tb.Helper()
	eps, err := quant.REL(rel).Resolve(quant.Range(data))
	if err != nil {
		tb.Fatal(err)
	}
	w, err := stages.EstimateWidth(data, eps, 32, 20)
	if err != nil {
		tb.Fatal(err)
	}
	cchain, err := stages.NewCompressChain(stages.Config{Eps: eps, EstWidth: int(w)})
	if err != nil {
		tb.Fatal(err)
	}
	dchain, err := stages.NewDecompressChain(stages.Config{Eps: eps, EstWidth: 8})
	if err != nil {
		tb.Fatal(err)
	}
	if cp, err = NewPlan(cchain, cfg); err != nil {
		tb.Fatal(err)
	}
	if dp, err = NewPlan(dchain, cfg); err != nil {
		tb.Fatal(err)
	}
	return cp, dp
}

// scheduleCases are the plan shapes the known-answer digests cover: the
// three row-sharded meshes of the wse-sim workload, processor relay on
// interior PEs, and the sequential reference engine.
var scheduleCases = []struct {
	name string
	cfg  PlanConfig
}{
	{"64x8", PlanConfig{Mesh: wse.Config{Rows: 64, Cols: 8, Workers: 2}, PipelineLen: 1}},
	{"64x64", PlanConfig{Mesh: wse.Config{Rows: 64, Cols: 64, Workers: 2}, PipelineLen: 1}},
	{"128x16", PlanConfig{Mesh: wse.Config{Rows: 128, Cols: 16, Workers: 2}, PipelineLen: 2}},
	{"processor-relay", PlanConfig{Mesh: wse.Config{Rows: 16, Cols: 16, Workers: 2}, PipelineLen: 2, ProcessorRelay: true}},
	{"sequential", PlanConfig{Mesh: wse.Config{Rows: 32, Cols: 16, Workers: 1}, PipelineLen: 4}},
}

// scheduleDigests are the committed SHA-256 digests of scheduleDigest for
// every case and direction.
var scheduleDigests = map[string]string{
	"64x8/compress":              "41a504d871bc062775293f348e7122815f16611719b1da5ad2f5608feb00d522",
	"64x8/decompress":            "22337136fde7c6d318d6cd06f9f4d1111539e41dd509c0dd847e430d3fc72273",
	"64x64/compress":             "1a2d8aa134bf3e0207beec569e48be25a33e57ab4c7d03e04f36fe634df366f9",
	"64x64/decompress":           "966ea0276d7462e2c1f0926b55700a35acb0638892a262c300df70627514944b",
	"128x16/compress":            "96ff908fdb39aea396c55982ff58881875853e73cc2f50f149cd99668f418d0c",
	"128x16/decompress":          "734f0686490b56c664e7b62972977779f0d22a90b78e3dd67ef8602642f2f8e2",
	"processor-relay/compress":   "2d8b3754e493c4c95536300dd9b31e44a1a31327245d987e713477c745bfa74f",
	"processor-relay/decompress": "1895b3a3562106d8c77081e7a61e346d047ecf160e1a7afd5ff451c4575dfee1",
	"sequential/compress":        "4547db1f9f8208faed2a848b56650da8bcefd0bc8eca61386e7c5b23aa11d4d2",
	"sequential/decompress":      "9d8e1bd07fbfcee20d52d753827f2927740c50cf4260fcfe6fbdb5c970706853",
}

// TestScheduleKnownAnswers pins the simulator's whole schedule across
// commits, not just across worker counts within one: every emission, span
// event, attribution bucket, event count and cycle of a 20 000-element
// NYX round trip must hash to the committed digest. A change to the
// engine that reorders, adds or drops a single event fails here even when
// the output bytes stay the same.
func TestScheduleKnownAnswers(t *testing.T) {
	data := nyxField(t, 20000)
	for _, tc := range scheduleCases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.RecordSpans = true
			cp, dp := roundTripPlans(t, data, 1e-3, cfg)
			cres, err := cp.Compress(data)
			if err != nil {
				t.Fatal(err)
			}
			dres, err := dp.Decompress(cres.Bytes)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				dir string
				res *Result
			}{{"compress", cres}, {"decompress", dres}} {
				key := tc.name + "/" + c.dir
				got := scheduleDigest(t, c.res)
				if want := scheduleDigests[key]; got != want {
					t.Errorf("%s: schedule digest %s, committed %s", key, got, want)
				}
			}
		})
	}
}

// scheduleDigest hashes a run's observable schedule field by field.
func scheduleDigest(t *testing.T, res *Result) string {
	t.Helper()
	h := sha256.New()
	m := res.Mesh
	put := func(vs ...int64) {
		for _, v := range vs {
			putInt(h, v)
		}
	}
	// The 0 stands where a retired column-feed event count was hashed; it
	// read 0 for every shape here, so the committed digests still hold.
	put(res.Cycles, m.Processed(), 0, int64(m.Shards()))
	se := m.ShardEvents()
	put(int64(len(se)))
	put(se...)

	ems := m.Emissions()
	put(int64(len(ems)))
	for _, e := range ems {
		fb, ok := e.Payload.(*flowBlock)
		if !ok {
			t.Fatalf("unexpected emission payload %T", e.Payload)
		}
		put(int64(e.From.Row), int64(e.From.Col), e.At, int64(fb.id))
	}

	att := res.Attribution()
	put(att.Elapsed, int64(att.ActivePEs), int64(att.MeshPEs), int64(len(att.PEs)))
	putAtt := func(pa wse.PEAttribution) {
		put(int64(pa.PE.Row), int64(pa.PE.Col), pa.Compute, pa.RelayForward, pa.QueueWait,
			pa.FabricStall, pa.Idle, pa.MailboxWait, pa.Handled, pa.Forwarded, pa.Routed)
	}
	for _, pa := range att.PEs {
		putAtt(pa)
	}
	putAtt(att.Totals)

	evs := res.SpanLog.Events()
	put(int64(len(evs)))
	for _, ev := range evs {
		put(ev.Span, int64(ev.Kind), int64(ev.PE.Row), int64(ev.PE.Col), ev.At, ev.End,
			ev.Sent, ev.Arrived, int64(ev.Wavelets), int64(len(ev.Label)))
		h.Write([]byte(ev.Label))
	}

	put(int64(len(res.Bytes)))
	h.Write(res.Bytes)
	put(int64(len(res.Data)))
	for _, v := range res.Data {
		put(int64(math.Float32bits(v)))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func putInt(h hash.Hash, v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	h.Write(b[:])
}

// telemetryGroupCompute are the committed plan.groupNN.compute_cycles of
// every scheduleCases run, group by group.
var telemetryGroupCompute = map[string][]int64{
	"64x8/compress":              {13015542},
	"64x8/decompress":            {9900185},
	"64x64/compress":             {13015542},
	"64x64/decompress":           {9900185},
	"128x16/compress":            {9068750, 3946792},
	"128x16/decompress":          {5424240, 4475945},
	"processor-relay/compress":   {9068750, 3946792},
	"processor-relay/decompress": {5424240, 4475945},
	"sequential/compress":        {4431875, 4636875, 3663504, 283288},
	"sequential/decompress":      {4152480, 1312080, 4435625, 0},
}

// telemetryDigests are the committed SHA-256 digests of every
// deterministic counter and gauge of those runs' telemetry.
var telemetryDigests = map[string]string{
	"64x8/compress":              "e9612c3ad8346dd131a833de0d82c5ead1fabca2d381e814ab2c08b16ae47f80",
	"64x8/decompress":            "73af15176ffb342b7b1ba471fcf417ad8c0622fb56f76e3b6e0b99abf7fe9588",
	"64x64/compress":             "0533bb523ace5dafa90d773a22bf99496359728ae636529d85af092629ed52a9",
	"64x64/decompress":           "58dda2e336945534f069c6a66d7e400b337b76e80f5d843aa6068cf70aeb8e9b",
	"128x16/compress":            "71e3584f0bf8d8ad9dcf56c7b0c3481914b896a3c6f998790c95bf267233f87e",
	"128x16/decompress":          "2bc232f6f6c0ef40a748500d5de70dda82ebf94eadcf411f8a25d863e5dcb9b8",
	"processor-relay/compress":   "9c57e6b8fdd2b885f6d1c29de267d49f9a3553307a836efebf840d80b03e39d3",
	"processor-relay/decompress": "83390257d05f6b23e7a11decfcc07ebaf9157595504b83b4a5c173ee34c3abb1",
	"sequential/compress":        "e4fa7d82c9513726e064a91b9cd6da3f0d0367a1e0bff9ef6ab83c5cc68b4004",
	"sequential/decompress":      "a44e7c7b897aa9475bb82f710d8c0dcf6fccea420f0e264fa831fe9036e4c4f3",
}

// TestRunTelemetryKnownAnswers pins a run's telemetry across commits: the
// per-group compute cycles, which must also sum to sim.cycles.compute, and
// a digest of every counter and gauge that does not depend on the host
// (all but sim.run_wall and sim.pool_peak_workers).
func TestRunTelemetryKnownAnswers(t *testing.T) {
	data := nyxField(t, 20000)
	for _, tc := range scheduleCases {
		t.Run(tc.name, func(t *testing.T) {
			cp, dp := roundTripPlans(t, data, 1e-3, tc.cfg)
			cres, err := cp.Compress(data)
			if err != nil {
				t.Fatal(err)
			}
			dres, err := dp.Decompress(cres.Bytes)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				dir string
				res *Result
			}{{"compress", cres}, {"decompress", dres}} {
				key := tc.name + "/" + c.dir
				snap := c.res.Telemetry
				var groups []int64
				var sum int64
				for pos := 0; pos < tc.cfg.PipelineLen; pos++ {
					v, ok := snap.Counters[fmt.Sprintf("plan.group%02d.compute_cycles", pos)]
					if !ok {
						t.Fatalf("%s: no plan.group%02d.compute_cycles", key, pos)
					}
					groups = append(groups, v)
					sum += v
				}
				if total := snap.Counters["sim.cycles.compute"]; sum != total {
					t.Errorf("%s: group compute cycles %v sum to %d, sim.cycles.compute is %d", key, groups, sum, total)
				}
				if want := telemetryGroupCompute[key]; !reflect.DeepEqual(groups, want) {
					t.Errorf("%s: group compute cycles %v, committed %v", key, groups, want)
				}
				if got, want := telemetryDigest(snap), telemetryDigests[key]; got != want {
					t.Errorf("%s: telemetry digest %s, committed %s\n%s", key, got, want, snap)
				}
			}
		})
	}
}

// telemetryDigest hashes a snapshot's host-independent counters and
// gauges, by name.
func telemetryDigest(s telemetry.Snapshot) string {
	h := sha256.New()
	put := func(kind string, vals map[string]int64) {
		names := make([]string, 0, len(vals))
		for name := range vals {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if strings.HasPrefix(name, "sim.pool_peak_workers") {
				continue
			}
			h.Write([]byte(kind + name))
			putInt(h, vals[name])
		}
	}
	put("counter ", s.Counters)
	put("gauge ", s.Gauges)
	return hex.EncodeToString(h.Sum(nil))
}
