package mapping

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"ceresz/internal/datasets"
	"ceresz/internal/quant"
	"ceresz/internal/stages"
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
