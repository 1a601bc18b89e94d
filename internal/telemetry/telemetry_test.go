package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Add(3)
	c.Add(4)
	if got := c.Value(); got != 7 {
		t.Fatalf("counter %d, want 7", got)
	}
	if r.Counter("c") != c {
		t.Fatal("Counter not idempotent")
	}
	g := r.Gauge("g")
	g.Add(2)
	g.Add(3)
	g.Add(-4)
	if g.Value() != 1 || g.Max() != 5 {
		t.Fatalf("gauge %d max %d, want 1 max 5", g.Value(), g.Max())
	}
	g.Set(9)
	if g.Value() != 9 || g.Max() != 9 {
		t.Fatalf("gauge after Set: %d max %d", g.Value(), g.Max())
	}
}

func TestDisabledRegistryRecordsNothing(t *testing.T) {
	r := NewRegistry()
	r.SetEnabled(false)
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h")
	c.Add(1)
	g.Add(1)
	sp := h.Start()
	time.Sleep(time.Millisecond)
	sp.End()
	h.Observe(42)
	s := r.Snapshot()
	if s.Counters["c"] != 0 || s.Gauges["g"] != 0 || s.Hists["h"].Count != 0 {
		t.Fatalf("disabled registry recorded: %+v", s)
	}
	// Re-enabling makes previously handed-out instruments live again.
	r.SetEnabled(true)
	c.Add(1)
	if c.Value() != 1 {
		t.Fatal("instrument dead after re-enable")
	}
}

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Add(1)
	g.Set(1)
	g.Add(1)
	h.Start().End()
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || g.Max() != 0 {
		t.Fatal("nil instruments not inert")
	}
}

// TestDurationHistogram pins the duration form of a histogram: a
// T(name).Start().End() span lands in Snapshot().Hists as one observation
// in nanoseconds and renders as an OpenMetrics summary.
func TestDurationHistogram(t *testing.T) {
	Enable()
	defer Disable()
	sp := T("test.duration").Start()
	time.Sleep(2 * time.Millisecond)
	sp.End()
	s := Default.Snapshot()
	hs := s.Hists["test.duration"]
	if hs.Count != 1 || hs.Sum < int64(2*time.Millisecond) || hs.Sum > int64(time.Minute) {
		t.Fatalf("duration histogram %+v, want one observation of >= 2ms in ns", hs)
	}
	if hs.P50 < int64(time.Millisecond) {
		t.Fatalf("p50 = %dns, want inside the >= 2ms bucket", hs.P50)
	}
	var sb strings.Builder
	if _, err := s.WriteOpenMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE ceresz_test_duration summary",
		"ceresz_test_duration_count 1",
		fmt.Sprintf("ceresz_test_duration_sum %d", hs.Sum),
		`ceresz_test_duration{quantile="0.99"}`,
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("exposition missing %q:\n%s", want, sb.String())
		}
	}
}

func TestSpanMeasuresElapsed(t *testing.T) {
	r := NewRegistry()
	sp := r.Histogram("t").Start()
	time.Sleep(2 * time.Millisecond)
	sp.End()
	if s := r.Snapshot().Hists["t"]; s.Count != 1 || s.Sum < int64(time.Millisecond) {
		t.Fatalf("span recorded %+v", s)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h")
	h.Observe(0) // bucket 0 (upper bound 0)
	h.Observe(1) // bit length 1 → upper bound 1
	h.Observe(5) // bit length 3 → upper bound 7
	h.Observe(5)
	h.Observe(-3) // clamped to 0
	s := r.Snapshot().Hists["h"]
	if s.Count != 5 || s.Sum != 11 {
		t.Fatalf("hist %+v", s)
	}
	if s.Buckets[0] != 2 || s.Buckets[1] != 1 || s.Buckets[7] != 2 {
		t.Fatalf("hist buckets %+v", s.Buckets)
	}
}

func TestSnapshotJSONAndString(t *testing.T) {
	r := NewRegistry()
	r.Counter("a.calls").Add(2)
	r.Gauge("a.workers").Add(1)
	r.Histogram("a.dur").Observe(time.Millisecond.Nanoseconds())
	r.Histogram("a.bytes").Observe(100)
	s := r.Snapshot()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["a.calls"] != 2 {
		t.Fatalf("round-trip lost counter: %s", b)
	}
	out := s.String()
	for _, want := range []string{"a.calls", "a.workers", "a.dur", "a.bytes"} {
		if !strings.Contains(out, want) {
			t.Fatalf("String() missing %q:\n%s", want, out)
		}
	}
}

func TestConcurrentWriters(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("c")
			g := r.Gauge("g")
			h := r.Histogram("h")
			for i := 0; i < 1000; i++ {
				c.Add(1)
				g.Add(1)
				g.Add(-1)
				h.Start().End()
			}
		}()
	}
	wg.Wait()
	s := r.Snapshot()
	if s.Counters["c"] != 8000 || s.Hists["h"].Count != 8000 {
		t.Fatalf("lost events: %+v", s)
	}
	if s.Gauges["g"] != 0 {
		t.Fatalf("gauge drifted to %d", s.Gauges["g"])
	}
}

func TestDefaultEnableDisable(t *testing.T) {
	if Enabled() {
		t.Fatal("Default registry should start disabled")
	}
	Enable()
	defer Disable()
	if !Enabled() {
		t.Fatal("Enable did not stick")
	}
	C("test.default").Add(1)
	if Default.Snapshot().Counters["test.default"] != 1 {
		t.Fatal("Default counter lost an event")
	}
}

// BenchmarkCounterDisabled measures the per-event cost of an instrument on
// a disabled registry — the "compiles down to no-op calls" requirement:
// one atomic load and a branch.
func BenchmarkCounterDisabled(b *testing.B) {
	r := NewRegistry()
	r.SetEnabled(false)
	c := r.Counter("c")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

// BenchmarkCounterEnabled measures the enabled per-event cost (one atomic
// add).
func BenchmarkCounterEnabled(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("c")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

// BenchmarkSpanDisabled measures a Start/End pair on a disabled registry.
func BenchmarkSpanDisabled(b *testing.B) {
	r := NewRegistry()
	r.SetEnabled(false)
	h := r.Histogram("t")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Start().End()
	}
}

// BenchmarkSpanEnabled measures a live Start/End pair (two clock reads plus
// three atomics).
func BenchmarkSpanEnabled(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("t")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Start().End()
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q")
	// 100 observations of 100: every quantile lands inside bucket 7
	// ([64,127]), so the estimates are exact to bucket resolution.
	for i := 0; i < 100; i++ {
		h.Observe(100)
	}
	hs := r.Snapshot().Hists["q"]
	for _, q := range []int64{hs.P50, hs.P95, hs.P99} {
		if q < 64 || q > 127 {
			t.Fatalf("quantile %d outside the single occupied bucket [64,127]: %+v", q, hs)
		}
	}
	if hs.P50 > hs.P95 || hs.P95 > hs.P99 {
		t.Fatalf("quantiles not monotone: %+v", hs)
	}

	// Skewed distribution: 90 small values, 10 huge. p50 stays small;
	// p95 and p99 cross into the huge values' bucket.
	h2 := r.Histogram("skew")
	for i := 0; i < 90; i++ {
		h2.Observe(1)
	}
	for i := 0; i < 10; i++ {
		h2.Observe(1 << 20)
	}
	hs2 := r.Snapshot().Hists["skew"]
	if hs2.P50 != 1 {
		t.Fatalf("p50 = %d, want 1: %+v", hs2.P50, hs2)
	}
	if hs2.P95 < 1<<19 || hs2.P99 < 1<<19 {
		t.Fatalf("p95/p99 = %d/%d, want within the 2^20 bucket: %+v", hs2.P95, hs2.P99, hs2)
	}
}

func TestHistogramQuantileEdgeCases(t *testing.T) {
	r := NewRegistry()
	hs := r.Snapshot().Hists // no histograms at all
	if len(hs) != 0 {
		t.Fatalf("unexpected hists %+v", hs)
	}
	h := r.Histogram("empty")
	_ = h
	if got := r.Snapshot().Hists["empty"]; got.P50 != 0 || got.P99 != 0 {
		t.Fatalf("empty histogram quantiles %+v", got)
	}
	h.Observe(0)
	if got := r.Snapshot().Hists["empty"]; got.P50 != 0 || got.P99 != 0 {
		t.Fatalf("all-zero histogram quantiles %+v", got)
	}
}

func TestWriteToShowsQuantiles(t *testing.T) {
	r := NewRegistry()
	r.Histogram("lat").Observe(1000)
	out := r.Snapshot().String()
	if !strings.Contains(out, "p50=") || !strings.Contains(out, "p99=") {
		t.Fatalf("WriteTo output missing quantiles:\n%s", out)
	}
}

func TestMetricsHandlerServesOpenMetrics(t *testing.T) {
	r := NewRegistry()
	r.Counter("sim.events").Add(42)
	r.Gauge("sim.workers").Set(4)
	r.Histogram("sim.run_wall").Observe((1500 * time.Millisecond).Nanoseconds())
	r.Histogram("stream.chunk_compressed_bytes").Observe(4096)
	srv := httptest.NewServer(r.MetricsHandler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	var sb strings.Builder
	if _, err := io.Copy(&sb, resp.Body); err != nil {
		t.Fatal(err)
	}
	body := sb.String()
	for _, want := range []string{
		"# TYPE ceresz_sim_events counter",
		"ceresz_sim_events 42",
		"# TYPE ceresz_sim_workers gauge",
		"ceresz_sim_workers 4",
		"ceresz_sim_workers_max 4",
		"# TYPE ceresz_sim_run_wall summary",
		"ceresz_sim_run_wall_count 1",
		"ceresz_sim_run_wall_sum 1500000000",
		"# TYPE ceresz_stream_chunk_compressed_bytes summary",
		`ceresz_stream_chunk_compressed_bytes{quantile="0.99"}`,
		"ceresz_stream_chunk_compressed_bytes_count 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %q\n%s", want, body)
		}
	}
}
