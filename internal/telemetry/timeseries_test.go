package telemetry

import (
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRollupWindowDeltasAndRates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ep.requests")
	c.Add(10)
	rp := NewRollup(r, RollupConfig{Interval: time.Hour}) // manual ticks only

	c.Add(5)
	time.Sleep(10 * time.Millisecond) // give the window a real wall duration
	w := rp.Tick()
	if w.Seq != 1 {
		t.Fatalf("first window seq = %d, want 1", w.Seq)
	}
	if got := w.Counters["ep.requests"]; got != 5 {
		t.Fatalf("window delta = %d, want 5 (pre-rollup counts must not leak in)", got)
	}
	rate := w.Rates["ep.requests"]
	if rate <= 0 {
		t.Fatalf("window rate = %g, want > 0", rate)
	}
	if wantRate := float64(5) / w.Dur().Seconds(); rate < wantRate*0.99 || rate > wantRate*1.01 {
		t.Fatalf("rate = %g, want ~%g", rate, wantRate)
	}

	// An idle second window reports zero delta, not the cumulative value.
	w2 := rp.Tick()
	if got := w2.Counters["ep.requests"]; got != 0 {
		t.Fatalf("idle window delta = %d, want 0", got)
	}
	if w2.Seq != 2 {
		t.Fatalf("seq = %d, want 2", w2.Seq)
	}
}

// TestSnapshotAndWindowShareSummary pins the one bucket summariser: the
// same observations, made after the rollup's baseline, give identical
// HistStats from the cumulative Snapshot and from the first window.
func TestSnapshotAndWindowShareSummary(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("ep.latency_us")
	rp := NewRollup(r, RollupConfig{Interval: time.Hour})
	for _, v := range []int64{0, 1, 3, 90, 250, 250, 4096, 1 << 20} {
		h.Observe(v)
	}
	w := rp.Tick()
	got, want := w.Hists["ep.latency_us"], r.Snapshot().Hists["ep.latency_us"]
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("window %+v, snapshot %+v", got, want)
	}
	if want.Count != 8 || len(want.Buckets) != 7 {
		t.Fatalf("summary %+v, want 8 observations over 7 buckets", want)
	}
}

func TestRollupWindowedHistQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("ep.latency_us")
	// First window: fast observations.
	for i := 0; i < 100; i++ {
		h.Observe(100)
	}
	rp := NewRollup(r, RollupConfig{Interval: time.Hour})
	w := rp.Tick()
	if w.Hists["ep.latency_us"].Count != 0 {
		// NewRollup primed its baseline after the observations above.
		t.Fatalf("window observed pre-baseline events: %+v", w.Hists["ep.latency_us"])
	}

	// Second window: slow observations only. The cumulative histogram mixes
	// fast+slow, but the window must see only the slow ones.
	for i := 0; i < 100; i++ {
		h.Observe(1_000_000)
	}
	w = rp.Tick()
	hs := w.Hists["ep.latency_us"]
	if hs.Count != 100 {
		t.Fatalf("window count = %d, want 100", hs.Count)
	}
	if hs.P50 < 500_000 {
		t.Fatalf("windowed p50 = %d, want >= 500000 (cumulative p50 would be ~100)", hs.P50)
	}
	if len(hs.Buckets) == 0 {
		t.Fatal("window carries no bucket deltas")
	}
	// The cumulative snapshot, by contrast, straddles both populations.
	if cum := r.Snapshot().Hists["ep.latency_us"]; cum.Count != 200 {
		t.Fatalf("cumulative count = %d, want 200", cum.Count)
	}
}

func TestRollupRingWrapAndWindows(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n")
	rp := NewRollup(r, RollupConfig{Interval: time.Hour})
	const ticks = rollupWindows + 3
	for i := 0; i < ticks; i++ {
		c.Add(1)
		rp.Tick()
	}
	if got := rp.Len(); got != rollupWindows {
		t.Fatalf("Len = %d, want ring capacity %d", got, rollupWindows)
	}
	ws := rp.Windows(0)
	if len(ws) != rollupWindows {
		t.Fatalf("Windows(0) = %d windows, want %d", len(ws), rollupWindows)
	}
	// Oldest-first, newest last, consecutive seqs ending at ticks.
	for i, w := range ws {
		if want := uint64(ticks - rollupWindows + 1 + i); w.Seq != want {
			t.Fatalf("window %d seq = %d, want %d", i, w.Seq, want)
		}
	}
	last, ok := rp.Latest()
	if !ok || last.Seq != ticks {
		t.Fatalf("Latest = %+v/%v, want seq %d", last.Seq, ok, ticks)
	}
	if got := rp.Windows(2); len(got) != 2 || got[1].Seq != ticks {
		t.Fatalf("Windows(2) = %v, want the 2 newest ending at seq %d", got, ticks)
	}
}

func TestRollupStartStopAndOnTick(t *testing.T) {
	r := NewRegistry()
	rp := NewRollup(r, RollupConfig{Interval: time.Millisecond})
	var mu sync.Mutex
	ticks := 0
	rp.OnTick(func(Window) {
		mu.Lock()
		ticks++
		mu.Unlock()
	})
	rp.Start()
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		n := ticks
		mu.Unlock()
		if n >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d ticks after 2s", n)
		}
		time.Sleep(time.Millisecond)
	}
	rp.Stop()
	rp.Stop() // idempotent
}

func TestRollupStopWithoutStart(t *testing.T) {
	rp := NewRollup(NewRegistry(), RollupConfig{})
	done := make(chan struct{})
	go func() { rp.Stop(); close(done) }()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Stop deadlocked without Start")
	}
}

func TestRollupTickCarriesRuntimeGauges(t *testing.T) {
	r := NewRegistry()
	rp := NewRollup(r, RollupConfig{Interval: time.Hour})
	w := rp.Tick()
	if g := w.Gauges["runtime.goroutines"]; g <= 0 {
		t.Fatalf("runtime.goroutines gauge = %d, want > 0", g)
	}
	if g := w.Gauges["runtime.heap_bytes"]; g <= 0 {
		t.Fatalf("runtime.heap_bytes gauge = %d, want > 0", g)
	}
}

func TestTimeseriesHandler(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n")
	rp := NewRollup(r, RollupConfig{Interval: time.Hour})
	c.Add(3)
	rp.Tick()
	rp.Tick()

	srv := httptest.NewServer(rp.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "?n=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var view struct {
		IntervalSeconds float64  `json:"interval_seconds"`
		RingCapacity    int      `json:"ring_capacity"`
		Windows         []Window `json:"windows"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	if view.RingCapacity != rollupWindows || view.IntervalSeconds != 3600 {
		t.Fatalf("view meta = %+v", view)
	}
	if len(view.Windows) != 1 || view.Windows[0].Seq != 2 {
		t.Fatalf("?n=1 windows = %+v, want just seq 2", view.Windows)
	}

	if resp, err := srv.Client().Get(srv.URL + "?n=bogus"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != 400 {
			t.Fatalf("?n=bogus status = %d, want 400", resp.StatusCode)
		}
	}
}

func TestRollupOpenMetricsExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("ep.requests").Add(7)
	r.Histogram("ep.latency_us").Observe(0)
	rp := NewRollup(r, RollupConfig{Interval: time.Hour})
	r.Counter("ep.requests").Add(5)
	r.Histogram("ep.latency_us").Observe(250)
	rp.Tick()

	var sb strings.Builder
	if _, err := rp.writeOpenMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	body := sb.String()
	for _, want := range []string{
		"ceresz_rollup_interval_seconds 3600",
		"ceresz_rollup_windows 1",
		"# TYPE ceresz_ep_requests_rate gauge",
		"# TYPE ceresz_ep_latency_us_window summary",
		"ceresz_ep_latency_us_window_count 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("rollup exposition missing %q\n%s", want, body)
		}
	}
}
