package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ceresz/internal/telemetry"
)

// rawF32Body renders test data the way /v1/compress wants it.
func rawF32Body(data []float32) []byte {
	raw := make([]byte, 4*len(data))
	for i, v := range data {
		binary.LittleEndian.PutUint32(raw[4*i:], math.Float32bits(v))
	}
	return raw
}

// TestSLOBurnAndFlightDumpE2E is the issue's acceptance test: an SLO no
// real request can meet (p99 < 1µs) is configured against a live server,
// load is driven, and one rollup tick must surface the burn at /debug/slo,
// degrade (but not fail) the readiness probe, and trigger a flight-recorder
// incident dump whose Chrome trace loads and whose windows are populated.
func TestSLOBurnAndFlightDumpE2E(t *testing.T) {
	objectives, err := ParseObjectives("compress:p99<1us:99.9")
	if err != nil {
		t.Fatal(err)
	}
	flightDir := t.TempDir()
	s, ts := newTestServer(t, Config{
		Workers:           2,
		ChunkElems:        1024,
		RollupInterval:    time.Hour, // ticker never fires; the test ticks
		Objectives:        objectives,
		FlightDir:         flightDir,
		FlightMinInterval: time.Millisecond,
		TraceEvery:        1,
	})
	defer s.Close()

	body := rawF32Body(testData(4096, 11))
	for i := 0; i < 20; i++ {
		resp, err := http.Post(ts.URL+"/v1/compress?eps=1e-3", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("compress %d: status %d", i, resp.StatusCode)
		}
	}

	// Close the window: every request above violated the 1µs threshold, so
	// the burn rate jumps to ~1000 and the tick's trigger check must dump.
	s.Rollup().Tick()

	// /debug/slo reports the burn.
	resp, err := http.Get(ts.URL + "/debug/slo")
	if err != nil {
		t.Fatal(err)
	}
	var sloView struct {
		Degraded   bool `json:"degraded"`
		Objectives []struct {
			BurnRate5m      float64 `json:"burn_rate_5m"`
			BudgetRemaining float64 `json:"budget_remaining"`
			Total           int64   `json:"total"`
		} `json:"objectives"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sloView); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !sloView.Degraded || len(sloView.Objectives) != 1 {
		t.Fatalf("slo view %+v", sloView)
	}
	if br := sloView.Objectives[0].BurnRate5m; br <= 1 {
		t.Fatalf("burn rate %g, want > 1", br)
	}
	if sloView.Objectives[0].Total < 20 {
		t.Fatalf("objective saw %d requests, want >= 20", sloView.Objectives[0].Total)
	}

	// Readiness stays 200 but reports the degradation detail.
	resp, err = http.Get(ts.URL + "/healthz/ready")
	if err != nil {
		t.Fatal(err)
	}
	var ready struct {
		Status string `json:"status"`
		SLO    []struct {
			Spec       string  `json:"spec"`
			BurnRate5m float64 `json:"burn_rate_5m"`
		} `json:"slo"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ready); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ready status %d (degraded must stay routable)", resp.StatusCode)
	}
	if ready.Status != "degraded" || len(ready.SLO) != 1 ||
		ready.SLO[0].Spec != "compress:p99<1us:99.9" || ready.SLO[0].BurnRate5m <= 1 {
		t.Fatalf("ready detail %+v", ready)
	}

	// /debug/timeseries serves the closed window with the endpoint series.
	resp, err = http.Get(ts.URL + "/debug/timeseries")
	if err != nil {
		t.Fatal(err)
	}
	var tsView struct {
		Windows []telemetry.Window `json:"windows"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&tsView); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(tsView.Windows) == 0 {
		t.Fatal("no rollup windows served")
	}
	w := tsView.Windows[len(tsView.Windows)-1]
	if w.Counters["server.compress.requests"] < 20 {
		t.Fatalf("window requests delta %d", w.Counters["server.compress.requests"])
	}
	if w.Hists["server.compress.latency_us"].Count < 20 {
		t.Fatalf("window latency count %+v", w.Hists["server.compress.latency_us"])
	}

	// The burn trigger dumped an incident; it must be self-contained:
	// windows, SLO state, runtime health and a loadable Chrome trace.
	matches, err := filepath.Glob(filepath.Join(flightDir, "incident-*.json"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no incident dump in %s (err %v)", flightDir, err)
	}
	raw, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	var inc telemetry.Incident
	if err := json.Unmarshal(raw, &inc); err != nil {
		t.Fatalf("incident not valid JSON: %v", err)
	}
	if !strings.Contains(inc.Reason, "burn-rate") {
		t.Fatalf("incident reason %q", inc.Reason)
	}
	if len(inc.Windows) == 0 {
		t.Fatal("incident has no rollup windows")
	}
	if inc.Runtime.Goroutines <= 0 || inc.Runtime.HeapBytes <= 0 {
		t.Fatalf("incident runtime %+v", inc.Runtime)
	}
	if len(inc.SLO) != 1 || inc.SLO[0].BurnRate5m <= 1 {
		t.Fatalf("incident slo %+v", inc.SLO)
	}
	var events []map[string]any
	if err := json.Unmarshal(inc.TraceEvents, &events); err != nil {
		t.Fatalf("incident traceEvents not a Chrome trace array: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("incident trace is empty with TraceEvery=1")
	}

	// Manual dump endpoint: POST forces one past the rate limit, GET shows
	// recorder state.
	resp, err = http.Post(ts.URL+"/debug/flight/dump?reason=drill", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var dumped struct {
		File string `json:"file"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&dumped); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if _, err := os.Stat(dumped.File); err != nil {
		t.Fatalf("forced dump: %v", err)
	}

	// /debug/metrics carries the slo/rollup series end to end.
	resp, err = http.Get(ts.URL + "/debug/metrics")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	metrics, _ := io.ReadAll(resp.Body)
	for _, want := range []string{"ceresz_slo_burn_rate_5m", "ceresz_server_compress_requests_rate", "ceresz_build_info"} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("/debug/metrics missing %s", want)
		}
	}
}

// TestFleetHealthEndpointsDisabled pins the nil-safe behavior: a server
// with no rollup/SLO/flight configuration answers 404 on the fleet-health
// views and keeps the plain readiness body.
func TestFleetHealthEndpointsDisabled(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for _, path := range []string{"/debug/timeseries", "/debug/slo", "/debug/flight"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s status %d, want 404", path, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/healthz/ready")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `"ok"`) {
		t.Fatalf("ready body %s", body)
	}
}

// TestParseObjectives pins the endpoint binding and the unknown-subject
// rejection, and that the bound names are instruments a live server
// registers.
func TestParseObjectives(t *testing.T) {
	reg := telemetry.NewRegistry()
	New(Config{Workers: 1, Registry: reg}).Close()
	objs, err := ParseObjectives("compress:p99<25ms:99.9,decompress:err:99.99")
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 2 {
		t.Fatalf("%d objectives", len(objs))
	}
	if objs[0].HistName != "server.compress.latency_us" {
		t.Fatalf("latency binding %+v", objs[0])
	}
	if objs[1].TotalCounter != "server.decompress.requests" || objs[1].BadCounter != "server.decompress.status_5xx" {
		t.Fatalf("err binding %+v", objs[1])
	}
	snap := reg.Snapshot()
	if _, ok := snap.Hists[objs[0].HistName]; !ok {
		t.Errorf("%s is not a registered server histogram", objs[0].HistName)
	}
	for _, name := range []string{objs[1].TotalCounter, objs[1].BadCounter} {
		if _, ok := snap.Counters[name]; !ok {
			t.Errorf("%s is not a registered server counter", name)
		}
	}
	if _, err := ParseObjectives("uploads:err:99"); err == nil {
		t.Fatal("unknown endpoint accepted")
	}
	if objs, err := ParseObjectives(""); err != nil || len(objs) != 0 {
		t.Fatalf("empty: %v %v", objs, err)
	}
}

// TestCompressHotPathZeroAllocWithRollups asserts the acceptance
// criterion that the fleet-health layer costs the per-chunk path nothing:
// with an enabled registry, an attached rollup and an SLO engine, the warm
// compress loop still allocates zero times per run. Windows close via
// manual Tick around the measurement — the measurement itself must not
// tick, because AllocsPerRun counts process-global allocations and a tick
// legitimately builds window maps off the hot path.
func TestCompressHotPathZeroAllocWithRollups(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; zero-alloc contract checked without -race")
	}
	reg := telemetry.NewRegistry()
	m := newEpMetrics(reg, epCompress)
	rp := telemetry.NewRollup(reg, telemetry.RollupConfig{Interval: time.Hour})
	objectives, err := ParseObjectives("compress:p99<1us:99.9")
	if err != nil {
		t.Fatal(err)
	}
	telemetry.NewSLOEngine(rp, objectives, 0)

	const elems = 4100
	raw := rawF32Body(testData(elems, 42))
	p := cparams{
		Abs:        true,
		Eps:        1e-3,
		ChunkElems: 1024,
	}
	c := newCodec(0)
	r := bytes.NewReader(raw)
	runOnce := func() {
		r.Reset(raw)
		for {
			frame, n, err := c.nextFrameF32(r, p)
			if err == io.EOF {
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			// The instruments the serving loop bumps per chunk, against the
			// live registry the rollup is attached to.
			m.chunks.Add(1)
			m.bytesIn.Add(int64(n))
			m.bytesOut.Add(int64(len(frame)))
			m.latencyUS.Observe(int64(len(frame) % 1000))
			if _, err := io.Discard.Write(frame); err != nil {
				t.Fatal(err)
			}
		}
	}
	runOnce() // warm codec buffers and encoder pool
	rp.Tick() // close a window over the warmup traffic
	allocs := testing.AllocsPerRun(20, runOnce)
	if allocs != 0 {
		t.Fatalf("hot path with rollups+SLO enabled allocates %.1f times per run, want 0", allocs)
	}
	w := rp.Tick() // the measured traffic lands in a window afterwards
	if w.Counters["server.compress.chunks"] == 0 {
		t.Fatal("rollup window missed the measured traffic")
	}
}
