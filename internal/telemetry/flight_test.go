package telemetry

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// readIncidents globs and decodes every incident file in dir.
func readIncidents(t *testing.T, dir string) []Incident {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "incident-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	out := make([]Incident, 0, len(matches))
	for _, m := range matches {
		raw, err := os.ReadFile(m)
		if err != nil {
			t.Fatal(err)
		}
		var inc Incident
		if err := json.Unmarshal(raw, &inc); err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		out = append(out, inc)
	}
	return out
}

func TestFlightBurnRateTrigger(t *testing.T) {
	r := NewRegistry()
	rp := NewRollup(r, RollupConfig{Interval: time.Hour})
	e := NewSLOEngine(rp, []Objective{{
		Spec:         mustSpec(t, "compress:err:99"),
		TotalCounter: "ep.requests",
		BadCounter:   "ep.status_5xx",
	}}, 0)
	dir := t.TempDir()
	fr := NewFlightRecorder(FlightConfig{Dir: dir, MinInterval: time.Millisecond}, rp, e, func(buf *bytes.Buffer) error {
		buf.WriteString(`[{"ph":"X","name":"req","ts":0,"dur":5}]`)
		return nil
	})

	// 40% bad traffic: burn rate 40 >> the threshold 2, while the 4 errors
	// stay under the 5xx-burst trigger's 5, which isolates the burn trigger.
	r.Counter("ep.requests").Add(10)
	r.Counter("ep.status_5xx").Add(4)
	rp.Tick()

	incs := readIncidents(t, dir)
	if len(incs) != 1 {
		t.Fatalf("%d incidents, want 1", len(incs))
	}
	inc := incs[0]
	if inc.Schema != incidentSchema {
		t.Fatalf("schema %q", inc.Schema)
	}
	if inc.Reason != "burn-rate:compress:err:99" {
		t.Fatalf("reason %q", inc.Reason)
	}
	if len(inc.Windows) == 0 {
		t.Fatal("incident has no rollup windows")
	}
	if len(inc.SLO) != 1 || inc.SLO[0].BurnRate5m < 20 {
		t.Fatalf("incident slo %+v", inc.SLO)
	}
	if inc.Runtime.Goroutines <= 0 {
		t.Fatalf("incident runtime %+v", inc.Runtime)
	}
	// The trace rides under the Chrome trace-event key, loadable as-is.
	var events []map[string]any
	if err := json.Unmarshal(inc.TraceEvents, &events); err != nil || len(events) != 1 {
		t.Fatalf("traceEvents %s: %v", inc.TraceEvents, err)
	}
	if fr.dumps.Value() != 1 {
		t.Fatalf("flight.dumps = %d", fr.dumps.Value())
	}
}

func TestFlight5xxBurstTrigger(t *testing.T) {
	r := NewRegistry()
	rp := NewRollup(r, RollupConfig{Interval: time.Hour})
	dir := t.TempDir()
	NewFlightRecorder(FlightConfig{Dir: dir, MinInterval: time.Millisecond}, rp, nil, nil)

	r.Counter("server.compress.status_5xx").Add(3)
	rp.Tick()
	if incs := readIncidents(t, dir); len(incs) != 0 {
		t.Fatalf("burst of 3 triggered %d incidents, threshold is 5", len(incs))
	}
	r.Counter("server.compress.status_5xx").Add(4)
	r.Counter("server.bundle.status_5xx").Add(2) // 6 in-window across endpoints
	rp.Tick()
	incs := readIncidents(t, dir)
	if len(incs) != 1 || !strings.Contains(incs[0].Reason, "5xx-burst:6") {
		t.Fatalf("incidents %+v", incs)
	}
}

func TestFlightP99SpikeTrigger(t *testing.T) {
	r := NewRegistry()
	rp := NewRollup(r, RollupConfig{Interval: time.Hour})
	dir := t.TempDir()
	NewFlightRecorder(FlightConfig{Dir: dir, MinInterval: time.Millisecond}, rp, nil, nil)

	h := r.Histogram("ep.latency_us")
	// Build a steady baseline: several windows of ~100µs p99.
	for w := 0; w < 5; w++ {
		for i := 0; i < 50; i++ {
			h.Observe(100)
		}
		rp.Tick()
	}
	if incs := readIncidents(t, dir); len(incs) != 0 {
		t.Fatalf("steady baseline triggered %d incidents", len(incs))
	}
	// Spike window: p99 jumps ~100x over the baseline mean.
	for i := 0; i < 50; i++ {
		h.Observe(10_000)
	}
	rp.Tick()
	incs := readIncidents(t, dir)
	if len(incs) != 1 || !strings.Contains(incs[0].Reason, "p99-spike:ep.latency_us") {
		t.Fatalf("incidents %+v", incs)
	}
}

func TestFlightRateLimitAndForce(t *testing.T) {
	r := NewRegistry()
	rp := NewRollup(r, RollupConfig{Interval: time.Hour})
	dir := t.TempDir()
	fr := NewFlightRecorder(FlightConfig{Dir: dir, MinInterval: time.Hour}, rp, nil, nil)

	if path, err := fr.Dump("first", false); err != nil || path == "" {
		t.Fatalf("first dump: %q, %v", path, err)
	}
	// Second trigger inside the window is suppressed...
	if path, err := fr.Dump("second", false); err != nil || path != "" {
		t.Fatalf("rate-limited dump: %q, %v", path, err)
	}
	if fr.suppressed.Value() != 1 {
		t.Fatalf("flight.suppressed = %d", fr.suppressed.Value())
	}
	// ...but a manual (force) dump goes through.
	if path, err := fr.Dump("manual", true); err != nil || path == "" {
		t.Fatalf("forced dump: %q, %v", path, err)
	}
	if got := len(readIncidents(t, dir)); got != 2 {
		t.Fatalf("%d incidents, want 2", got)
	}
}

func TestFlightPrune(t *testing.T) {
	r := NewRegistry()
	rp := NewRollup(r, RollupConfig{Interval: time.Hour})
	dir := t.TempDir()
	fr := NewFlightRecorder(FlightConfig{Dir: dir}, rp, nil, nil)
	for i := 0; i < maxIncidents+1; i++ {
		if _, err := fr.Dump("n", true); err != nil {
			t.Fatal(err)
		}
	}
	matches, _ := filepath.Glob(filepath.Join(dir, "incident-*.json"))
	if len(matches) != maxIncidents {
		t.Fatalf("%d incident files after prune, want %d", len(matches), maxIncidents)
	}
	// The oldest dump is the one pruned.
	if first := filepath.Base(matches[0]); !strings.Contains(first, "-002-") {
		t.Fatalf("oldest kept incident %s, want dump 2", first)
	}
}

func TestFlightHandlers(t *testing.T) {
	r := NewRegistry()
	rp := NewRollup(r, RollupConfig{Interval: time.Hour})
	dir := t.TempDir()
	fr := NewFlightRecorder(FlightConfig{Dir: dir}, rp, nil, nil)

	mux := http.NewServeMux()
	mux.Handle("/debug/flight", fr.StatusHandler())
	mux.Handle("/debug/flight/dump", fr.DumpHandler())
	srv := httptest.NewServer(mux)
	defer srv.Close()

	// GET on the dump endpoint is refused.
	resp, err := srv.Client().Get(srv.URL + "/debug/flight/dump")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET dump status %d", resp.StatusCode)
	}

	resp, err = srv.Client().Post(srv.URL+"/debug/flight/dump?reason=drill", "", nil)
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
		t.Fatalf("dumped file: %v", err)
	}

	resp, err = srv.Client().Get(srv.URL + "/debug/flight")
	if err != nil {
		t.Fatal(err)
	}
	var view struct {
		Dumps      int64  `json:"dumps"`
		LastReason string `json:"last_reason"`
		LastFile   string `json:"last_file"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if view.Dumps != 1 || view.LastReason != "drill" || view.LastFile != dumped.File {
		t.Fatalf("status view %+v", view)
	}
}
