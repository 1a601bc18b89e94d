package smoke

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ceresz/internal/server"
	"ceresz/internal/telemetry"
)

// TestSmokeCachePaths runs the three smoke passes against an in-process
// caching server, so the byte-identity and exact-bound checks of every
// cache path also run under -short.
func TestSmokeCachePaths(t *testing.T) {
	s := server.New(server.Config{Workers: 2, CacheBytes: 64 << 20, Registry: telemetry.NewRegistry()})
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	c := newClient(ts.URL, "")
	smokePasses(t, c, func() map[string]float64 { return metrics(t, ts.URL) })
}

// TestServeSmoke drives one cereszd process: the three smoke passes, cold
// and warm traffic, then every observability surface that traffic must
// have moved, and a clean drain. Its p99 objective of 1µs is unmeetable by
// design: every request burns error budget, so the SLO engine must report
// degraded and the flight recorder must dump an incident.
func TestServeSmoke(t *testing.T) {
	dir := t.TempDir()
	accessLog, flightDir := filepath.Join(dir, "access.log"), filepath.Join(dir, "flight")
	d := start(t, "cereszd", "-trace-sample", "1", "-access-log", accessLog, "-cache-bytes", cacheMiB,
		"-rollup-interval", "250ms", "-slo", "compress:p99<1us:99.9",
		"-flight-dir", flightDir, "-flight-min-interval", "2s")
	c := newClient(d.URL, "")

	smokePasses(t, c, func() map[string]float64 { return metrics(t, d.URL) })
	load(t, c, 256<<10, 8, eps, nil)                    // cold
	warmDecompress(t, c, shared(t, c, 256<<10, eps), 8) // warm

	// RED coverage for every /v1/* endpoint: rate, errors, duration.
	m := metrics(t, d.URL)
	for _, ep := range []string{"compress", "decompress", "bundle"} {
		for _, suffix := range []string{"requests", "status_2xx", "status_4xx", "status_5xx", "rejected", "failures", "latency_us_count"} {
			key := "ceresz_server_" + ep + "_" + suffix
			if _, ok := m[key]; !ok {
				t.Errorf("RED metric %s missing from the exposition", key)
			}
		}
	}
	// The traffic moved the serving counters; the repeated frames were
	// answered from the chunk cache and first sightings were kept out of
	// it.
	for _, key := range []string{"ceresz_server_compress_requests", "ceresz_server_compress_chunks",
		"ceresz_server_compress_latency_us_count", "ceresz_server_decompress_requests",
		"ceresz_server_bundle_requests", "ceresz_cache_hits", "ceresz_cache_first_sightings",
		"ceresz_cache_bytes_saved"} {
		if m[key] <= 0 {
			t.Errorf("%s did not move: %v", key, m[key])
		}
	}

	// One access-log line per request, each carrying the fields operators
	// grep for.
	f, err := os.Open(accessLog)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lines := 0
	for sc := bufio.NewScanner(f); sc.Scan(); lines++ {
		var e map[string]any
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("access log line %d: %v", lines+1, err)
		}
		for _, field := range []string{"id", "endpoint", "status", "bytes_in", "total_us"} {
			if _, ok := e[field]; !ok {
				t.Fatalf("access log entry lacks %s: %s", field, sc.Bytes())
			}
		}
	}
	if lines == 0 {
		t.Error("access log is empty")
	}

	var trace []struct {
		Ph string `json:"ph"`
	}
	getJSON(t, d.URL, "/debug/trace", &trace)
	phases := map[string]bool{}
	for _, e := range trace {
		phases[e.Ph] = true
	}
	if !phases["M"] || !phases["X"] {
		t.Errorf("/debug/trace lacks track names or slices: %v", phases)
	}
	var reqs struct {
		Finished int64             `json:"finished"`
		Slowest  []json.RawMessage `json:"slowest"`
	}
	getJSON(t, d.URL, "/debug/requests", &reqs)
	if reqs.Finished <= 0 || len(reqs.Slowest) == 0 {
		t.Errorf("/debug/requests shows no finished requests: %+v", reqs)
	}

	// Rollup windows close every 250ms: wait for one over the traffic to
	// degrade the objective and trigger an incident dump.
	var slo struct {
		Degraded   bool `json:"degraded"`
		Objectives []struct {
			Spec struct {
				Spec string `json:"spec"`
			} `json:"spec"`
			BurnRate5m float64 `json:"burn_rate_5m"`
		} `json:"objectives"`
	}
	var incidents []string
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(100 * time.Millisecond) {
		getJSON(t, d.URL, "/debug/slo", &slo)
		incidents, _ = filepath.Glob(filepath.Join(flightDir, "incident-*.json"))
		if slo.Degraded && len(incidents) > 0 || time.Now().After(deadline) {
			break
		}
	}
	if len(slo.Objectives) != 1 || slo.Objectives[0].Spec.Spec != "compress:p99<1us:99.9" {
		t.Fatalf("unexpected objectives: %+v", slo.Objectives)
	}
	if slo.Objectives[0].BurnRate5m <= 1 {
		t.Errorf("burn rate %v did not rise under an unmeetable SLO", slo.Objectives[0].BurnRate5m)
	}
	if !slo.Degraded {
		t.Error("SLO engine not degraded under total burn")
	}

	var ts struct {
		Windows []struct {
			Counters map[string]int64 `json:"counters"`
		} `json:"windows"`
	}
	getJSON(t, d.URL, "/debug/timeseries?n=0", &ts)
	var windowed int64
	for _, w := range ts.Windows {
		windowed += w.Counters["server.compress.requests"]
	}
	if len(ts.Windows) == 0 || windowed <= 0 {
		t.Errorf("no compress requests landed in any of %d rollup windows", len(ts.Windows))
	}

	// Readiness stays 200 but names the burning objective.
	rd, err := c.Ready(context.Background())
	if err != nil || !rd.Degraded() || len(rd.SLO) == 0 {
		t.Errorf("readiness did not report degradation detail: %+v, %v", rd, err)
	}

	if len(incidents) == 0 {
		t.Fatal("flight recorder wrote no incident")
	}
	raw, err := os.ReadFile(incidents[0])
	if err != nil {
		t.Fatal(err)
	}
	var inc struct {
		Schema  string            `json:"schema"`
		Windows []json.RawMessage `json:"windows"`
		Runtime struct {
			Goroutines int64 `json:"goroutines"`
		} `json:"runtime"`
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &inc); err != nil {
		t.Fatalf("incident %s: %v", incidents[0], err)
	}
	switch {
	case inc.Schema != "ceresz-incident-v1":
		t.Errorf("incident schema %q", inc.Schema)
	case len(inc.Windows) == 0:
		t.Error("incident carries no rollup windows")
	case inc.Runtime.Goroutines <= 0:
		t.Errorf("incident runtime stats empty: %+v", inc.Runtime)
	case len(inc.TraceEvents) == 0:
		t.Error("incident traceEvents is not a loadable Chrome trace")
	}
	resp, err := http.Post(d.URL+"/debug/flight/dump?reason=drill", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var forced struct {
		File string `json:"file"`
	}
	err = json.NewDecoder(resp.Body).Decode(&forced)
	resp.Body.Close()
	if err != nil || forced.File == "" {
		t.Errorf("forced dump failed: %d %+v %v", resp.StatusCode, forced, err)
	}

	d.drain(t)
}
