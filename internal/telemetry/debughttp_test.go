package telemetry

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestDebugMuxEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("debug.test_requests").Add(3)
	r.Histogram("debug.test_latency").Observe(12)

	srv := httptest.NewServer(DebugMux(r))
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return resp.StatusCode, string(body)
	}

	if code, body := get("/debug/metrics"); code != 200 ||
		!strings.Contains(body, "ceresz_debug_test_requests 3") {
		t.Fatalf("/debug/metrics: code %d, body %q", code, body)
	}
	// /debug/metrics is the only exposition of the registry.
	for _, gone := range []string{"/debug/vars", "/debug/telemetry"} {
		if code, _ := get(gone); code != http.StatusNotFound {
			t.Fatalf("%s: code %d, want 404", gone, code)
		}
	}
	if code, _ := get("/debug/pprof/"); code != 200 {
		t.Fatalf("/debug/pprof/: code %d", code)
	}
}
