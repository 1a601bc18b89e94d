package spine_test

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"ceresz/internal/cluster"
	"ceresz/internal/server"
	"ceresz/internal/telemetry"
)

// The serving surface both tiers share, run as one table against a
// cereszd server and a cereszproxy router in front of a real backend:
// probes, drain refusal, the fleet-health views and the RED counters must
// answer alike on either.

// tier is one serving tier under test.
type tier struct {
	prefix      string // instrument prefix: "server" or "proxy"
	url         string
	setReady    func(bool)
	setDraining func(bool)
	rollup      func() *telemetry.Rollup
}

// tierOpts are the knobs the table varies.
type tierOpts struct {
	rollupInterval time.Duration
	slo            string // a latency objective on compress ("" = none)
}

const retryAfter = 1500 * time.Millisecond

// objectives binds a latency objective on compress to prefix's instruments.
func objectives(t *testing.T, prefix, spec string) []telemetry.Objective {
	if spec == "" {
		return nil
	}
	specs, err := telemetry.ParseSLOSpecs(spec)
	if err != nil {
		t.Fatal(err)
	}
	return []telemetry.Objective{{Spec: specs[0], HistName: prefix + ".compress.latency_us"}}
}

func serve(t *testing.T, h http.Handler) string {
	t.Helper()
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts.URL
}

func newServerTier(t *testing.T, o tierOpts) tier {
	t.Helper()
	s := server.New(server.Config{
		Workers:        1,
		RetryAfter:     retryAfter,
		Registry:       telemetry.NewRegistry(),
		RollupInterval: o.rollupInterval,
		Objectives:     objectives(t, "server", o.slo),
	})
	t.Cleanup(s.Close)
	return tier{prefix: "server", url: serve(t, s.Handler()), setReady: s.SetReady, setDraining: s.SetDraining, rollup: s.Rollup}
}

func newProxyTier(t *testing.T, o tierOpts) tier {
	t.Helper()
	backend := server.New(server.Config{Workers: 1, Registry: telemetry.NewRegistry()})
	t.Cleanup(backend.Close)
	p, err := cluster.New(cluster.Config{
		Backends:       []string{serve(t, backend.Handler())},
		RetryAfter:     retryAfter,
		Registry:       telemetry.NewRegistry(),
		RollupInterval: o.rollupInterval,
		Objectives:     objectives(t, "proxy", o.slo),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return tier{prefix: "proxy", url: serve(t, p.Handler()), setReady: p.SetReady, setDraining: p.SetDraining, rollup: p.Rollup}
}

var tiers = []struct {
	name string
	new  func(*testing.T, tierOpts) tier
}{
	{"cereszd", newServerTier},
	{"cereszproxy", newProxyTier},
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, string(body)
}

func postCompress(t *testing.T, base string) *http.Response {
	t.Helper()
	raw := make([]byte, 4*1024)
	for i := 0; i < len(raw)/4; i++ {
		binary.LittleEndian.PutUint32(raw[4*i:], math.Float32bits(float32(math.Sin(0.01*float64(i)))))
	}
	resp, err := http.Post(base+"/v1/compress?eps=1e-3", "application/octet-stream", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp
}

// metric reads one sample of the tier's Prometheus exposition.
func metric(t *testing.T, base, name string) float64 {
	t.Helper()
	_, body := get(t, base+"/debug/metrics")
	for _, line := range strings.Split(body, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return f
		}
	}
	t.Fatalf("%s missing from /debug/metrics", name)
	return 0
}

func TestServingSurface(t *testing.T) {
	for _, tc := range tiers {
		t.Run(tc.name, func(t *testing.T) {
			tr := tc.new(t, tierOpts{})
			tr.setReady(true)

			if code, body := get(t, tr.url+"/healthz/live"); code != http.StatusOK || !strings.Contains(body, `"alive"`) {
				t.Errorf("/healthz/live = %d %q, want 200 alive", code, body)
			}
			probes := []string{"/healthz", "/healthz/ready"}
			expect := func(state string, want int, status string) {
				t.Helper()
				for _, path := range probes {
					if code, body := get(t, tr.url+path); code != want || !strings.Contains(body, `"`+status+`"`) {
						t.Errorf("%s %s = %d %q, want %d %s", state, path, code, body, want, status)
					}
				}
				if code, _ := get(t, tr.url+"/healthz/live"); code != http.StatusOK {
					t.Errorf("%s /healthz/live = %d, want 200", state, code)
				}
			}
			expect("serving", http.StatusOK, "ok")

			counter := "ceresz_" + tr.prefix + "_compress_requests"
			before := metric(t, tr.url, counter)
			if resp := postCompress(t, tr.url); resp.StatusCode != http.StatusOK {
				t.Fatalf("compress: status %d", resp.StatusCode)
			}
			if after := metric(t, tr.url, counter); after != before+1 {
				t.Errorf("%s = %g after one request, want %g", counter, after, before+1)
			}

			tr.setReady(false)
			expect("starting", http.StatusServiceUnavailable, "starting")
			tr.setDraining(true)
			expect("draining", http.StatusServiceUnavailable, "draining")

			resp := postCompress(t, tr.url)
			if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != "2" {
				t.Errorf("compress while draining = %d, Retry-After %q; want 503 with \"2\" (1.5s rounded up)",
					resp.StatusCode, resp.Header.Get("Retry-After"))
			}
		})
	}
}

// TestFleetHealthViews: /debug/timeseries and /debug/slo are 404 while
// their layer is off and 200 once objectives switch it on.
func TestFleetHealthViews(t *testing.T) {
	for _, tc := range tiers {
		t.Run(tc.name, func(t *testing.T) {
			for _, o := range []struct {
				opts tierOpts
				want int
			}{
				{tierOpts{}, http.StatusNotFound},
				{tierOpts{rollupInterval: time.Hour, slo: "compress:p99<25ms:99.9"}, http.StatusOK},
			} {
				tr := tc.new(t, o.opts)
				for _, path := range []string{"/debug/timeseries", "/debug/slo"} {
					if code, body := get(t, tr.url+path); code != o.want {
						t.Errorf("%+v: %s = %d %q, want %d", o.opts, path, code, body, o.want)
					}
				}
			}
		})
	}
}

// TestObjectivesOverrideRollupInterval: objectives need rollup windows, so
// they turn rollups on at the default cadence even when the interval asks
// for none — /debug/slo serves, and a burning objective degrades
// readiness (still 200).
func TestObjectivesOverrideRollupInterval(t *testing.T) {
	for _, tc := range tiers {
		t.Run(tc.name, func(t *testing.T) {
			tr := tc.new(t, tierOpts{rollupInterval: -time.Second, slo: "compress:p99<1us:99.9"})
			tr.setReady(true)
			if resp := postCompress(t, tr.url); resp.StatusCode != http.StatusOK {
				t.Fatalf("compress: status %d", resp.StatusCode)
			}
			rp := tr.rollup()
			if rp == nil {
				t.Fatal("objectives with a negative rollup interval left rollups off")
			}
			rp.Tick()
			if code, body := get(t, tr.url+"/debug/slo"); code != http.StatusOK {
				t.Errorf("/debug/slo = %d %q, want 200", code, body)
			}
			if code, body := get(t, tr.url+"/healthz/ready"); code != http.StatusOK || !strings.Contains(body, `"degraded"`) {
				t.Errorf("/healthz/ready under a burning objective = %d %q, want 200 degraded", code, body)
			}
		})
	}
}
