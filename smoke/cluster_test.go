package smoke

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ceresz/client"
)

// share is one backend's part of a traffic run: scraped counter deltas.
type share struct {
	requests, hits, misses float64
}

// shares diffs two scrapes of the backends. Coalesced lookups waited on a
// computation already in flight, so they count as hits.
func shares(before, after []map[string]float64) []share {
	out := make([]share, len(before))
	for i := range before {
		d := func(name string) float64 { return after[i][name] - before[i][name] }
		out[i] = share{
			requests: d("ceresz_server_compress_requests") + d("ceresz_server_decompress_requests"),
			hits:     d("ceresz_cache_hits") + d("ceresz_cache_coalesced"),
			misses:   d("ceresz_cache_misses"),
		}
	}
	return out
}

// hitRate is the run's cluster-wide cache hit rate.
func hitRate(t *testing.T, run []share) float64 {
	t.Helper()
	var hits, lookups float64
	for _, s := range run {
		hits += s.hits
		lookups += s.hits + s.misses
	}
	if lookups == 0 {
		t.Fatalf("no cache lookups recorded: %+v", run)
	}
	return hits / lookups
}

// servers counts the backends that served any request (field requests) or
// hit their cache at all (field hits) in a run.
func servers(run []share, field func(share) float64) int {
	n := 0
	for _, s := range run {
		if field(s) > 0 {
			n++
		}
	}
	return n
}

// TestClusterSmoke drives three cereszd backends behind a cereszproxy:
// byte identity through the router, decompress digest affinity against a
// random-route baseline, compress spread, failover with and without
// requests in flight, ring ejection, tenant ids in the backends' logs, and
// a clean drain of every survivor.
//
// The router probes backends once a minute, so a backend killed at rest
// stays on the ring until traffic finds it dead: the first request it owns
// fails over, and that failure (plus the probe round it kicks) ejects it.
func TestClusterSmoke(t *testing.T) {
	dir := t.TempDir()
	var backends []*daemon
	var urls, logs []string
	for i := range 3 {
		logs = append(logs, filepath.Join(dir, fmt.Sprintf("b%d-access.log", i)))
		b := start(t, "cereszd", "-cache-bytes", cacheMiB, "-access-log", logs[i])
		backends, urls = append(backends, b), append(urls, b.URL)
	}
	proxy := start(t, "cereszproxy", "-backends", strings.Join(urls, ","),
		"-health-interval", "1m", "-fail-after", "2", "-rollup-interval", "1s", "-slo", "compress:p99<10s:99")
	c := newClient(proxy.URL, "ci")
	scrape := func() []map[string]float64 {
		out := make([]map[string]float64, len(urls))
		for i, u := range urls {
			out[i] = metrics(t, u)
		}
		return out
	}

	// The cluster-wide cache hit path serves identical bytes: every pass's
	// decompress requests route to the same backends, so the summed
	// counters step through the three cache paths as one backend's would.
	smokePasses(t, c, func() map[string]float64 {
		sum := map[string]float64{}
		for _, m := range scrape() {
			for k, v := range m {
				sum[k] += v
			}
		}
		return sum
	})

	// Warm traffic under digest affinity: every client decompresses one
	// shared framed payload, and every repeat routes to the one backend
	// that owns its first frame's digest.
	framed := shared(t, c, 256<<10, eps)
	before := scrape()
	warmDecompress(t, c, framed, 12)
	affinity := shares(before, scrape())
	var served float64
	for _, s := range affinity {
		served += s.requests
	}
	if served != clients*12 {
		t.Errorf("backends served %v requests, the run completed %d: %+v", served, clients*12, affinity)
	}
	if n := servers(affinity, func(s share) float64 { return s.hits }); n != 1 {
		t.Errorf("affinity traffic hit the cache on %d backends, want the one owner: %+v", n, affinity)
	}

	// Compress routes to a random ring point, so all-unique compress traffic
	// must reach every backend.
	before = scrape()
	load(t, c, 64<<10, 8, 0.004, nil)
	if spread := shares(before, scrape()); servers(spread, func(s share) float64 { return s.requests }) != len(urls) {
		t.Errorf("unique-payload traffic did not reach every backend: %+v", spread)
	}

	// The same warm traffic through a -random-route proxy, on a payload
	// compressed under another bound so it addresses a cold key space,
	// spreads the repeats: digest affinity must beat it on hit rate.
	rproxy := start(t, "cereszproxy", "-backends", strings.Join(urls, ","), "-random-route")
	rc := newClient(rproxy.URL, "ci")
	framed = shared(t, rc, 256<<10, 0.002)
	before = scrape()
	warmDecompress(t, rc, framed, 12)
	random := shares(before, scrape())
	rproxy.drain(t)
	aff, rnd := hitRate(t, affinity), hitRate(t, random)
	t.Logf("hit rate: affinity %.3f %+v, random %.3f %+v", aff, affinity, rnd, random)
	if aff <= rnd {
		t.Errorf("digest affinity hit rate %.3f did not beat random routing's %.3f", aff, rnd)
	}
	if servers(random, func(s share) float64 { return s.hits }) < 2 {
		t.Errorf("random routing kept every repeat on one backend: %+v", random)
	}

	// Failover at rest: with nothing in flight, kill a backend, then send
	// unique payloads until one routed to it has failed over.
	backends[2].kill()
	failovers := func() float64 { return metrics(t, proxy.URL)["ceresz_proxy_failover"] }
	data := synthData[float32](chunk, 3)
	for i := 0; failovers() < 1; i++ {
		if i == 64 {
			t.Fatal("64 unique requests after the kill, none failed over")
		}
		stampUnique(data)
		if _, err := c.Compress(context.Background(), data, client.ABS(eps)); err != nil {
			t.Fatalf("request %d after the kill: %v", i, err)
		}
	}
	if n := metrics(t, proxy.URL)["ceresz_proxy_compress_status_5xx"]; n != 0 {
		t.Fatalf("%v client-visible compress 5xx after failover at rest", n)
	}

	// Failover under load: kill a second backend with requests in flight.
	// Every call still succeeds through the client's retries, and the only
	// 5xx the proxy counts are the relays the kill cut mid-response.
	load(t, c, 256<<10, 16, eps, backends[1].kill)
	m := metrics(t, proxy.URL)
	if m["ceresz_proxy_compress_status_5xx"] != m["ceresz_proxy_midstream_aborts"] {
		t.Errorf("compress status_5xx %v, midstream aborts %v", m["ceresz_proxy_compress_status_5xx"], m["ceresz_proxy_midstream_aborts"])
	}
	if m["ceresz_proxy_ring_rebuilds"] < 2 {
		t.Errorf("ring rebuilt %v times after two backends died", m["ceresz_proxy_ring_rebuilds"])
	}
	t.Logf("failover %v, midstream aborts %v, ring rebuilds %v", m["ceresz_proxy_failover"], m["ceresz_proxy_midstream_aborts"], m["ceresz_proxy_ring_rebuilds"])
	roundTrips(t, c) // byte identity still holds with a single survivor

	var ring struct {
		Routable int `json:"routable"`
		Backends []struct {
			URL   string `json:"url"`
			State string `json:"state"`
		} `json:"backends"`
	}
	getJSON(t, proxy.URL, "/debug/ring", &ring)
	dead := 0
	for _, b := range ring.Backends {
		if b.State == "dead" {
			dead++
		}
	}
	if ring.Routable != 1 || dead != 2 {
		t.Errorf("ring after two kills: %+v", ring)
	}
	var ready struct {
		Status   string `json:"status"`
		Routable int    `json:"routable"`
	}
	getJSON(t, proxy.URL, "/healthz/ready", &ready)
	if ready.Status != "degraded" || ready.Routable != 1 {
		t.Errorf("proxy readiness did not report the lost backends: %+v", ready)
	}

	proxy.drain(t)
	backends[0].drain(t)

	// The proxy forwards X-Ceresz-Tenant, so every backend access-log line
	// carries the client's tenant id.
	lines := 0
	for _, path := range logs {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		for sc := bufio.NewScanner(f); sc.Scan(); lines++ {
			if !strings.Contains(sc.Text(), `"tenant":"ci"`) {
				t.Errorf("%s: line without the tenant id: %s", filepath.Base(path), sc.Text())
			}
		}
		f.Close()
	}
	if lines == 0 {
		t.Error("the backends' access logs are empty")
	}
}
