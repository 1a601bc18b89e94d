package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ceresz/internal/cluster"
	"ceresz/internal/server"
	"ceresz/internal/telemetry"
)

// newBackend serves an in-process cereszd with the chunk cache on and
// returns its base URL.
func newBackend(t *testing.T) string {
	t.Helper()
	s := server.New(server.Config{Workers: 2, CacheBytes: 64 << 20, Registry: telemetry.NewRegistry()})
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestSmokeCachePaths runs the smoke three times against one caching
// server: a chunk is cached on its second sighting, so the first run
// computes uncached, the second computes and caches, and the third is
// served from the cache. Every run checks every byte of both element
// types, and the server's counters show which path each run took.
func TestSmokeCachePaths(t *testing.T) {
	ctx := context.Background()
	url := newBackend(t)
	const chunk, eps = 16 << 10, 1e-3
	var prev map[string]float64
	for run, moved := range []string{"ceresz_cache_first_sightings", "ceresz_cache_misses", "ceresz_cache_hits"} {
		var out bytes.Buffer
		if err := runSmoke(ctx, &out, url, chunk, eps, 0, ""); err != nil {
			t.Fatalf("run %d: %v", run+1, err)
		}
		for _, want := range []string{"f32 round-trip", "f64 round-trip"} {
			if !strings.Contains(out.String(), want) {
				t.Fatalf("run %d printed no %q line:\n%s", run+1, want, out.String())
			}
		}
		cur, err := scrapeCounters(ctx, url)
		if err != nil {
			t.Fatal(err)
		}
		if cur[moved] <= prev[moved] {
			t.Errorf("run %d: %s did not move (%v → %v)", run+1, moved, prev[moved], cur[moved])
		}
		if run < 2 && cur["ceresz_cache_hits"] != 0 {
			t.Errorf("run %d: %v cache hits before any chunk was seen twice", run+1, cur["ceresz_cache_hits"])
		}
		prev = cur
	}
}

// TestTrafficThroughProxy sends warm traffic through an in-process proxy
// over two caching backends and reads the document the way CI does.
func TestTrafficThroughProxy(t *testing.T) {
	b0, b1 := newBackend(t), newBackend(t)
	p, err := cluster.New(cluster.Config{Backends: []string{b0, b1}, Registry: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	p.SetReady(true)
	proxy := httptest.NewServer(p.Handler())
	t.Cleanup(proxy.Close)

	var stdout, stderr bytes.Buffer
	code := run([]string{"-addr", proxy.URL, "-elems", "65536", "-chunk", "4096", "-requests", "10",
		"-repeat-ratio", "0.9", "-tenant", "test", "-targets", b0 + "," + b1 + "/"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	var doc struct {
		Clients     int `json:"clients"`
		Requests    int `json:"requests"`
		Attempts    int `json:"attempts"`
		Errors      int `json:"errors"`
		Rejected429 int `json:"rejected_429"`
		Backends    []struct {
			URL         string  `json:"url"`
			Requests    int     `json:"requests"`
			CacheHits   int     `json:"cache_hits"`
			CacheMisses int     `json:"cache_misses"`
			Share       float64 `json:"share"`
		} `json:"backends"`
	}
	// The fields CI's checks read must be present by name, not just
	// decode to zero.
	var top map[string]json.RawMessage
	var backends []map[string]json.RawMessage
	if err := json.Unmarshal(stdout.Bytes(), &top); err != nil {
		t.Fatalf("stdout is not one JSON document: %v\n%s", err, stdout.String())
	}
	for _, k := range []string{"requests", "attempts", "errors", "rejected_429", "backends"} {
		if _, ok := top[k]; !ok {
			t.Errorf("report lacks %q", k)
		}
	}
	if err := json.Unmarshal(top["backends"], &backends); err != nil {
		t.Fatal(err)
	}
	for _, b := range backends {
		for _, k := range []string{"url", "requests", "cache_hits", "cache_misses"} {
			if _, ok := b[k]; !ok {
				t.Errorf("backend entry lacks %q", k)
			}
		}
	}
	if err := json.Unmarshal(stdout.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Clients <= 0 || doc.Requests != 10*doc.Clients || doc.Attempts < doc.Requests {
		t.Fatalf("totals: %+v", doc)
	}
	if len(doc.Backends) != 2 || doc.Backends[0].URL != b0 || doc.Backends[1].URL != b1 {
		t.Fatalf("backends: %+v", doc.Backends)
	}
	var reqs, hits, lookups int
	for _, b := range doc.Backends {
		reqs += b.Requests
		hits += b.CacheHits
		lookups += b.CacheHits + b.CacheMisses
	}
	if reqs != doc.Requests {
		t.Errorf("backends served %d requests, the run completed %d", reqs, doc.Requests)
	}
	if hits == 0 || lookups == 0 {
		t.Errorf("warm traffic made no cache hits: %+v", doc.Backends)
	}
}

func TestFailedRequestFailsTheRun(t *testing.T) {
	// Ready, but refuses every compress with a non-retryable 400.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/v1/") {
			http.Error(w, "refused", http.StatusBadRequest)
		}
	}))
	defer ts.Close()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-addr", ts.URL, "-elems", "1024", "-requests", "1"}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d against a server that fails every request, want 1", code)
	}
	if !strings.Contains(stderr.String(), "400") {
		t.Errorf("stderr %q does not report the failed request", stderr.String())
	}
}

func TestRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-chunk", "0"},
		{"-chunk", "-4096", "-smoke"},
		{"-repeat-ratio", "1.5"},
	} {
		var stderr bytes.Buffer
		if code := run(append(args, "-addr", "http://127.0.0.1:1"), io.Discard, &stderr); code != 1 {
			t.Errorf("%v: exit %d, want 1", args, code)
		}
		if !strings.Contains(stderr.String(), "must be") {
			t.Errorf("%v: stderr %q names no constraint", args, stderr.String())
		}
	}
}
