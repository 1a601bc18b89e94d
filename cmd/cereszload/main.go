// Command cereszload checks a running cereszd or cereszproxy. It does not
// measure serving speed: throughput and latency come from the bench/
// ledger (serve-cold, serve-warm, proxy-mixed).
//
// With -smoke it performs the correctness round-trip for float32 and
// float64 and exits non-zero on any mismatch: the server's compressed
// stream must be byte-identical to the library's StreamWriter with the
// same chunking, every element the server decodes must satisfy
// |v − v′| ≤ eps exactly, and a bundle round-trip must decode under the
// same bound.
//
// Without -smoke it sends traffic: runtime.NumCPU() concurrent clients
// each fire -requests compress requests, and the run prints one JSON
// document to stdout with the request, attempt, error and 429 totals. Any
// failed request makes the exit status non-zero. -repeat-ratio shapes the
// traffic for the chunk cache: that fraction of requests resends a payload
// shared by all clients (warm traffic a caching server can answer from
// memory), the rest carry never-seen chunks.
//
// Flags:
//
//	-addr URL        server base URL (default http://localhost:8775)
//	-elems N         float32 elements per traffic request (default 1Mi)
//	-requests N      traffic requests per client (default 8)
//	-chunk N         elements per compressed frame (default 64Ki; must be > 0)
//	-eps F           absolute error bound (default 1e-3)
//	-repeat-ratio F  fraction of traffic requests resending an already-seen
//	                 payload (0..1, default 0)
//	-wait DUR        poll the server's readiness up to DUR before starting
//	                 instead of failing on the first probe
//	-smoke           run the correctness round-trip instead of traffic
//	-tenant ID       tag every request with X-Ceresz-Tenant (a label on the
//	                 backends' access-log lines, /debug/requests and spans)
//	-targets URLS    cluster mode: comma-separated backend base URLs to
//	                 scrape around the traffic run; -addr then points at a
//	                 cereszproxy and the document lists the per-backend
//	                 request/cache-hit distribution the router produced
package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ceresz"
	"ceresz/client"
)

// synthData is the test field: a smooth multi-scale wave, the shape the
// codec is built for (block-local smoothness for the Lorenzo predictor).
func synthData[F float32 | float64](n int, seed int64) []F {
	out := make([]F, n)
	phase := float64(seed)
	for i := range out {
		x := float64(i)
		out[i] = F(3*math.Sin(0.01*x+phase) + 0.5*math.Sin(0.17*x) + 0.02*math.Sin(2.1*x))
	}
	return out
}

// report is the traffic run's stdout document.
type report struct {
	Clients int `json:"clients"`
	// Requests counts completed compress calls; Attempts counts HTTP
	// requests sent including retries; Errors and Rejected429 count failed
	// and backpressured attempts among them.
	Requests    int `json:"requests"`
	Attempts    int `json:"attempts"`
	Errors      int `json:"errors"`
	Rejected429 int `json:"rejected_429"`
	// Backends records each -targets backend's share of the run (scraped
	// /debug/metrics deltas): how the proxy's digest-affinity routing
	// distributed the requests, and the chunk-cache economics it produced
	// per node.
	Backends []backendPoint `json:"backends,omitempty"`
}

// backendPoint is one backend's scraped delta over the traffic run.
type backendPoint struct {
	URL      string `json:"url"`
	Requests int64  `json:"requests"`
	// Share is this backend's fraction of the run's compress requests —
	// digest routing concentrates repeat traffic (high skew), random
	// routing spreads it (~1/N each).
	Share       float64 `json:"share"`
	CacheHits   int64   `json:"cache_hits"`
	CacheMisses int64   `json:"cache_misses"`
	// HitRate is CacheHits over cache lookups on this backend (0 with no
	// lookups, e.g. caching off).
	HitRate float64 `json:"hit_rate"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: it parses args, writes results to stdout and
// diagnostics to stderr, and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cereszload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "http://localhost:8775", "server base URL")
	elems := fs.Int("elems", 1<<20, "float32 elements per traffic request")
	requests := fs.Int("requests", 8, "traffic requests per client")
	chunk := fs.Int("chunk", 64<<10, "elements per compressed frame (> 0)")
	eps := fs.Float64("eps", 1e-3, "absolute error bound")
	smoke := fs.Bool("smoke", false, "run the correctness round-trip instead of traffic")
	repeatRatio := fs.Float64("repeat-ratio", 0, "fraction of traffic requests resending an already-seen payload (cache-warm traffic, 0..1)")
	wait := fs.Duration("wait", 0, "poll the server's readiness up to this long before starting (0 = single probe)")
	tenant := fs.String("tenant", "", "X-Ceresz-Tenant identity on every request (\"\" = untagged)")
	targets := fs.String("targets", "", "cluster mode: comma-separated backend base URLs to scrape for per-backend distribution")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *repeatRatio < 0 || *repeatRatio > 1 {
		fmt.Fprintln(stderr, "cereszload: -repeat-ratio must be in [0,1]")
		return 1
	}
	if *chunk <= 0 {
		fmt.Fprintln(stderr, "cereszload: -chunk must be positive")
		return 1
	}
	ctx := context.Background()
	if *smoke {
		if err := runSmoke(ctx, stdout, *addr, *chunk, *eps, *wait, *tenant); err != nil {
			fmt.Fprintln(stderr, "cereszload: smoke FAILED:", err)
			return 1
		}
		fmt.Fprintln(stdout, "cereszload: smoke OK")
		return 0
	}

	var targetURLs []string
	for _, t := range strings.Split(*targets, ",") {
		if t = strings.TrimSpace(strings.TrimRight(t, "/")); t != "" {
			targetURLs = append(targetURLs, t)
		}
	}
	clients := runtime.NumCPU()
	c := client.New(client.Config{BaseURL: *addr, ChunkElems: *chunk, MaxIdleConnsPerHost: clients, Tenant: *tenant})
	rep, err := runTraffic(ctx, c, *wait, clients, *elems, *requests, *chunk, *eps, *repeatRatio, targetURLs)
	if err != nil {
		fmt.Fprintln(stderr, "cereszload:", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(stderr, "cereszload:", err)
		return 1
	}
	return 0
}

// scrapeCounters fetches a backend's /debug/metrics Prometheus text and
// returns the plain (label-free) counter/gauge samples by metric name.
func scrapeCounters(ctx context.Context, base string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/debug/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s/debug/metrics returned %d", base, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 || strings.Contains(fields[0], "{") {
			continue
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			continue
		}
		out[fields[0]] = v
	}
	return out, nil
}

// scrapeAll scrapes every target's counters; an unreachable target is an
// error.
func scrapeAll(ctx context.Context, targets []string) ([]map[string]float64, error) {
	out := make([]map[string]float64, len(targets))
	for i, t := range targets {
		m, err := scrapeCounters(ctx, t)
		if err != nil {
			return nil, fmt.Errorf("scrape %s: %w", t, err)
		}
		out[i] = m
	}
	return out, nil
}

// backendDeltas diffs two scrapes of the targets into the per-backend
// distribution of the run between them. Metric names follow the
// registry's exposition: server.compress.requests becomes
// ceresz_server_compress_requests, cache.hits ceresz_cache_hits.
func backendDeltas(targets []string, before, after []map[string]float64) []backendPoint {
	pts := make([]backendPoint, len(targets))
	var total int64
	for i, t := range targets {
		d := func(name string) int64 { return int64(after[i][name] - before[i][name] + 0.5) }
		bp := backendPoint{
			URL:         t,
			Requests:    d("ceresz_server_compress_requests"),
			CacheHits:   d("ceresz_cache_hits") + d("ceresz_cache_coalesced"),
			CacheMisses: d("ceresz_cache_misses"),
		}
		if lookups := bp.CacheHits + bp.CacheMisses; lookups > 0 {
			bp.HitRate = float64(bp.CacheHits) / float64(lookups)
		}
		total += bp.Requests
		pts[i] = bp
	}
	for i := range pts {
		if total > 0 {
			pts[i].Share = float64(pts[i].Requests) / float64(total)
		}
	}
	return pts
}

// waitReady polls the server's readiness endpoint (/healthz, the
// readiness alias) until it answers 200 or the window closes. A zero
// window preserves the old single-probe behavior. This replaces
// arbitrary sleeps in scripts: the daemon reports ready only once its
// listener is actually accepting.
func waitReady(ctx context.Context, c *client.Client, window time.Duration) error {
	if window <= 0 {
		return c.Health(ctx)
	}
	deadline := time.Now().Add(window)
	for {
		err := c.Health(ctx)
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server not ready after %v: %w", window, err)
		}
		select {
		case <-time.After(100 * time.Millisecond):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// runSmoke is the CI gate: a compress + decompress round trip per element
// type and one bundle against a live server, checked against the library.
func runSmoke(ctx context.Context, w io.Writer, addr string, chunk int, eps float64, wait time.Duration, tenant string) error {
	c := client.New(client.Config{BaseURL: addr, ChunkElems: chunk, Tenant: tenant})
	if err := waitReady(ctx, c, wait); err != nil {
		return fmt.Errorf("health: %w", err)
	}
	const n = 200_000 // several frames plus a partial trailing chunk
	if err := roundTrip(ctx, w, "f32", synthData[float32](n, 7), chunk, eps,
		c.CompressTraced, (*ceresz.StreamWriter).WriteChunk, c.Decompress); err != nil {
		return err
	}
	if err := roundTrip(ctx, w, "f64", synthData[float64](n, 7), chunk, eps,
		c.Compress64Traced, (*ceresz.StreamWriter).WriteChunk64, c.Decompress64); err != nil {
		return err
	}

	// Bundle round-trip: pack one field server-side, decode it locally.
	const bn = 10_000
	bdata := synthData[float32](bn, 11)
	bundle, err := c.Bundle(ctx, []client.BundleField{
		{Name: "field", Dims: [3]int{bn, 1, 1}, Bound: client.ABS(eps), F32: bdata},
	})
	if err != nil {
		return fmt.Errorf("bundle: %w", err)
	}
	br, err := ceresz.OpenBundle(bundle)
	if err != nil {
		return fmt.Errorf("bundle open: %w", err)
	}
	bvals, _, err := br.ReadField("field")
	if err != nil {
		return fmt.Errorf("bundle read: %w", err)
	}
	return checkBound("bundle", bvals, bdata, eps)
}

// roundTrip sends data through the server's compress and decompress
// endpoints. The stream must be byte-identical to the library's
// StreamWriter with the same chunking, the response must carry its
// request id and a consistent Server-Timing trailer, and the decode must
// hold the bound.
func roundTrip[F float32 | float64](ctx context.Context, w io.Writer, name string, data []F, chunk int, eps float64,
	compress func(context.Context, []F, client.Bound) ([]byte, *client.Trace, error),
	writeChunk func(*ceresz.StreamWriter, []F) (*ceresz.Stats, error),
	decompress func(context.Context, []byte) ([]F, error)) error {
	comp, tr, err := compress(ctx, data, client.ABS(eps))
	if err != nil {
		return fmt.Errorf("%s compress: %w", name, err)
	}
	st := tr.Server
	switch {
	case tr.RequestID == "":
		return fmt.Errorf("%s compress response carried no X-Ceresz-Request-Id", name)
	case !st.Valid:
		return fmt.Errorf("%s compress response carried no Server-Timing trailer", name)
	case st.Total < st.Stages():
		return fmt.Errorf("%s: server total %v below stage sum %v", name, st.Total, st.Stages())
	}
	var local bytes.Buffer
	sw := ceresz.NewStreamWriter(&local, ceresz.ABS(eps), ceresz.Options{Workers: 1})
	for start := 0; start < len(data); start += chunk {
		if _, err := writeChunk(sw, data[start:min(start+chunk, len(data))]); err != nil {
			return fmt.Errorf("%s local stream: %w", name, err)
		}
	}
	if !bytes.Equal(comp, local.Bytes()) {
		return fmt.Errorf("%s server stream (%d bytes) differs from library StreamWriter (%d bytes)", name, len(comp), local.Len())
	}
	vals, err := decompress(ctx, comp)
	if err != nil {
		return fmt.Errorf("%s decompress: %w", name, err)
	}
	if err := checkBound(name, vals, data, eps); err != nil {
		return err
	}
	fmt.Fprintf(w, "%s round-trip: %d elements, %d compressed bytes (ratio %.2fx), bound %g held\n",
		name, len(data), len(comp), float64(binary.Size(data))/float64(len(comp)), eps)
	fmt.Fprintf(w, "request %s server stages: admit=%v worker=%v read=%v cache=%v codec=%v write=%v total=%v\n",
		tr.RequestID, st.Admit, st.Worker, st.Read, st.Cache, st.Codec, st.Write, st.Total)
	return nil
}

// checkBound holds a decode to the error-bound contract exactly:
// |v − v′| ≤ eps for every element, with no tolerance.
func checkBound[F float32 | float64](name string, got, want []F, eps float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: decoded %d elements, want %d", name, len(got), len(want))
	}
	for i, v := range got {
		if math.Abs(float64(v)-float64(want[i])) > eps {
			return fmt.Errorf("%s element %d: |%g - %g| exceeds eps %g", name, i, v, want[i], eps)
		}
	}
	return nil
}

// uniqueStamp hands out distinct chunk markers across all clients so
// "unique" requests never collide with each other or with the shared
// repeat payload.
var uniqueStamp atomic.Int64

// stampUnique overwrites the first element of every chunk-sized window
// with a globally unique value well outside the synthetic wave's range,
// so no chunk of this payload matches any chunk the server has seen.
// Restamping the same buffer for the next unique request needs no
// re-clone: the stamp positions are simply overwritten again.
func stampUnique(data []float32, chunk int) {
	stamp := float32(1000 + uniqueStamp.Add(1))
	for off := 0; off < len(data); off += chunk {
		data[off] = stamp
	}
}

// runTraffic fires requests compress calls from each of clients
// concurrent clients and totals their attempt/error/429 counts; the first
// failed request stops its client and fails the run. repeatRatio ∈ [0,1]
// sets the fraction of requests that resend a payload shared by all
// clients (evenly interleaved with unique-chunk requests), so a
// chunk-caching server sees that fraction as warm traffic. With targets,
// each backend's counters are scraped before and after the run.
func runTraffic(ctx context.Context, c *client.Client, wait time.Duration, clients, elems, requests, chunk int, eps, repeatRatio float64, targets []string) (report, error) {
	rep := report{Clients: clients}
	if err := waitReady(ctx, c, wait); err != nil {
		return rep, fmt.Errorf("health: %w", err)
	}
	before, err := scrapeAll(ctx, targets)
	if err != nil {
		return rep, err
	}
	// The repeat payload is shared (read-only) by every client: repeats
	// should hit the server's cache no matter which client sent the
	// chunks first.
	shared := synthData[float32](elems, 1)
	counts := make([]report, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for w := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mine := synthData[float32](elems, int64(w))
			r := &counts[w]
			for i := range requests {
				// Evenly interleave repeats among uniques: request i is a
				// repeat when the running integral of the ratio steps.
				data := shared
				if int(float64(i+1)*repeatRatio) == int(float64(i)*repeatRatio) {
					stampUnique(mine, chunk)
					data = mine
				}
				_, tr, err := c.CompressTraced(ctx, data, client.ABS(eps))
				r.Attempts += tr.Attempts
				r.Errors += tr.Errors
				r.Rejected429 += tr.Rejected429
				if err != nil {
					errs[w] = fmt.Errorf("client %d request %d: %w", w, i, err)
					return
				}
				r.Requests++
			}
		}()
	}
	wg.Wait()
	for _, r := range counts {
		rep.Requests += r.Requests
		rep.Attempts += r.Attempts
		rep.Errors += r.Errors
		rep.Rejected429 += r.Rejected429
	}
	if err := errors.Join(errs...); err != nil {
		return rep, err
	}
	if len(targets) > 0 {
		after, err := scrapeAll(ctx, targets)
		if err != nil {
			return rep, err
		}
		rep.Backends = backendDeltas(targets, before, after)
	}
	return rep, nil
}
