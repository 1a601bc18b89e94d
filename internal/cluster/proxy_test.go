package cluster

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ceresz/internal/chunkcache"
	"ceresz/internal/chunkcache/keytest"
	"ceresz/internal/cszf"
	"ceresz/internal/server"
	"ceresz/internal/spine"
	"ceresz/internal/telemetry"
)

// countingBackend wraps a handler and counts /v1/* POSTs it received.
type countingBackend struct {
	h    http.Handler
	hits atomic.Int64
}

func (b *countingBackend) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost && strings.HasPrefix(r.URL.Path, "/v1/") {
		b.hits.Add(1)
	}
	b.h.ServeHTTP(w, r)
}

// newRealBackend boots a full internal/server instance with the chunk
// cache on, wrapped in a request counter.
func newRealBackend(t *testing.T) (*httptest.Server, *countingBackend) {
	t.Helper()
	srv := server.New(server.Config{
		Workers:    2,
		CacheBytes: 32 << 20,
		Registry:   telemetry.NewRegistry(),
	})
	t.Cleanup(srv.Close)
	cb := &countingBackend{h: srv.Handler()}
	ts := httptest.NewServer(cb)
	t.Cleanup(ts.Close)
	return ts, cb
}

// newTestProxy builds a proxy over the given config without starting the
// health pollers: tests drive health via the traffic path or directly,
// keeping them deterministic.
func newTestProxy(t *testing.T, cfg Config) (*Proxy, *httptest.Server, *telemetry.Registry) {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = telemetry.NewRegistry()
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	p.SetReady(true)
	ts := httptest.NewServer(p.Handler())
	t.Cleanup(ts.Close)
	return p, ts, cfg.Registry
}

func rawF32Body(n int, seed float32) []byte {
	out := make([]byte, 4*n)
	for i := 0; i < n; i++ {
		v := seed + float32(math.Sin(0.01*float64(i)))
		binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(v))
	}
	return out
}

const compressQuery = "/v1/compress?mode=abs&eps=0.001&elem=f32&chunk=16384"

func postCompress(t *testing.T, base string, body []byte, hdr map[string]string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+compressQuery, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// Digest affinity: the same chunk must route to the same backend every
// time — that is what turns cluster-wide repeats into single-node warm
// cache hits.
func TestProxyDigestAffinity(t *testing.T) {
	tsA, cbA := newRealBackend(t)
	tsB, cbB := newRealBackend(t)
	_, pts, _ := newTestProxy(t, Config{Backends: []string{tsA.URL, tsB.URL}})

	body := rawF32Body(32<<10, 1)
	const rounds = 8
	for i := 0; i < rounds; i++ {
		resp := postCompress(t, pts.URL, body, nil)
		out, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("round %d: status %d: %s", i, resp.StatusCode, out)
		}
	}
	a, b := cbA.hits.Load(), cbB.hits.Load()
	if a+b != rounds {
		t.Fatalf("backends saw %d+%d requests, want %d", a, b, rounds)
	}
	if a != 0 && b != 0 {
		t.Fatalf("identical payload split across backends (%d/%d) — digest affinity broken", a, b)
	}
}

// The proxy must relay bytes unchanged: a compress answer through the
// proxy is byte-identical to the same request sent directly to a
// backend, and decompressing the stream back through the proxy recovers
// the data within the error bound.
func TestProxyByteIdentity(t *testing.T) {
	tsA, _ := newRealBackend(t)
	tsB, _ := newRealBackend(t)
	direct, _ := newRealBackend(t)
	_, pts, _ := newTestProxy(t, Config{Backends: []string{tsA.URL, tsB.URL}})

	const elems = 40_000
	body := make([]byte, 4*elems)
	want := make([]float32, elems)
	for i := range want {
		want[i] = float32(2 * math.Sin(0.003*float64(i)))
		binary.LittleEndian.PutUint32(body[4*i:], math.Float32bits(want[i]))
	}

	resp := postCompress(t, pts.URL, body, nil)
	viaProxy, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("proxy compress: %d: %s", resp.StatusCode, viaProxy)
	}
	resp = postCompress(t, direct.URL, body, nil)
	viaDirect, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("direct compress: %d: %s", resp.StatusCode, viaDirect)
	}
	if !bytes.Equal(viaProxy, viaDirect) {
		t.Fatalf("proxied stream (%d bytes) differs from direct backend stream (%d bytes)",
			len(viaProxy), len(viaDirect))
	}

	// Round-trip the compressed stream back through the proxy (exercises
	// CSZF-frame routing on the decompress side).
	req, _ := http.NewRequest(http.MethodPost, pts.URL+"/v1/decompress?elem=f32", bytes.NewReader(viaProxy))
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("proxy decompress: %d: %s", resp2.StatusCode, raw)
	}
	if len(raw) != 4*elems {
		t.Fatalf("decompressed %d bytes, want %d", len(raw), 4*elems)
	}
	for i := 0; i < elems; i++ {
		v := math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		if math.Abs(float64(v)-float64(want[i])) > 0.001*(1+1e-6) {
			t.Fatalf("element %d: |%g - %g| exceeds eps", i, v, want[i])
		}
	}
}

// A dead backend must be invisible to clients whose requests are
// replayable: the proxy fails over to the next ring owner and the
// request succeeds with zero client-visible 5xx.
func TestProxyFailoverOnDeadBackend(t *testing.T) {
	tsA, cbA := newRealBackend(t)
	tsB, cbB := newRealBackend(t)
	_, pts, reg := newTestProxy(t, Config{Backends: []string{tsA.URL, tsB.URL}})

	body := rawF32Body(32<<10, 2)
	resp := postCompress(t, pts.URL, body, nil)
	want, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm request failed: %d", resp.StatusCode)
	}

	// Kill whichever backend owns this digest.
	if cbA.hits.Load() > 0 {
		tsA.Close()
	} else {
		tsB.Close()
	}
	beforeTotal := cbA.hits.Load() + cbB.hits.Load()

	resp = postCompress(t, pts.URL, body, nil)
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after owner death: status %d, want 200 (transparent failover): %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("failover answer differs from the original compressed stream")
	}
	if cbA.hits.Load()+cbB.hits.Load() != beforeTotal+1 {
		t.Fatal("surviving backend did not receive exactly one forwarded request")
	}
	if got := reg.Counter("proxy.failover").Value(); got != 1 {
		t.Fatalf("proxy.failover = %d, want 1", got)
	}
	if got := reg.Counter("proxy.compress.status_5xx").Value(); got != 0 {
		t.Fatalf("client-visible 5xx count = %d, want 0", got)
	}
}

// A request whose body streamed past the replay buffer must NOT be
// silently resent: the proxy answers 502 naming the partial-forward
// refusal and counts it, leaving the end-to-end retry to the client.
func TestProxyPartialForwardRefusesRetry(t *testing.T) {
	// The owner reads part of the streamed body, then cuts the
	// connection — a backend crash mid-upload.
	killer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.CopyN(io.Discard, r.Body, 256<<10)
		hj, ok := w.(http.Hijacker)
		if !ok {
			t.Error("test server does not support hijacking")
			return
		}
		conn, _, err := hj.Hijack()
		if err == nil {
			conn.Close()
		}
	}))
	defer killer.Close()
	healthy, cbH := newRealBackend(t)

	// Tiny replay buffer so a 4 MiB body must stream past it.
	p, pts, reg := newTestProxy(t, Config{
		Backends:    []string{killer.URL, healthy.URL},
		ReplayBytes: 64 << 10,
	})

	// Find a payload the killer owns. Routing is deterministic, so
	// ownership is computed through the proxy's own ring rather than by
	// probing with live requests.
	q, err := url.ParseQuery(strings.SplitN(compressQuery, "?", 2)[1])
	if err != nil {
		t.Fatal(err)
	}
	var body []byte
	for seed := float32(0); ; seed++ {
		body = rawF32Body(1<<20, seed) // 4 MiB
		key := p.routeKey(spine.Compress, q, body[:64<<10])
		if p.Ring().Owner(key) == 0 {
			break
		}
		if seed > 64 {
			t.Fatal("no seed routed to backend 0 — ring or routing broken")
		}
	}

	resp := postCompress(t, pts.URL, body, nil)
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status %d (%s), want 502", resp.StatusCode, msg)
	}
	if !strings.Contains(string(msg), "partially forwarded") {
		t.Fatalf("502 body %q does not name the partial-forward refusal", msg)
	}
	if !resp.Close {
		t.Fatal("502 on a streamed body did not announce Connection: close — the unread 3.9 MiB would be parsed as the next request")
	}
	if got := reg.Counter("proxy.failover_denied").Value(); got != 1 {
		t.Fatalf("proxy.failover_denied = %d, want 1", got)
	}
	if got := reg.Counter("proxy.failover").Value(); got != 0 {
		t.Fatalf("proxy.failover = %d, want 0 (no silent retry)", got)
	}
	if cbH.hits.Load() != 0 {
		t.Fatal("healthy backend received the partially-forwarded request — silent retry happened")
	}
}

// Backend backpressure passes through untouched: a 429 is not a failure
// to fail over from, and the backend's own Retry-After reaches the
// client.
func TestProxy429Passthrough(t *testing.T) {
	busy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		w.Header().Set("Retry-After", "7")
		http.Error(w, "saturated", http.StatusTooManyRequests)
	}))
	defer busy.Close()

	_, pts, reg := newTestProxy(t, Config{Backends: []string{busy.URL}})
	resp := postCompress(t, pts.URL, rawF32Body(1024, 3), nil)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "7" {
		t.Fatalf("Retry-After %q, want the backend's own \"7\"", got)
	}
	if got := reg.Counter("proxy.failover").Value(); got != 0 {
		t.Fatalf("proxy.failover = %d on a 429, want 0", got)
	}
}

// A bound no codec can use is the client's error on either tier: the one
// backend asked answers 400 and the proxy relays it, with no failover and
// no 5xx counted anywhere — a 500 here would fail over and come back as a
// 502 that clients retry.
func TestProxyRelaysUnusableBound(t *testing.T) {
	tsA, cbA := newRealBackend(t)
	tsB, cbB := newRealBackend(t)
	_, pts, reg := newTestProxy(t, Config{Backends: []string{tsA.URL, tsB.URL}})
	body := rawF32Body(1024, 0) // range ≈ 2, so λ = 1e308 resolves to +Inf
	for i, query := range []string{"eps=Inf", "mode=rel&eps=1e308"} {
		resp, err := http.Post(pts.URL+"/v1/compress?"+query, "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", query, resp.StatusCode, msg)
		}
		if hits := cbA.hits.Load() + cbB.hits.Load(); hits != int64(i+1) {
			t.Errorf("%s: backends saw %d requests in all, want %d", query, hits, i+1)
		}
	}
	if got := reg.Counter("proxy.failover").Value(); got != 0 {
		t.Errorf("proxy.failover = %d, want 0", got)
	}
	for _, name := range []string{"proxy.compress.status_5xx", "proxy.backend.b0.status_5xx", "proxy.backend.b1.status_5xx"} {
		if got := reg.Counter(name).Value(); got != 0 {
			t.Errorf("%s = %d, want 0", name, got)
		}
	}
}

// Admission is one bounded semaphore, as on the backend: with every relay
// slot held, the next request is refused at the proxy with 429 and the
// configured Retry-After, and never reaches a backend. Tenant and priority
// headers change nothing about admission and reach the backend untouched.
func TestProxyAdmission(t *testing.T) {
	const priority = "X-Ceresz-Priority" // a header no tier reads any more
	var (
		hits          atomic.Int64
		entered       = make(chan struct{})
		release       = make(chan struct{})
		mu            sync.Mutex
		tenants, prio []string
	)
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		if hits.Add(1) == 1 {
			close(entered)
			<-release
		}
		mu.Lock()
		tenants = append(tenants, r.Header.Get("X-Ceresz-Tenant"))
		prio = append(prio, r.Header.Get(priority))
		mu.Unlock()
		_, _ = w.Write([]byte("ok"))
	}))
	defer backend.Close()
	unpark := sync.OnceFunc(func() { close(release) })
	defer unpark() // before backend.Close, which waits for the parked handler
	_, pts, reg := newTestProxy(t, Config{Backends: []string{backend.URL}, Workers: 1, RetryAfter: 3 * time.Second})

	status := func(hdr map[string]string) (int, string) {
		resp := postCompress(t, pts.URL, rawF32Body(256, 6), hdr)
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode, resp.Header.Get("Retry-After")
	}

	parked := make(chan int, 1)
	go func() {
		resp, err := http.Post(pts.URL+compressQuery, "application/octet-stream", bytes.NewReader(rawF32Body(256, 6)))
		if err != nil {
			t.Error(err)
			parked <- 0
			return
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		parked <- resp.StatusCode
	}()
	select {
	case <-entered:
	case code := <-parked:
		t.Fatalf("first request ended with status %d before reaching the backend", code)
	}
	if code, hint := status(nil); code != http.StatusTooManyRequests || hint != "3" {
		t.Fatalf("request past the only slot: status %d, Retry-After %q; want 429, \"3\"", code, hint)
	}
	if got := reg.Counter("proxy.compress.rejected").Value(); got != 1 {
		t.Fatalf("proxy.compress.rejected = %d, want 1", got)
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("backend saw %d requests, want 1: the refused one reached it", got)
	}
	unpark()
	if code := <-parked; code != http.StatusOK {
		t.Fatalf("parked request: status %d, want 200", code)
	}
	if code, _ := status(nil); code != http.StatusOK {
		t.Fatalf("request after release: status %d, want 200", code)
	}

	const burst = 20
	for i := 0; i < burst; i++ {
		if code, _ := status(map[string]string{"X-Ceresz-Tenant": "acme", priority: "low"}); code != http.StatusOK {
			t.Fatalf("tagged request %d: status %d, want 200", i, code)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for i := len(tenants) - burst; i < len(tenants); i++ {
		if tenants[i] != "acme" || prio[i] != "low" {
			t.Fatalf("backend got tenant %q, priority %q; want \"acme\", \"low\"", tenants[i], prio[i])
		}
	}
}

// Fields a message's Connection header names are hop-by-hop (RFC 9110
// §7.6.1): the proxy drops them in both directions.
func TestProxyDropsConnectionNamedFields(t *testing.T) {
	var sawFoo atomic.Bool
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		sawFoo.Store(r.Header.Get("X-Foo") != "")
		w.Header().Set("Connection", "X-Bar")
		w.Header().Set("X-Bar", "backend-secret")
		w.Header().Set("X-Baz", "end-to-end")
	}))
	defer backend.Close()
	_, pts, _ := newTestProxy(t, Config{Backends: []string{backend.URL}})

	resp := postCompress(t, pts.URL, rawF32Body(256, 7), map[string]string{
		"Connection": "keep-alive, X-Foo",
		"X-Foo":      "client-secret",
	})
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	if sawFoo.Load() {
		t.Error("backend received X-Foo, which the client's Connection header named")
	}
	if got := resp.Header.Get("X-Bar"); got != "" {
		t.Errorf("client received X-Bar = %q, which the backend's Connection header named", got)
	}
	if got := resp.Header.Get("X-Baz"); got != "end-to-end" {
		t.Errorf("client received X-Baz = %q, want the backend's end-to-end field", got)
	}
}

// Health-driven ring rebuilds: marking a backend dead removes it from
// the ring; readiness flips 503 when nothing is routable.
func TestProxyReadinessAndRebuild(t *testing.T) {
	tsA, _ := newRealBackend(t)
	p, pts, reg := newTestProxy(t, Config{Backends: []string{tsA.URL}})

	get := func(path string) (int, string) {
		resp, err := http.Get(pts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	if code, body := get("/healthz/ready"); code != http.StatusOK || !strings.Contains(body, `"ok"`) {
		t.Fatalf("ready = %d %q, want 200 ok", code, body)
	}

	rebuildsBefore := reg.Counter("proxy.ring_rebuilds").Value()
	p.checker.setState(0, StateDead)
	p.rebuild()
	if got := reg.Counter("proxy.ring_rebuilds").Value(); got != rebuildsBefore+1 {
		t.Fatalf("ring_rebuilds = %d, want %d", got, rebuildsBefore+1)
	}
	if code, body := get("/healthz/ready"); code != http.StatusServiceUnavailable || !strings.Contains(body, "no-backends") {
		t.Fatalf("ready with dead backend = %d %q, want 503 no-backends", code, body)
	}
	if got := reg.Gauge("proxy.backends_routable").Value(); got != 0 {
		t.Fatalf("backends_routable = %d, want 0", got)
	}

	// A /v1 request now gets an honest 503 with a retry hint.
	resp := postCompress(t, pts.URL, rawF32Body(1024, 5), nil)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("routing with empty ring: %d (Retry-After %q), want 503 with hint",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}

	// Revival restores routing.
	p.checker.setState(0, StateHealthy)
	p.rebuild()
	if code, _ := get("/healthz/ready"); code != http.StatusOK {
		t.Fatalf("ready after revival = %d, want 200", code)
	}
}

func TestProxyDebugRing(t *testing.T) {
	tsA, _ := newRealBackend(t)
	tsB, _ := newRealBackend(t)
	_, pts, _ := newTestProxy(t, Config{Backends: []string{tsA.URL, tsB.URL}})

	resp, err := http.Get(pts.URL + "/debug/ring")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var view struct {
		Generation int64 `json:"generation"`
		Vnodes     int   `json:"vnodes"`
		Routable   int   `json:"routable"`
		Backends   []struct {
			URL   string  `json:"url"`
			State string  `json:"state"`
			Share float64 `json:"share"`
		} `json:"backends"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	if view.Routable != 2 || len(view.Backends) != 2 {
		t.Fatalf("ring view: routable=%d backends=%d, want 2/2", view.Routable, len(view.Backends))
	}
	if view.Vnodes != 128 {
		t.Fatalf("vnodes = %d, want 128 (2 healthy x default 64)", view.Vnodes)
	}
	var shareSum float64
	for _, b := range view.Backends {
		if b.State != "healthy" {
			t.Fatalf("backend %s state %q, want healthy", b.URL, b.State)
		}
		shareSum += b.Share
	}
	if math.Abs(shareSum-1) > 1e-9 {
		t.Fatalf("shares sum to %v, want 1", shareSum)
	}
}

// The proxy's own error surface matches the backend's: unknown /v1 paths
// 404, non-POST methods 405.
func TestProxyMethodAndPathErrors(t *testing.T) {
	ts, _ := newRealBackend(t)
	_, pts, _ := newTestProxy(t, Config{Backends: []string{ts.URL}})

	resp, err := http.Get(pts.URL + compressQuery)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/compress = %d, want 405", resp.StatusCode)
	}

	resp, err = http.Post(pts.URL+"/v1/nonsense", "application/octet-stream", bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /v1/nonsense = %d, want 404", resp.StatusCode)
	}
}

// TestParseObjectivesBindsProxyInstruments: specs bound with the proxy's
// prefix name instruments a live proxy registers, so an objective never
// evaluates against a series that cannot fire.
func TestParseObjectivesBindsProxyInstruments(t *testing.T) {
	_, _, reg := newTestProxy(t, Config{Backends: []string{"http://a.invalid"}})
	objs, err := spine.ParseObjectives("proxy", "compress:p99<25ms:99.9,decompress:err:99.99")
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 2 {
		t.Fatalf("parsed %d objectives, want 2", len(objs))
	}
	if objs[0].HistName != "proxy.compress.latency_us" {
		t.Fatalf("latency SLI bound to %q", objs[0].HistName)
	}
	if objs[1].TotalCounter != "proxy.decompress.requests" || objs[1].BadCounter != "proxy.decompress.status_5xx" {
		t.Fatalf("err SLI bound to %q/%q", objs[1].TotalCounter, objs[1].BadCounter)
	}
	snap := reg.Snapshot()
	if _, ok := snap.Hists[objs[0].HistName]; !ok {
		t.Errorf("%s is not a registered proxy histogram", objs[0].HistName)
	}
	for _, name := range []string{objs[1].TotalCounter, objs[1].BadCounter} {
		if _, ok := snap.Counters[name]; !ok {
			t.Errorf("%s is not a registered proxy counter", name)
		}
	}
	if _, err := spine.ParseObjectives("proxy", "frobnicate:err:99"); err == nil {
		t.Fatal("unknown endpoint accepted")
	}
}

// TestRouteKeysAreTheCommittedKeys is the proxy's third of the cross-tier
// pin (package keytest): routeKey, given each committed request's query and
// body as serveProxy would hand them over, returns exactly the committed
// Key — the 32 bytes internal/server's test finds the request's first chunk
// cached under. It runs on the AVX-512 and the purego build alike (CI lists
// this package under both), so the pin holds on both kernel sets.
func TestRouteKeysAreTheCommittedKeys(t *testing.T) {
	p, _, _ := newTestProxy(t, Config{Backends: []string{"http://a.invalid", "http://b.invalid"}})
	for _, r := range keytest.Requests() {
		q, err := url.ParseQuery(r.Query)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.routeKey(endpointOf(r.Path), q, r.Body); got != chunkcache.Key(r.Key) {
			t.Errorf("%s: routeKey %x, committed key %x", r.Name, got, r.Key)
		}
	}
}

// TestRouteKeyDefaultBlockLenHasOneSpelling: the default block length,
// left out or written out, in the request or in the proxy's own -block
// mirror, is one frame on the backends and must be one ring position.
func TestRouteKeyDefaultBlockLenHasOneSpelling(t *testing.T) {
	body := rawF32Body(64<<10, 3)
	backends := []string{"http://a.invalid", "http://b.invalid", "http://c.invalid"}
	var keys []chunkcache.Key
	for _, cfgBlock := range []int{0, 32} {
		p, _, _ := newTestProxy(t, Config{Backends: backends, BlockLen: cfgBlock})
		for _, query := range []string{"eps=0.001", "eps=0.001&block=32"} {
			q, _ := url.ParseQuery(query)
			k := p.routeKey(spine.Compress, q, body)
			if len(keys) > 0 && (k != keys[0] || p.Ring().Owner(k) != p.Ring().Owner(keys[0])) {
				t.Errorf("proxy BlockLen %d, %q: key %x, want the first spelling's %x and its owner", cfgBlock, query, k, keys[0])
			}
			keys = append(keys, k)
		}
		q, _ := url.ParseQuery("eps=0.001&block=64")
		if p.routeKey(spine.Compress, q, body) == keys[0] {
			t.Error("block=64 routes as the default block length")
		}
	}
}

func TestFirstFramePayload(t *testing.T) {
	payload := []byte("hello frame")
	frame := append(cszf.AppendHeader(nil, len(payload)), payload...)
	frame = append(frame, "trailing junk"...)

	got, ok := cszf.FirstPayload(frame)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("payload = %q ok=%v", got, ok)
	}
	if _, ok := cszf.FirstPayload([]byte("CSZ")); ok {
		t.Fatal("short prefix accepted")
	}
	if _, ok := cszf.FirstPayload([]byte("XXXX\x04\x00\x00\x00data")); ok {
		t.Fatal("wrong magic accepted")
	}
	if _, ok := cszf.FirstPayload(frame[:8+len(payload)-1]); ok {
		t.Fatal("truncated payload accepted")
	}
}

// gatedBody yields head at once and tail only after gate closes. Opening
// the gate when the response headers arrive pins the interleaving the
// streamed relay must survive: the first response bytes go out while most
// of the request body is still unsent. Should the headers never come, the
// tail goes out after a few seconds so the exchange fails instead of
// hanging.
type gatedBody struct {
	head, tail []byte
	gate       <-chan struct{}
}

func (g *gatedBody) Read(p []byte) (int, error) {
	if len(g.head) == 0 {
		if len(g.tail) == 0 {
			return 0, io.EOF
		}
		select {
		case <-g.gate:
		case <-time.After(5 * time.Second):
		}
		g.head, g.tail = g.tail, nil
	}
	n := copy(p, g.head)
	g.head = g.head[n:]
	return n, nil
}

// A body longer than the replay buffer streams: the transport reads the
// rest of it while the backend's first response frames are already being
// relayed. Without full duplex net/http consumes the unread request body
// itself before the first response byte goes out — racing the transport
// for the same bytes (unexpected EOF upstream) or giving up with
// Connection: close. Every streamed request must succeed, match a direct
// request byte for byte, and leave its connection reusable.
func TestProxyStreamedBodiesKeepAlive(t *testing.T) {
	tsA, _ := newRealBackend(t)
	tsB, _ := newRealBackend(t)
	_, pts, reg := newTestProxy(t, Config{
		Backends:    []string{tsA.URL, tsB.URL},
		ReplayBytes: 32 << 10,
	})

	// 512 KiB bodies, 16× the buffer; the 384 KiB held back is more than
	// net/http's own 256 KiB drain would ever swallow.
	const clients, perClient, elems, headBytes = 2, 100, 128 << 10, 128 << 10
	direct := postCompress(t, tsA.URL, rawF32Body(elems, 0), nil)
	want, _ := io.ReadAll(direct.Body)
	direct.Body.Close()

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			hc := &http.Client{Transport: &http.Transport{}}
			defer hc.CloseIdleConnections()
			for i := 0; i < perClient; i++ {
				// Request 0 of client 0 repeats the direct body; the rest
				// are fresh, so the backends' caches stay cold.
				body := rawF32Body(elems, float32(c*perClient+i))
				gate := make(chan struct{})
				req, err := http.NewRequest(http.MethodPost, pts.URL+compressQuery,
					&gatedBody{head: body[:headBytes], tail: body[headBytes:], gate: gate})
				if err != nil {
					t.Error(err)
					return
				}
				req.ContentLength = int64(len(body))
				resp, err := hc.Do(req)
				close(gate)
				if err != nil {
					t.Errorf("client %d request %d: %v", c, i, err)
					return
				}
				got, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("client %d request %d: status %d, read error %v", c, i, resp.StatusCode, err)
					return
				}
				if resp.Close {
					t.Errorf("client %d request %d: answered Connection: close", c, i)
					return
				}
				if c == 0 && i == 0 && !bytes.Equal(got, want) {
					t.Errorf("streamed response differs from the direct one (%d vs %d bytes)", len(got), len(want))
				}
			}
		}(c)
	}
	wg.Wait()
	if n := reg.Counter("proxy.midstream_aborts").Value(); n != 0 {
		t.Errorf("proxy.midstream_aborts = %d, want 0", n)
	}
}
