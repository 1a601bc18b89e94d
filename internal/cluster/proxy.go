package cluster

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ceresz/internal/chunkcache"
	"ceresz/internal/cszf"
	"ceresz/internal/spine"
	"ceresz/internal/telemetry"
)

// ErrPartialForward reports an upstream failure after part of a
// non-replayable request body was already forwarded: retrying would
// silently resend a request whose first delivery may have partially
// executed, so the proxy refuses and surfaces the condition instead. The
// error text rides the 502 body; clients treat the status as retryable
// and re-send the full body themselves — an end-to-end retry the client
// owns, not a silent proxy-side one.
var ErrPartialForward = errors.New("cluster: upstream failed after request body was partially forwarded; not retried")

// failoverRetries bounds ring-walk retries per request: the next distinct
// owner, once. A second hop would usually just queue behind the same
// incident; the client's own retry (with jittered backoff) covers it.
const failoverRetries = 1

// Ring weights: a healthy backend owns healthyVnodes virtual nodes; a
// degraded one stays on the ring at a quarter of that, shedding share.
const (
	healthyVnodes  = 64
	degradedVnodes = healthyVnodes / 4
)

// Config tunes a Proxy.
type Config struct {
	// Backends are the cereszd base URLs the proxy shards across.
	Backends []string
	// Workers bounds concurrently proxied requests (0 = 8×GOMAXPROCS —
	// the proxy is I/O-bound, so it runs far wider than a codec pool).
	Workers int
	// Health tunes the readiness pollers.
	Health HealthConfig
	// ReplayBytes is how much request body the proxy buffers: bodies at
	// or under it are replayable, so upstream failures fail over to the
	// next ring owner transparently; larger bodies stream past the
	// buffer and failover is refused once unbuffered bytes have been
	// forwarded (0 = 4 MiB).
	ReplayBytes int
	// ChunkElems is ignored: compress requests route without being read.
	// It stays until its last caller, the benchmark harness, stops
	// setting it.
	ChunkElems int
	// RetryAfter is the hint sent with proxy-origin 429/503 (0 = 1s).
	// Backend-origin 429s pass through with the backend's own hint.
	RetryAfter time.Duration
	// RandomRoute routes decompress requests to a random point of the
	// ring too, instead of by digest — the affinity-off baseline; failover
	// semantics are unchanged.
	RandomRoute bool
	// Registry receives the proxy's instruments (nil = telemetry.Default).
	Registry *telemetry.Registry
	// RollupInterval / Objectives are the spine's fleet-health layer, as
	// on the backend: windowed rollups over the proxy's registry (a zero
	// or negative interval leaves them off unless Objectives need them,
	// then 5s), SLOs bound with spine.ParseObjectives("proxy", …) to the
	// proxy's own RED instruments, degraded detail on readiness.
	RollupInterval time.Duration
	Objectives     []telemetry.Objective
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 8 * runtime.GOMAXPROCS(0)
	}
	if c.ReplayBytes <= 0 {
		c.ReplayBytes = 4 << 20
	}
	if c.Registry == nil {
		c.Registry = telemetry.Default
	}
	return c
}

// backend is one upstream in the proxy's fixed table.
type backend struct {
	name string   // canonical base URL (scheme://host:port, no trailing /)
	u    *url.URL // parsed once

	requests  *telemetry.Counter
	failures  *telemetry.Counter
	status2xx *telemetry.Counter
	status4xx *telemetry.Counter
	status5xx *telemetry.Counter
	latencyUS *telemetry.Histogram
}

// Proxy is the shard router. Create with New, Start the health pollers,
// mount with Handler, Close on shutdown. The embedded spine owns readiness
// (not ready until SetReady(true)), drain mode and the fleet-health layer.
type Proxy struct {
	*spine.Tier
	cfg      Config
	backends []*backend
	checker  *Checker
	// transport relays to the backends and carries the health probes: a
	// pooled clone of http.DefaultTransport sized to Config.Workers.
	transport *http.Transport
	ring      atomic.Pointer[Ring]
	// generation counts ring rebuilds; /debug/ring reports it so tests
	// and operators see churn.
	generation atomic.Int64
	// sem holds one slot per relayed request (Config.Workers of them).
	sem chan struct{}

	hashers sync.Pool // *chunkcache.Hasher
	bufs    sync.Pool // *[]byte, ReplayBytes+1 capacity
	copyBuf sync.Pool // *[]byte, 32 KiB response relay buffers

	// mEp is each endpoint's RED set, proxy.<ep>.*. The endpoints mirror
	// the backend's, so SLO subjects and the client package work
	// unchanged against either tier.
	mEp          [spine.NumEndpoints]*spine.RED
	ringRebuilds *telemetry.Counter
	failover     *telemetry.Counter
	failoverDeny *telemetry.Counter
	midstream    *telemetry.Counter
	routableG    *telemetry.Gauge
}

// New builds a Proxy over cfg.Backends (at least one required; URLs are
// normalized by trimming trailing slashes). The health checker is not
// started — call Start.
func New(cfg Config) (*Proxy, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Backends) == 0 {
		return nil, errors.New("cluster: no backends configured")
	}
	reg := cfg.Registry
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConnsPerHost = cfg.Workers
	t.MaxIdleConns = max(t.MaxIdleConns, cfg.Workers)
	t.IdleConnTimeout = 90 * time.Second
	p := &Proxy{
		cfg:          cfg,
		transport:    t,
		sem:          make(chan struct{}, cfg.Workers),
		ringRebuilds: reg.Counter("proxy.ring_rebuilds"),
		failover:     reg.Counter("proxy.failover"),
		failoverDeny: reg.Counter("proxy.failover_denied"),
		midstream:    reg.Counter("proxy.midstream_aborts"),
		routableG:    reg.Gauge("proxy.backends_routable"),
	}
	reg.Describe("proxy.ring_rebuilds", "Consistent-hash ring rebuilds (health-driven churn).")
	reg.Describe("proxy.failover", "Requests retried on the next ring owner after an upstream failure.")
	reg.Describe("proxy.failover_denied", "Upstream failures not retried because the request body was partially forwarded.")
	reg.Describe("proxy.midstream_aborts", "Client connections cut after an upstream died mid-response.")
	reg.Describe("proxy.backends_routable", "Backends currently on the ring (healthy + degraded).")
	for ep := range spine.NumEndpoints {
		p.mEp[ep] = spine.NewRED(reg, "proxy", ep)
	}
	seen := make(map[string]bool, len(cfg.Backends))
	for i, raw := range cfg.Backends {
		name := strings.TrimRight(strings.TrimSpace(raw), "/")
		u, err := url.Parse(name)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("cluster: backend %q is not an absolute URL", raw)
		}
		if seen[name] {
			return nil, fmt.Errorf("cluster: backend %q listed twice", name)
		}
		seen[name] = true
		label := "b" + strconv.Itoa(i)
		b := &backend{
			name:      name,
			u:         u,
			requests:  reg.Counter("proxy.backend." + label + ".requests"),
			failures:  reg.Counter("proxy.backend." + label + ".failures"),
			status2xx: reg.Counter("proxy.backend." + label + ".status_2xx"),
			status4xx: reg.Counter("proxy.backend." + label + ".status_4xx"),
			status5xx: reg.Counter("proxy.backend." + label + ".status_5xx"),
			latencyUS: reg.Histogram("proxy.backend." + label + ".latency_us"),
		}
		for _, suffix := range []string{"requests", "failures", "status_2xx", "status_4xx", "status_5xx", "latency_us"} {
			reg.Describe("proxy.backend."+label+"."+suffix,
				"Backend "+name+": per-backend "+suffix+" seen by the proxy.")
		}
		p.backends = append(p.backends, b)
	}
	urls := make([]string, len(p.backends))
	for i, b := range p.backends {
		urls[i] = b.name
	}
	p.checker = newChecker(urls, cfg.Health, &http.Client{Transport: t}, p.rebuild)
	p.hashers.New = func() any { return chunkcache.NewHasher() }
	p.bufs.New = func() any {
		b := make([]byte, 0, cfg.ReplayBytes+1)
		return &b
	}
	p.copyBuf.New = func() any {
		b := make([]byte, 32<<10)
		return &b
	}
	p.rebuild()
	p.Tier = spine.NewTier(spine.Config{
		Registry:       reg,
		RollupInterval: cfg.RollupInterval,
		Objectives:     cfg.Objectives,
		Ready:          p.readyDetail,
	})
	return p, nil
}

// Start launches the health pollers (one probe round fires immediately).
func (p *Proxy) Start() { p.checker.Start() }

// Close stops the health pollers and the rollup ticker.
func (p *Proxy) Close() {
	p.checker.Stop()
	p.Tier.Close()
}

// Checker exposes the health checker (tests and embedders).
func (p *Proxy) Checker() *Checker { return p.checker }

// Ring returns the current ring (atomically consistent snapshot).
func (p *Proxy) Ring() *Ring { return p.ring.Load() }

// rebuild recomputes the ring from current backend states. Healthy
// backends carry full weight, degraded ones a quarter of it, everything
// else leaves the ring. The swap is atomic: requests that already
// resolved an owner keep it, so churn never drops in-flight work.
func (p *Proxy) rebuild() {
	nodes := make([]Node, 0, len(p.backends))
	routable := 0
	for i, b := range p.backends {
		w := weight(p.checker.State(i))
		if w > 0 {
			routable++
		}
		nodes = append(nodes, Node{Index: i, Name: b.name, Weight: w})
	}
	p.ring.Store(BuildRing(nodes))
	p.generation.Add(1)
	p.ringRebuilds.Add(1)
	p.routableG.Set(int64(routable))
}

// weight is the ring weight of a backend in state st: full when healthy,
// a quarter when degraded, off the ring otherwise.
func weight(st BackendState) int {
	switch st {
	case StateHealthy:
		return healthyVnodes
	case StateDegraded:
		return degradedVnodes
	}
	return 0
}

// Handler returns the proxy's mux: the /v1/* shard router, the spine's
// probes and fleet-health views, and /debug/ring.
func (p *Proxy) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/", p.serveProxy)
	p.Mount(mux)
	mux.HandleFunc("/debug/ring", p.handleRing)
	return mux
}

// readyDetail is the readiness body of a proxy that is up: 503 with an
// empty ring (nothing to route to), degraded when some backends are off
// the ring or a proxy-tier SLO is burning, ok otherwise.
func (p *Proxy) readyDetail(w http.ResponseWriter) {
	routable := len(p.ring.Load().Members())
	if routable == 0 {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"status":"no-backends"}`)
		return
	}
	status := "ok"
	if _, burning := p.Burning(); burning || routable < len(p.backends) {
		status = "degraded"
	}
	_ = json.NewEncoder(w).Encode(struct {
		Status   string `json:"status"`
		Routable int    `json:"routable"`
		Total    int    `json:"total"`
	}{status, routable, len(p.backends)})
}

// endpointOf maps a /v1/* path to its endpoint index (-1 = unknown).
func endpointOf(path string) int {
	name, ok := strings.CutPrefix(path, "/v1/")
	if !ok {
		return -1
	}
	return slices.Index(spine.Endpoints[:], name)
}

// serveProxy is the shard router: bounded admission, decompress digest
// routing, streaming forward with bounded failover.
func (p *Proxy) serveProxy(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	ep := endpointOf(r.URL.Path)
	if ep < 0 {
		http.NotFound(w, r)
		return
	}
	m := p.mEp[ep]
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "proxy: POST only", http.StatusMethodNotAllowed)
		m.ObserveStatus(http.StatusMethodNotAllowed)
		return
	}
	if p.Draining() {
		spine.Refuse(w, http.StatusServiceUnavailable, p.cfg.RetryAfter, "proxy: draining")
		m.ObserveStatus(http.StatusServiceUnavailable)
		return
	}
	// Admission, as on the backend: relays are bounded and overflow is
	// refused immediately, so the client's backoff absorbs the burst.
	select {
	case p.sem <- struct{}{}:
	default:
		m.Rejected.Add(1)
		m.ObserveStatus(http.StatusTooManyRequests)
		spine.Refuse(w, http.StatusTooManyRequests, p.cfg.RetryAfter, "proxy: saturated, retry later")
		return
	}
	defer func() { <-p.sem }()
	m.Requests.Add(1)

	// A body longer than the replay buffer is read by the transport while
	// the response is relayed, which needs full duplex.
	rw := spine.NewWriter(w)
	p.forward(rw, r, ep)
	m.ObserveStatus(rw.Status)
	m.LatencyUS.Observe(time.Since(t0).Microseconds())
	rw.Drain(r.Body)
	rw.Finish()
}

// prefixReader tracks whether any bytes beyond the buffered prefix were
// consumed — the replayability test for failover.
type prefixReader struct {
	r        io.Reader
	consumed atomic.Int64
}

func (pr *prefixReader) Read(b []byte) (int, error) {
	n, err := pr.r.Read(b)
	pr.consumed.Add(int64(n))
	return n, err
}

// flushWriter flushes after every write so frames stream to the client
// as they arrive from the backend instead of pooling in proxy buffers.
type flushWriter struct {
	w  http.ResponseWriter
	rc *http.ResponseController
	n  int64
}

func (fw *flushWriter) Write(b []byte) (int, error) {
	n, err := fw.w.Write(b)
	fw.n += int64(n)
	if n > 0 {
		_ = fw.rc.Flush()
	}
	return n, err
}

// hopHeaders never cross the proxy (RFC 9110 §7.6.1; Trailer is handled
// explicitly).
var hopHeaders = map[string]bool{
	"Connection": true, "Keep-Alive": true, "Proxy-Connection": true,
	"Te": true, "Transfer-Encoding": true, "Upgrade": true, "Trailer": true,
}

// copyHeaders copies src's end-to-end fields into dst: everything but the
// fixed hop-by-hop set, Content-Length, and the fields src's own
// Connection header names, which RFC 9110 §7.6.1 makes hop-by-hop too.
func copyHeaders(dst, src http.Header) {
	conn := src["Connection"]
	for k, vv := range src {
		if hopHeaders[http.CanonicalHeaderKey(k)] || k == "Content-Length" || namedByConnection(conn, k) {
			continue
		}
		dst[k] = append([]string(nil), vv...)
	}
}

// namedByConnection reports whether field k is listed in the Connection
// header values conn.
func namedByConnection(conn []string, k string) bool {
	for _, v := range conn {
		for _, f := range strings.Split(v, ",") {
			if strings.EqualFold(strings.TrimSpace(f), k) {
				return true
			}
		}
	}
	return false
}

// forward buffers the replay prefix, resolves the ring owner(s) and
// relays the request, failing over once when the body is replayable.
// The status relayed (or originated) is left in w.Status.
func (p *Proxy) forward(w *spine.Writer, r *http.Request, ep int) {
	bufp := p.bufs.Get().(*[]byte)
	defer p.bufs.Put(bufp)
	prefix, fullyBuffered, err := readPrefix(r.Body, (*bufp)[:cap(*bufp)])
	if err != nil {
		http.Error(w, "proxy: reading request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	w.Streaming = !fullyBuffered

	key, ok := p.routeKey(ep, r.URL.Query(), prefix)
	if !ok {
		// An unkeyed request lands on a random point of the weighted ring,
		// so a degraded backend's quarter weight sheds its share here too.
		binary.BigEndian.PutUint64(key[:8], rand.Uint64())
	}
	owners := p.ring.Load().Owners(key, 1+failoverRetries)
	if len(owners) == 0 {
		spine.Refuse(w, http.StatusServiceUnavailable, p.cfg.RetryAfter, "proxy: no routable backends")
		return
	}

	rest := &prefixReader{r: r.Body}
	var lastErr error
	for attempt, bi := range owners {
		if attempt > 0 {
			if !fullyBuffered && rest.consumed.Load() > 0 {
				// Part of the one-shot body is gone: a retry would resend
				// a different (truncated-prefix) request. Refuse loudly.
				p.failoverDeny.Add(1)
				p.mEp[ep].Failures.Add(1)
				http.Error(w, "proxy: "+ErrPartialForward.Error()+": "+lastErr.Error(), http.StatusBadGateway)
				return
			}
			p.failover.Add(1)
		}
		if p.attempt(w, r, ep, bi, prefix, rest, fullyBuffered, &lastErr) {
			return
		}
	}
	p.mEp[ep].Failures.Add(1)
	msg := "proxy: all ring owners failed"
	if lastErr != nil {
		msg += ": " + lastErr.Error()
	}
	http.Error(w, msg, http.StatusBadGateway)
}

// attempt relays the request to backend bi. done=false means the caller
// may fail over (no response bytes have reached the client).
func (p *Proxy) attempt(w *spine.Writer, r *http.Request, ep, bi int, prefix []byte, rest *prefixReader, fullyBuffered bool, lastErr *error) (done bool) {
	b := p.backends[bi]
	t0 := time.Now()
	b.requests.Add(1)

	var body io.Reader = bytes.NewReader(prefix)
	if !fullyBuffered {
		body = io.MultiReader(bytes.NewReader(prefix), rest)
	}
	outURL := *b.u
	outURL.Path = r.URL.Path
	outURL.RawQuery = r.URL.RawQuery
	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost, outURL.String(), body)
	if err != nil {
		*lastErr = err
		b.failures.Add(1)
		return false
	}
	copyHeaders(req.Header, r.Header)
	if fullyBuffered {
		req.ContentLength = int64(len(prefix))
	} else {
		req.ContentLength = r.ContentLength // -1 streams chunked
	}

	resp, err := p.transport.RoundTrip(req)
	if err != nil {
		*lastErr = err
		b.failures.Add(1)
		p.checker.ReportFailure(bi, err)
		return false
	}
	if resp.StatusCode >= 500 {
		// Upstream errored before streaming anything to the client; a
		// bounded drain keeps the connection reusable, then fail over.
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		resp.Body.Close()
		b.status5xx.Add(1)
		b.latencyUS.Observe(time.Since(t0).Microseconds())
		*lastErr = fmt.Errorf("backend %s answered %d: %s", b.name, resp.StatusCode, bytes.TrimSpace(msg))
		return false
	}

	// 2xx/3xx/4xx relay as-is — 429s carry the backend's own Retry-After
	// through untouched, so backend backpressure reaches the client with
	// its original hint.
	p.checker.ReportSuccess(bi)
	defer resp.Body.Close()
	copyHeaders(w.Header(), resp.Header)
	if len(resp.Trailer) > 0 {
		names := make([]string, 0, len(resp.Trailer))
		for k := range resp.Trailer {
			names = append(names, k)
		}
		w.Header().Set("Trailer", strings.Join(names, ", "))
	}
	w.WriteHeader(resp.StatusCode)

	fw := &flushWriter{w: w, rc: http.NewResponseController(w)}
	cbp := p.copyBuf.Get().(*[]byte)
	_, cerr := io.CopyBuffer(fw, resp.Body, *cbp)
	p.copyBuf.Put(cbp)
	p.mEp[ep].BytesIn.Add(int64(len(prefix)) + rest.consumed.Load())
	p.mEp[ep].BytesOut.Add(fw.n)
	switch {
	case resp.StatusCode < 300:
		b.status2xx.Add(1)
	case resp.StatusCode < 500:
		b.status4xx.Add(1)
	}
	b.latencyUS.Observe(time.Since(t0).Microseconds())
	if cerr != nil {
		// The upstream died mid-response with bytes already relayed; the
		// client must see a broken transfer, not a silently truncated 200.
		// The request still counts: a failed relay, a 502 for the err SLI.
		p.midstream.Add(1)
		p.checker.ReportFailure(bi, cerr)
		p.mEp[ep].Failures.Add(1)
		w.Status = http.StatusBadGateway
		w.Abort()
		return true
	}
	for k, vv := range resp.Trailer {
		for _, v := range vv {
			w.Header().Set(k, v)
		}
	}
	return true
}

// readPrefix fills buf from r. fullyBuffered reports that the body ended
// within the buffer — the whole request is replayable from prefix alone.
// (buf is ReplayBytes+1 long, so a full buffer means "more is coming".)
func readPrefix(r io.Reader, buf []byte) (prefix []byte, fullyBuffered bool, err error) {
	n, err := io.ReadFull(r, buf)
	switch err {
	case nil:
		return buf[:n], false, nil
	case io.EOF, io.ErrUnexpectedEOF:
		return buf[:n], true, nil
	default:
		return nil, false, err
	}
}

// routeKey derives the ring key of a decompress request: its first
// frame's payload under the exact internal/chunkcache key layout and key
// definition (Hasher.Key) the backends address decoded frames with, so a
// frame's route and its cache key agree and repeats land on the node
// already holding them. ok is false for everything else — compress and
// bundle requests, a decompress request whose elem or first frame the
// proxy cannot read, and every request under RandomRoute — which forward
// places at a random point of the ring: no backend caches compress
// output, and keying a raw chunk would cost more than the backend spends
// compressing it.
func (p *Proxy) routeKey(ep int, q url.Values, prefix []byte) (key chunkcache.Key, ok bool) {
	if ep != spine.Decompress || p.cfg.RandomRoute {
		return key, false
	}
	elem, err := spine.ParseElem(q.Get("elem"))
	if err != nil {
		return key, false
	}
	payload, ok := cszf.FirstPayload(prefix)
	if !ok {
		return key, false
	}
	h := p.hashers.Get().(*chunkcache.Hasher)
	defer p.hashers.Put(h)
	return h.Key(chunkcache.AppendDecompressPreamble(h.Preamble(), elem == spine.F64), payload), true
}
