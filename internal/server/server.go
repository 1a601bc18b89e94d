// Package server is the cereszd serving subsystem: an HTTP front end over
// the library's zero-alloc compression hot paths. The design goal is the
// ROADMAP's "heavy traffic" shape — bounded concurrency, explicit
// backpressure, and no per-chunk heap allocations in steady state:
//
//   - a fixed worker pool owns per-worker codec state (pooled buffers +
//     the sequential CompressInto/NextInto entry points), so throughput
//     scales with cores without GC pressure;
//   - an admission queue bounds the requests waiting for a worker; when it
//     overflows the server answers 429 with a Retry-After hint instead of
//     queueing unboundedly (clients — client/ — back off and retry);
//   - request limits (body bytes, chunk elements, frame bytes) are
//     enforced before any input-sized allocation, leaning on the
//     hardened StreamReader/OpenBundleLimited decode paths;
//   - every endpoint reports request/byte counters and latency histograms
//     through internal/telemetry, so /debug/metrics exposes p50/p95/p99
//     per endpoint in the Prometheus text format.
//
// The probes, drain state, RED set, fleet-health layer and full-duplex
// drain are internal/spine's, shared with the cereszproxy tier; this
// package owns admission, the codec pool, the chunk cache and the request
// tracer.
//
// Wire format: /v1/compress turns a raw little-endian float body into the
// package's CSZF framed stream (one independently-decodable container per
// chunk — the on-disk streaming format, so a StreamReader consumes
// responses directly); /v1/decompress inverts it;
// /v1/bundle assembles a multi-field CSZB bundle (or extracts one member
// with ?field=).
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"ceresz"
	"ceresz/internal/chunkcache"
	"ceresz/internal/core"
	"ceresz/internal/cszf"
	"ceresz/internal/quant"
	"ceresz/internal/spine"
	"ceresz/internal/telemetry"
)

// Config tunes a Server. The zero value serves with GOMAXPROCS workers, a
// 2×workers admission queue, 1 GiB request bodies, 64 Ki-element chunks
// and a 1-second Retry-After hint.
type Config struct {
	// Workers is the codec pool size (0 = GOMAXPROCS). It bounds the
	// requests compressing/decompressing concurrently.
	Workers int
	// QueueDepth is how many admitted requests may wait for a worker
	// beyond the Workers executing (0 = 2×Workers, negative = 0).
	QueueDepth int
	// MaxBodyBytes caps a request body (0 = 1 GiB).
	MaxBodyBytes int64
	// MaxChunkElems caps the elements in one chunk, one decoded frame and
	// one bundle field (0 = 4 Mi elements).
	MaxChunkElems int
	// MaxFrameBytes caps a compressed frame or bundle member accepted on
	// the decode path (0 = 64 MiB).
	MaxFrameBytes int
	// ChunkElems is the compress-side default elements per frame when the
	// request does not pass ?chunk= (0 = 64 Ki).
	ChunkElems int
	// RetryAfter is the hint returned with 429/503 responses (0 = 1s).
	RetryAfter time.Duration
	// CacheBytes is the content-addressed chunk cache's memory budget
	// (value buffers plus per-entry overhead, and one spare buffer per
	// shard beyond it). It also sizes the admission table, one slot per
	// 4 KiB. 0 disables caching entirely —
	// every chunk runs the codec, exactly the pre-cache behavior.
	CacheBytes int64
	// BlockLen overrides the CereSZ block length (0 = 32, the paper's).
	BlockLen int
	// Registry receives the server's instruments (nil = telemetry.Default).
	Registry *telemetry.Registry
	// TraceEvery samples 1-in-N requests into the span rings and the
	// /debug/trace Chrome-trace export (0 = sampling off; request ids,
	// stage timings, Server-Timing trailers and RED metrics stay on).
	TraceEvery int
	// AccessLog receives one structured JSON line per finished request
	// (nil = off).
	AccessLog io.Writer
	// RollupInterval is the windowed time-series interval: the server
	// aggregates its instruments into per-interval rate/quantile windows
	// (/debug/timeseries, the _rate and _window Prometheus series) off the
	// hot path. Zero or negative leaves rollups off unless Objectives or
	// FlightDir need them (then 5s).
	RollupInterval time.Duration
	// RollupWindows is the rollup ring capacity (0 = 720 — one hour of 5s
	// windows).
	RollupWindows int
	// Objectives are the server's SLOs, evaluated over the rollup ring
	// into /debug/slo, ceresz_slo_* gauges and the readiness probe's
	// degraded detail. Build them with spine.ParseObjectives("server", …).
	Objectives []telemetry.Objective
	// SLODegradedBurn is the 5m burn rate at which an objective reports
	// degraded (0 = telemetry.DefaultDegradedBurn).
	SLODegradedBurn float64
	// FlightDir enables the anomaly-triggered flight recorder: incident
	// dumps (rollup windows + SLO state + runtime health + Chrome trace)
	// land here ("" = off).
	FlightDir string
	// FlightMinInterval rate-limits trigger-initiated incident dumps
	// (0 = 30s).
	FlightMinInterval time.Duration
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 2 * c.Workers
	}
	if c.QueueDepth < 0 {
		c.QueueDepth = 0
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 30
	}
	if c.MaxChunkElems <= 0 {
		c.MaxChunkElems = 4 << 20
	}
	if c.MaxFrameBytes <= 0 {
		c.MaxFrameBytes = 64 << 20
	}
	if c.ChunkElems <= 0 {
		c.ChunkElems = 64 << 10
	}
	if c.ChunkElems > c.MaxChunkElems {
		c.ChunkElems = c.MaxChunkElems
	}
	if c.Registry == nil {
		c.Registry = telemetry.Default
	}
	return c
}

// endpoint is one /v1/* endpoint's instruments: the spine's RED set plus
// the server's chunk counter and per-stage latency histograms.
type endpoint struct {
	*spine.RED
	ep      uint8
	chunks  *telemetry.Counter
	stageUS [numStages]*telemetry.Histogram
}

func newEndpoint(reg *telemetry.Registry, ep uint8) *endpoint {
	m := &endpoint{
		RED:    spine.NewRED(reg, "server", int(ep)),
		ep:     ep,
		chunks: spine.Counter(reg, "server", int(ep), "chunks", "Chunks (frames / bundle fields) processed."),
	}
	for st := stage(0); st < numStages; st++ {
		m.stageUS[st] = spine.Histogram(reg, "server", int(ep), stageNames[st]+"_us",
			"time spent in the "+stageNames[st]+" stage, microseconds.")
	}
	return m
}

// Server is the serving subsystem. Create with New, mount with Handler.
// The embedded spine owns readiness, drain mode and the fleet-health
// layer (Rollup, Close).
type Server struct {
	*spine.Tier
	cfg    Config
	codecs chan *codec   // worker pool: free codec state
	sem    chan struct{} // admission: executing + queued requests
	tr     *tracer       // request spans, rings, access log
	// cache memoizes per-chunk codec results (nil when Config.CacheBytes
	// is 0 — the handlers then run the exact pre-cache code path).
	cache *chunkcache.Cache
	// gauges mirror state for /debug/metrics; functional state never
	// lives in telemetry (a disabled registry makes gauges no-ops).
	inflight   *telemetry.Gauge
	queueDepth *telemetry.Gauge

	mCompress   *endpoint
	mDecompress *endpoint
	mBundle     *endpoint
}

// New returns a Server with its worker pool warm. It starts ready, so
// embedded and test servers need no SetReady call.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:         cfg,
		codecs:      make(chan *codec, cfg.Workers),
		sem:         make(chan struct{}, cfg.Workers+cfg.QueueDepth),
		tr:          newTracer(cfg.Workers+cfg.QueueDepth, cfg),
		inflight:    cfg.Registry.Gauge("server.inflight"),
		queueDepth:  cfg.Registry.Gauge("server.queue_depth"),
		mCompress:   newEndpoint(cfg.Registry, spine.Compress),
		mDecompress: newEndpoint(cfg.Registry, spine.Decompress),
		mBundle:     newEndpoint(cfg.Registry, spine.Bundle),
	}
	cfg.Registry.Describe("server.draining", "1 while the server refuses new work to drain.")
	cfg.Registry.Describe("server.inflight", "Requests currently holding a codec worker.")
	cfg.Registry.Describe("server.queue_depth", "Admitted requests waiting for a codec worker.")
	if cfg.CacheBytes > 0 {
		s.cache = chunkcache.New(cfg.CacheBytes, cfg.Registry)
	}
	for i := 0; i < cfg.Workers; i++ {
		s.codecs <- newCodec(i)
	}
	s.Tier = spine.NewTier(spine.Config{
		Registry:          cfg.Registry,
		RollupInterval:    cfg.RollupInterval,
		RollupWindows:     cfg.RollupWindows,
		Objectives:        cfg.Objectives,
		SLODegradedBurn:   cfg.SLODegradedBurn,
		FlightDir:         cfg.FlightDir,
		FlightMinInterval: cfg.FlightMinInterval,
		FlightTrace: func(buf *bytes.Buffer) error {
			return s.tr.writeChromeTrace(buf, cfg.Workers)
		},
		DrainGauge: cfg.Registry.Gauge("server.draining"),
		Ready:      s.readyDetail,
	})
	s.SetReady(true)
	return s
}

// Handler returns the server's mux: POST /v1/compress, /v1/decompress,
// /v1/bundle, the spine's probes and fleet-health views, plus the
// request-observability views /debug/requests and /debug/trace.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/v1/compress", s.admit(s.mCompress, s.handleCompress))
	mux.Handle("/v1/decompress", s.admit(s.mDecompress, s.handleDecompress))
	mux.Handle("/v1/bundle", s.admit(s.mBundle, s.handleBundle))
	s.Mount(mux)
	mux.Handle("/debug/requests", s.RequestsHandler())
	mux.Handle("/debug/trace", s.TraceHandler())
	return mux
}

// readySLODetail is one burning objective in a degraded readiness body.
type readySLODetail struct {
	Spec            string  `json:"spec"`
	BurnRate5m      float64 `json:"burn_rate_5m"`
	BudgetRemaining float64 `json:"budget_remaining"`
}

// readyDetail is the readiness body of a server that is up: "ok", or
// "degraded" with the burning objectives listed. A degraded server stays
// 200 — it still serves, and yanking it from rotation would turn a latency
// incident into an availability one.
func (s *Server) readyDetail(w http.ResponseWriter) {
	statuses, degraded := s.Burning()
	if !degraded {
		fmt.Fprintln(w, `{"status":"ok"}`)
		return
	}
	details := make([]readySLODetail, 0, len(statuses))
	for _, st := range statuses {
		if st.Degraded {
			details = append(details, readySLODetail{
				Spec:            st.Spec.Raw,
				BurnRate5m:      st.BurnRate5m,
				BudgetRemaining: st.BudgetRemaining,
			})
		}
	}
	_ = json.NewEncoder(w).Encode(struct {
		Status string           `json:"status"`
		SLO    []readySLODetail `json:"slo"`
	}{Status: "degraded", SLO: details})
}

// admit wraps an endpoint with method filtering, drain refusal, admission
// control, worker acquisition, request attribution and metrics. The
// handler runs with exclusive use of one codec, and every response —
// including refusals — carries the request's trace id.
func (s *Server) admit(m *endpoint, h func(*codec, http.ResponseWriter, *http.Request) error) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		tid, parent, self := s.tr.ids(r)
		reqID := tid.String()
		hdr := w.Header()
		hdr.Set("X-Ceresz-Request-Id", reqID)
		hdr.Set("Traceparent", "00-"+reqID+"-"+self.String()+"-01")
		if r.Method != http.MethodPost {
			hdr.Set("Allow", http.MethodPost)
			http.Error(w, "request "+reqID+": POST only", http.StatusMethodNotAllowed)
			return
		}
		if s.Draining() {
			spine.Refuse(w, http.StatusServiceUnavailable, s.cfg.RetryAfter, "request "+reqID+": draining")
			return
		}
		if r.ContentLength > s.cfg.MaxBodyBytes {
			http.Error(w, fmt.Sprintf("request %s: body %d exceeds limit %d", reqID, r.ContentLength, s.cfg.MaxBodyBytes),
				http.StatusRequestEntityTooLarge)
			return
		}
		// Admission: executing + waiting is bounded; overflow is refused
		// immediately so the client's backoff, not this process's memory,
		// absorbs the burst.
		select {
		case s.sem <- struct{}{}:
		default:
			m.Rejected.Add(1)
			m.ObserveStatus(http.StatusTooManyRequests)
			spine.Refuse(w, http.StatusTooManyRequests, s.cfg.RetryAfter, "request "+reqID+": server saturated, retry later")
			return
		}
		defer func() { <-s.sem }()

		// Admitted: claim a span slot (bounded by the semaphore, so this
		// never blocks) and declare the Server-Timing trailer before any
		// body byte makes the header section immutable.
		m.Requests.Add(1)
		sp := s.tr.acquire(tid, parent, self, m.ep, t0, r.Header.Get("X-Ceresz-Tenant"))
		sp.observe(stageAdmit, t0)
		hdr.Set("Trailer", "Server-Timing")

		s.queueDepth.Add(1)
		tWorker := time.Now()
		var c *codec
		select {
		case c = <-s.codecs:
		case <-r.Context().Done():
			// Client gave up while queued: seal the span so the slot frees.
			s.queueDepth.Add(-1)
			sp.observe(stageWorker, tWorker)
			sp.status.Store(statusClientGone)
			sp.errMsg = "client closed connection while queued"
			s.tr.finish(sp)
			return
		}
		s.queueDepth.Add(-1)
		sp.observe(stageWorker, tWorker)
		sp.mu.Lock()
		sp.worker = int32(c.id)
		sp.mu.Unlock()
		c.tr = sp
		defer func() { s.codecs <- c }()

		s.inflight.Add(1)
		defer s.inflight.Add(-1)
		// The handlers stream: they read the next body chunk after writing
		// the previous response chunk, which needs full duplex.
		rw := spine.NewWriter(w)
		err := h(c, rw, r)
		m.LatencyUS.Observe(time.Since(t0).Microseconds())
		rw.Drain(r.Body)
		if err != nil {
			m.Failures.Add(1)
			sp.errMsg = err.Error()
			writeError(rw, err, reqID)
		}
		sp.status.Store(int32(rw.Status))
		m.ObserveStatus(rw.Status)
		// Stage attribution back to the client: the Server-Timing trailer
		// rides the chunked response epilogue (set after the body, as Go
		// requires for declared trailers). Error responses written with a
		// Content-Length skip trailers; clients treat that as "no timing".
		totalNs := time.Since(t0).Nanoseconds()
		hdr.Set("Server-Timing", sp.serverTiming(totalNs))
		for st := stage(0); st < numStages; st++ {
			m.stageUS[st].Observe(sp.stageNs[st].Load() / 1e3)
		}
		s.tr.finish(sp)
		rw.Finish()
	})
}

// statusClientGone marks a request whose client disconnected while queued
// for a worker (nginx's 499 convention; no response was written).
const statusClientGone = 499

// badRequest marks parameter/body validation failures for status mapping.
type badRequest struct{ err error }

func (b badRequest) Error() string { return b.err.Error() }
func (b badRequest) Unwrap() error { return b.err }

func badRequestf(format string, args ...any) error {
	return badRequest{fmt.Errorf(format, args...)}
}

// errResponseStarted marks failures after the response body began: the
// status line is gone, so admit only counts the failure.
var errResponseStarted = errors.New("server: response already started")

// writeError maps a handler failure onto an HTTP status. Decode-limit and
// malformed-input failures are the client's fault (400/413), and so is a
// bound that resolves to no usable ε (a REL bound whose λ·range
// overflows); everything else is a 500. The request id prefixes the error
// text so a client's retry log lines correlate with the server's access
// log and span rings.
func writeError(w http.ResponseWriter, err error, reqID string) {
	if errors.Is(err, errResponseStarted) {
		return // too late for a status line; the connection is cut short
	}
	status := http.StatusInternalServerError
	var br badRequest
	var mbe *http.MaxBytesError
	switch {
	case errors.As(err, &mbe):
		status = http.StatusRequestEntityTooLarge
	case errors.As(err, &br),
		errors.Is(err, ceresz.ErrTruncated),
		errors.Is(err, ceresz.ErrFrameTooLarge),
		errors.Is(err, core.ErrBadStream),
		errors.Is(err, quant.ErrNonPositiveBound):
		status = http.StatusBadRequest
	}
	http.Error(w, "request "+reqID+": "+err.Error(), status)
}

// parseCompressParams reads a compress request's query before any body
// byte is read, and holds its chunk to this server's limit.
func (s *Server) parseCompressParams(r *http.Request) (spine.CompressParams, error) {
	p, err := spine.ParseCompress(r.URL.Query(), s.cfg.ChunkElems, s.cfg.BlockLen)
	if err != nil {
		return p, badRequest{err}
	}
	if p.ChunkElems > s.cfg.MaxChunkElems {
		return p, badRequestf("chunk %d exceeds limit %d", p.ChunkElems, s.cfg.MaxChunkElems)
	}
	return p, nil
}

// handleCompress streams CSZF frames for a raw little-endian float body:
// each ?chunk= elements become one independently decodable frame, so the
// client can pipe the response straight into a StreamReader (or to disk
// next to StreamWriter output).
func (s *Server) handleCompress(c *codec, w http.ResponseWriter, r *http.Request) error {
	p, err := s.parseCompressParams(r)
	if err != nil {
		return err
	}
	return s.stream(c, w, r, s.mCompress, "application/x-ceresz-frames", func(first bool) ([]byte, chunkcache.Handle, error) {
		n, err := c.readChunk(&c.body, p)
		if err != nil {
			return nil, chunkcache.Handle{}, err
		}
		frame, eps, h, err := s.cachedCompress(c, p, n)
		if err == nil && first {
			w.Header().Set("X-Ceresz-Eps", strconv.FormatFloat(eps, 'g', -1, 64))
		}
		return frame, h, err
	})
}

// cachedCompress produces the CSZF frame of the n-byte chunk readChunk
// left in the codec, through the cache. eps is the chunk's resolved error
// bound, from live stats on a computed frame and from the entry's metadata
// on a hit, so the X-Ceresz-Eps header is right even when the first chunk
// never runs the codec. The key's preamble holds every parameter that
// shapes the frame bytes; Workers is not one of them, because the host
// codec is byte-identical at every worker count, so one entry serves all
// parallelism levels.
func (s *Server) cachedCompress(c *codec, p spine.CompressParams, n int) ([]byte, float64, chunkcache.Handle, error) {
	frame, meta, h, err := s.cacheThrough(c, p.AppendPreamble(c.hasher.Preamble()), c.raw, func() ([]byte, chunkcache.Meta, error) {
		frame, err := c.compress(p)
		return frame, chunkcache.Meta{Eps: c.stats.Eps, SavedBytes: int64(n)}, err
	})
	return frame, meta.Eps, h, err
}

// handleDecompress inverts handleCompress: a CSZF framed body becomes raw
// little-endian floats. ?elem= must match the stream's element type
// (default f32).
func (s *Server) handleDecompress(c *codec, w http.ResponseWriter, r *http.Request) error {
	elem, err := spine.ParseElem(r.URL.Query().Get("elem"))
	if err != nil {
		return badRequest{err}
	}
	c.sr.Reset(&c.body)
	c.sr.SetLimits(s.cfg.MaxFrameBytes, s.cfg.MaxChunkElems)
	return s.stream(c, w, r, s.mDecompress, "application/octet-stream", func(bool) ([]byte, chunkcache.Handle, error) {
		return s.nextDecoded(c, elem)
	})
}

// nextDecoded reads the next frame of a decompress body (validated, not
// yet decoded: NextRaw) and returns its floats as wire bytes, through the
// cache. The payload encodes every codec parameter itself, so only the
// requested element type joins it in the key.
func (s *Server) nextDecoded(c *codec, elem spine.Elem) ([]byte, chunkcache.Handle, error) {
	payload, err := c.sr.NextRaw()
	if err != nil {
		return nil, chunkcache.Handle{}, err // io.EOF included
	}
	pre := chunkcache.AppendDecompressPreamble(c.hasher.Preamble(), elem == spine.F64)
	out, _, h, err := s.cacheThrough(c, pre, payload, func() ([]byte, chunkcache.Meta, error) {
		out, err := c.decode(payload, elem)
		return out, chunkcache.Meta{SavedBytes: int64(len(payload))}, err
	})
	return out, h, err
}

// stream runs a streaming endpoint: next produces the response chunk by
// chunk from the request body, which it reads through c.body, and first
// tells it the chunk is the response's first, while headers can still be
// set. stream writes each chunk, releases its cache pin, and keeps the
// books: the span's write stage, chunk count and bytes in and out (in as
// each chunk consumed them, so a failed request reports what it read), and
// the endpoint's volume counters. An error after the first write cannot
// change the status line: it is wrapped in errResponseStarted and cuts the
// response short.
func (s *Server) stream(c *codec, w http.ResponseWriter, r *http.Request, m *endpoint, contentType string,
	next func(first bool) ([]byte, chunkcache.Handle, error)) error {
	c.body = countingReader{r: http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), sp: c.tr}
	// An error reply sets its own Content-Type.
	w.Header().Set("Content-Type", contentType)
	var chunks int
	var out int64
	for {
		read := c.body.n
		b, h, err := next(chunks == 0)
		c.tr.bytesIn.Add(c.body.n - read)
		if err == io.EOF {
			break
		}
		if err != nil {
			if chunks > 0 {
				return fmt.Errorf("%w: chunk %d: %v", errResponseStarted, chunks, err)
			}
			return err
		}
		tw := time.Now()
		_, werr := w.Write(b)
		n := int64(len(b))
		h.Release() // b may be pinned cache memory: only now is it copied out
		if werr != nil {
			return fmt.Errorf("%w: writing chunk %d: %v", errResponseStarted, chunks, werr)
		}
		c.tr.observe(stageWrite, tw)
		c.tr.chunks.Add(1)
		c.tr.bytesOut.Add(n)
		chunks++
		out += n
	}
	s.recordVolume(m, chunks, c.body.n, out)
	return nil
}

// cacheThrough produces one chunk's response bytes through the cache. A
// chunk the cache has not seen before is only recorded (Admit) and
// computed uncached, without paying for its key. A chunk seen before gets
// the value under the key of pre and data when one is resident (or being
// computed by another request, whose result it waits for), else what
// compute returns, published under that key. The handle pins cached bytes
// until the caller Releases it, after writing them. Without a cache — or
// when the computation this chunk waited for was aborted, a failure of
// that request's input — it computes uncached. An error is never cached.
func (s *Server) cacheThrough(c *codec, pre, data []byte, compute func() ([]byte, chunkcache.Meta, error)) ([]byte, chunkcache.Meta, chunkcache.Handle, error) {
	if s.cache == nil {
		return uncached(compute)
	}
	tc := time.Now()
	if !s.cache.Admit(pre, data) {
		c.tr.observe(stageCache, tc)
		c.tr.cacheMisses.Add(1)
		return uncached(compute)
	}
	h, err := s.cache.Get(c.hasher.Key(pre, data))
	c.tr.observe(stageCache, tc)
	if err != nil {
		return uncached(compute)
	}
	if h.Outcome() != chunkcache.Miss {
		c.tr.cacheHits.Add(1)
		return h.Bytes(), h.Meta(), h, nil
	}
	c.tr.cacheMisses.Add(1)
	out, meta, err := compute()
	if err != nil {
		h.Abort()
		return nil, meta, chunkcache.Handle{}, err
	}
	h.Complete(out, meta)
	return out, meta, h, nil
}

// uncached runs compute with no cache entry behind its result.
func uncached(compute func() ([]byte, chunkcache.Meta, error)) ([]byte, chunkcache.Meta, chunkcache.Handle, error) {
	out, meta, err := compute()
	return out, meta, chunkcache.Handle{}, err
}

// countingReader counts the bytes a streaming endpoint consumed and
// attributes the read time (which includes the client's upload pacing)
// to the request's read stage, without recording chunk events: reads are
// too fine-grained for the event cap, and their sum is what the stage
// totals and the Server-Timing trailer need.
type countingReader struct {
	r  io.Reader
	n  int64
	sp *reqSpan
}

func (cr *countingReader) Read(p []byte) (int, error) {
	t0 := time.Now()
	n, err := cr.r.Read(p)
	cr.sp.stageNs[stageRead].Add(time.Since(t0).Nanoseconds())
	cr.n += int64(n)
	return n, err
}

// recordVolume publishes one request's chunk/byte accounting.
func (s *Server) recordVolume(m *endpoint, chunks int, in, out int64) {
	m.chunks.Add(int64(chunks))
	m.BytesIn.Add(in)
	m.BytesOut.Add(out)
}

// handleBundle assembles a CSZB bundle from a multi-field payload, or with
// ?field= extracts one member of a posted bundle as raw floats.
//
// The assemble request body is cszf's: a manifest section, then each
// field's raw little-endian data back-to-back in manifest order.
func (s *Server) handleBundle(c *codec, w http.ResponseWriter, r *http.Request) error {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if field := r.URL.Query().Get("field"); field != "" {
		return s.extractBundleField(c, w, body, field)
	}

	tr := time.Now()
	specs, err := cszf.ReadManifest(body)
	if err != nil {
		return badRequest{err}
	}
	c.tr.observe(stageRead, tr)

	bw := ceresz.NewBundleWriter()
	for i, spec := range specs {
		dims := spec.Grid()
		elems := dims.Len()
		if elems <= 0 || elems > s.cfg.MaxChunkElems {
			return badRequestf("field %d (%q): %d elements outside (0, %d]", i, spec.Name, elems, s.cfg.MaxChunkElems)
		}
		abs, err := spine.ParseMode(spec.Mode)
		if err != nil {
			return badRequestf("field %d (%q): %v", i, spec.Name, err)
		}
		elem, err := spine.ParseElem(spec.Elem)
		if err != nil {
			return badRequestf("field %d (%q): %v", i, spec.Name, err)
		}
		ec := elemCodecs[elem]
		tr := time.Now()
		n, err := ec.read(c, body, elems)
		if err != nil {
			return badRequestf("field %d (%q): reading %d elements: %v", i, spec.Name, elems, err)
		}
		c.tr.observe(stageRead, tr)
		c.tr.bytesIn.Add(int64(n))
		tc := time.Now()
		opts := ceresz.Options{BlockLen: s.cfg.BlockLen}
		if err := ec.addField(c, bw, spec.Name, dims, bound(abs, spec.Eps), opts); err != nil {
			return badRequest{err}
		}
		c.tr.observe(stageCodec, tc)
		c.tr.chunks.Add(1)
	}
	tc := time.Now()
	out, err := bw.Bytes()
	if err != nil {
		return badRequest{err}
	}
	c.tr.observe(stageCodec, tc)
	w.Header().Set("Content-Type", "application/x-ceresz-bundle")
	w.Header().Set("X-Ceresz-Fields", strconv.Itoa(len(specs)))
	return s.writeBundle(c, w, out, len(specs), 0)
}

// extractBundleField decompresses one member of a posted bundle.
func (s *Server) extractBundleField(c *codec, w http.ResponseWriter, body io.Reader, field string) error {
	tr := time.Now()
	raw, err := io.ReadAll(body)
	if err != nil {
		return err
	}
	c.tr.observe(stageRead, tr)
	c.tr.bytesIn.Add(int64(len(raw)))
	tc := time.Now()
	br, err := ceresz.OpenBundleLimited(raw, s.cfg.MaxFrameBytes, s.cfg.MaxChunkElems)
	if err != nil {
		return badRequest{err}
	}
	names := br.Names()
	var bf ceresz.BundleField
	for _, f := range br.Fields() {
		if f.Name == field {
			bf = f
			break
		}
	}
	if bf.Name == "" {
		return badRequestf("bundle has no field %q (have %v)", field, names)
	}
	elem := spine.Elem(bf.Elem) // the wire element types are ceresz.Elem's values
	out, err := elemCodecs[elem].readField(c, br, field)
	if err != nil {
		return badRequest{err}
	}
	c.tr.observe(stageCodec, tc)
	c.tr.chunks.Add(1)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Ceresz-Elem", elem.String())
	return s.writeBundle(c, w, out, 1, int64(len(raw)))
}

// writeBundle writes a /v1/bundle response and books it: the write stage,
// the bytes out, and the endpoint's volume (fields processed, bytes in).
func (s *Server) writeBundle(c *codec, w http.ResponseWriter, out []byte, fields int, in int64) error {
	tw := time.Now()
	if _, err := w.Write(out); err != nil {
		return fmt.Errorf("%w: writing bundle response: %v", errResponseStarted, err)
	}
	c.tr.observe(stageWrite, tw)
	c.tr.bytesOut.Add(int64(len(out)))
	s.recordVolume(s.mBundle, fields, in, int64(len(out)))
	return nil
}
