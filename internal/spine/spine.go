// Package spine is the serving scaffolding cereszd (internal/server) and
// cereszproxy (internal/cluster) share, parameterised by the tier's
// instrument prefix ("server" or "proxy"):
//
//   - the RED instrument set of each /v1/* endpoint and the SLO objective
//     binding over it (NewRED, ParseObjectives);
//   - start-up and drain state with the /healthz, /healthz/live and
//     /healthz/ready probes, the tier supplying only its readiness detail;
//   - the fleet-health layer — rollups, SLO engine, flight recorder — and
//     its /debug views (Tier);
//   - the Retry-After refusal (Refuse);
//   - the full-duplex response writer and its bounded post-handler drain
//     (Writer);
//   - the /v1 query grammar and the cache-key preamble it resolves to
//     (ParseCompress, ParseElem, ParseMode);
//   - the daemon lifecycle both commands run (Daemon).
//
// Policy stays with the tiers: admission (the server's semaphore and codec
// pool, the proxy's relay semaphore), which refusals before admission
// count in the RED set, and the server's request tracer.
package spine

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync/atomic"
	"time"

	"ceresz/internal/telemetry"
)

// The /v1/* endpoints every tier serves, as indexes into per-endpoint
// instrument sets and span records.
const (
	Compress = iota
	Decompress
	Bundle
	NumEndpoints
)

// Endpoints names them: /v1/<name> is the path, <prefix>.<name>.* the
// instruments and <name> the SLO subject.
var Endpoints = [NumEndpoints]string{"compress", "decompress", "bundle"}

// name is the instrument <prefix>.<endpoint>.<suffix>.
func name(prefix string, ep int, suffix string) string {
	return prefix + "." + Endpoints[ep] + "." + suffix
}

// Counter registers the counter name(prefix, ep, suffix) with its help text.
func Counter(reg *telemetry.Registry, prefix string, ep int, suffix, help string) *telemetry.Counter {
	describe(reg, prefix, ep, suffix, help)
	return reg.Counter(name(prefix, ep, suffix))
}

// Histogram registers the histogram name(prefix, ep, suffix) with its help
// text.
func Histogram(reg *telemetry.Registry, prefix string, ep int, suffix, help string) *telemetry.Histogram {
	describe(reg, prefix, ep, suffix, help)
	return reg.Histogram(name(prefix, ep, suffix))
}

func describe(reg *telemetry.Registry, prefix string, ep int, suffix, help string) {
	reg.Describe(name(prefix, ep, suffix), "/v1/"+Endpoints[ep]+" ("+prefix+"): "+help)
}

// RED is one endpoint's rate / errors / duration set.
type RED struct {
	Requests  *telemetry.Counter
	Failures  *telemetry.Counter
	Rejected  *telemetry.Counter
	Status2xx *telemetry.Counter
	Status4xx *telemetry.Counter
	Status5xx *telemetry.Counter
	BytesIn   *telemetry.Counter
	BytesOut  *telemetry.Counter
	LatencyUS *telemetry.Histogram
}

// NewRED registers endpoint ep's RED set on the prefix tier.
func NewRED(reg *telemetry.Registry, prefix string, ep int) *RED {
	c := func(suffix, help string) *telemetry.Counter { return Counter(reg, prefix, ep, suffix, help) }
	return &RED{
		Requests:  c("requests", "Requests admitted past admission control."),
		Failures:  c("failures", "Admitted requests that failed: a handler error, or no upstream owner could serve them."),
		Rejected:  c("rejected", "Requests refused with 429 by admission control."),
		Status2xx: c("status_2xx", "Responses with a 2xx status."),
		Status4xx: c("status_4xx", "Responses with a 4xx status (429 refusals included)."),
		Status5xx: c("status_5xx", "Responses with a 5xx status."),
		BytesIn:   c("bytes_in", "Request body bytes consumed."),
		BytesOut:  c("bytes_out", "Response body bytes written."),
		LatencyUS: Histogram(reg, prefix, ep, "latency_us", "End-to-end request latency in microseconds."),
	}
}

// ObserveStatus counts one response in its status class.
func (m *RED) ObserveStatus(code int) {
	switch {
	case code >= 200 && code < 300:
		m.Status2xx.Add(1)
	case code >= 400 && code < 500:
		m.Status4xx.Add(1)
	case code >= 500:
		m.Status5xx.Add(1)
	}
}

// ParseObjectives parses a comma-separated SLO spec list
// ("compress:p99<25ms:99.9,decompress:err:99.99") and binds each objective
// to the prefix tier's instruments of its subject endpoint: latency SLIs
// read <prefix>.<ep>.latency_us, error SLIs the requests / status_5xx
// counter pair. An unknown subject is an error — a typo'd endpoint would
// otherwise evaluate forever against an instrument that never fires.
func ParseObjectives(prefix, raw string) ([]telemetry.Objective, error) {
	specs, err := telemetry.ParseSLOSpecs(raw)
	if err != nil {
		return nil, err
	}
	objs := make([]telemetry.Objective, 0, len(specs))
	for _, spec := range specs {
		ep := slices.Index(Endpoints[:], spec.Subject)
		if ep < 0 {
			return nil, fmt.Errorf("slo %q: unknown endpoint %q (have %v)", spec.Raw, spec.Subject, Endpoints)
		}
		o := telemetry.Objective{Spec: spec}
		if spec.SLI == "err" {
			o.TotalCounter, o.BadCounter = name(prefix, ep, "requests"), name(prefix, ep, "status_5xx")
		} else {
			o.HistName = name(prefix, ep, "latency_us")
		}
		objs = append(objs, o)
	}
	return objs, nil
}

// defaultRollupInterval is the rollup cadence objectives and the flight
// recorder switch on when the tier asks for no positive interval.
const defaultRollupInterval = 5 * time.Second

// Config is what a tier hands NewTier.
type Config struct {
	// Registry holds the tier's instruments; rollups window it.
	Registry *telemetry.Registry
	// RollupInterval and RollupWindows shape the windowed time series.
	// Objectives or a FlightDir need windows, so either turns rollups on
	// at defaultRollupInterval unless the interval is positive; without
	// them a positive interval turns rollups on and anything else leaves
	// them off.
	RollupInterval time.Duration
	RollupWindows  int
	// Objectives are evaluated over the rollup ring into /debug/slo, the
	// ceresz_slo_* gauges and readiness (Burning).
	Objectives      []telemetry.Objective
	SLODegradedBurn float64
	// FlightDir turns the incident flight recorder on ("" = off);
	// FlightMinInterval rate-limits its dumps and FlightTrace renders the
	// Chrome trace each incident carries.
	FlightDir         string
	FlightMinInterval time.Duration
	FlightTrace       func(*bytes.Buffer) error
	// DrainGauge mirrors drain mode for /debug/metrics (nil = none).
	DrainGauge *telemetry.Gauge
	// Ready writes the readiness body once the tier is neither starting
	// nor draining, with a 503 status first when it cannot serve.
	Ready func(http.ResponseWriter)
}

// Tier is the state and the views both tiers serve alike: start-up and
// drain flags, the three health probes, /debug/metrics and the
// fleet-health layer. The tiers embed it.
type Tier struct {
	reg        *telemetry.Registry
	ready      atomic.Bool
	draining   atomic.Bool
	drainGauge *telemetry.Gauge
	detail     func(http.ResponseWriter)

	// rollup / slo / flight are nil while their layer is off; the serving
	// path never consults them.
	rollup *telemetry.Rollup
	slo    *telemetry.SLOEngine
	flight *telemetry.FlightRecorder
}

// NewTier builds a tier's spine, not yet ready, with its rollup ticker
// running when rollups are on.
func NewTier(cfg Config) *Tier {
	t := &Tier{reg: cfg.Registry, drainGauge: cfg.DrainGauge, detail: cfg.Ready}
	interval := cfg.RollupInterval
	if interval <= 0 && (len(cfg.Objectives) > 0 || cfg.FlightDir != "") {
		interval = defaultRollupInterval
	}
	if interval <= 0 {
		return t
	}
	t.rollup = telemetry.NewRollup(cfg.Registry, telemetry.RollupConfig{Interval: interval, Windows: cfg.RollupWindows})
	if len(cfg.Objectives) > 0 {
		t.slo = telemetry.NewSLOEngine(t.rollup, cfg.Objectives, cfg.SLODegradedBurn)
	}
	if cfg.FlightDir != "" {
		t.flight = telemetry.NewFlightRecorder(telemetry.FlightConfig{
			Dir:         cfg.FlightDir,
			MinInterval: cfg.FlightMinInterval,
		}, t.rollup, t.slo, cfg.FlightTrace)
	}
	t.rollup.Start()
	return t
}

// Close stops the rollup ticker. The handlers keep working — Close is
// goroutine hygiene, not drain (SetDraining owns that).
func (t *Tier) Close() {
	if t.rollup != nil {
		t.rollup.Stop()
	}
}

// Rollup returns the windowed time-series layer, nil when rollups are off.
func (t *Tier) Rollup() *telemetry.Rollup { return t.rollup }

// Burning evaluates the objectives and reports whether any burns its
// budget fast enough to degrade readiness (false without objectives).
func (t *Tier) Burning() ([]telemetry.SLOStatus, bool) {
	if t.slo == nil {
		return nil, false
	}
	return t.slo.Degraded()
}

// SetReady flips start-up readiness: until true, /healthz/ready answers
// 503 "starting", so a poller that sees 200 can send traffic at once.
func (t *Tier) SetReady(on bool) { t.ready.Store(on) }

// SetDraining flips drain mode: readiness answers 503 "draining" so load
// balancers stop routing here, and the tier refuses new /v1/* work with
// Retry-After while in-flight requests finish (http.Server.Shutdown waits
// for those).
func (t *Tier) SetDraining(on bool) {
	t.draining.Store(on)
	v := int64(0)
	if on {
		v = 1
	}
	t.drainGauge.Set(v)
}

// Draining reports drain mode.
func (t *Tier) Draining() bool { return t.draining.Load() }

// Mount registers the probes, /debug/metrics and the fleet-health views
// on a tier's mux. The views answer 404 while their layer is off, so a
// probe tells "off" from "wrong path".
func (t *Tier) Mount(mux *http.ServeMux) {
	mux.HandleFunc("/healthz", t.serveReady) // alias of /healthz/ready
	mux.HandleFunc("/healthz/live", serveLive)
	mux.HandleFunc("/healthz/ready", t.serveReady)
	mux.Handle("/debug/metrics", t.reg.MetricsHandler())
	timeseries, slo := notConfigured("rollup time series"), notConfigured("slo objectives")
	flight, dump := notConfigured("flight recorder"), notConfigured("flight recorder")
	if t.rollup != nil {
		timeseries = t.rollup.Handler()
	}
	if t.slo != nil {
		slo = t.slo.Handler()
	}
	if t.flight != nil {
		flight, dump = t.flight.StatusHandler(), t.flight.DumpHandler()
	}
	mux.Handle("/debug/timeseries", timeseries)
	mux.Handle("/debug/slo", slo)
	mux.Handle("/debug/flight", flight)
	mux.Handle("/debug/flight/dump", dump)
}

// fleetViews are the /debug paths Mount serves beside /debug/metrics.
var fleetViews = []string{"/debug/timeseries", "/debug/slo", "/debug/flight", "/debug/flight/dump"}

func notConfigured(what string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, what+" not configured", http.StatusNotFound)
	})
}

// serveLive is the liveness probe: 200 whenever the process answers at
// all — restarting a draining-but-alive daemon would lose its in-flight
// requests, so drain state must not look dead.
func serveLive(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, `{"status":"alive"}`)
}

// serveReady is the readiness probe: 503 before the daemon's listener
// accepts and while draining, the tier's own detail otherwise.
func (t *Tier) serveReady(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	switch {
	case t.Draining():
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"status":"draining"}`)
	case !t.ready.Load():
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"status":"starting"}`)
	default:
		t.detail(w)
	}
}

// retryAfter renders d as a Retry-After value: whole seconds rounded up,
// at least 1 — so a zero hint reads as the 1s default.
func retryAfter(d time.Duration) string {
	return strconv.Itoa(max(1, int((d+time.Second-1)/time.Second)))
}

// Refuse answers code with msg and a Retry-After hint of d.
func Refuse(w http.ResponseWriter, code int, d time.Duration, msg string) {
	w.Header().Set("Retry-After", retryAfter(d))
	http.Error(w, msg, code)
}

// MaxPostDrainBytes bounds how much request body a handler left unread
// Writer.Drain consumes to keep the connection reusable (net/http's own
// post-handler drain uses the same figure). Past it the connection closes.
const MaxPostDrainBytes = 256 << 10

// Writer is the response side of one full-duplex request. It records
// whether the response has started and the status that went out (for the
// RED counters and span records). For a request whose body may still be
// streaming in (Streaming), an error status goes out with
// Connection: close — nobody will read the rest of that body, and that is
// what net/http did for such replies by itself before full duplex.
// Unwrap keeps http.NewResponseController working.
type Writer struct {
	http.ResponseWriter
	Status    int // the first status written; 200 until then
	Streaming bool
	started   bool
	closing   bool // Connection: close went out with the reply
	cut       bool // Drain left body unread
}

// NewWriter wraps w with full duplex on. The tiers read the request body
// while the response streams: the server reads chunk N+1 after writing
// frame N, the proxy's transport forwards the body tail while the first
// frames relay back. HTTP/1.x servers otherwise close the body for reads
// once the response starts flushing, or consume the unread body themselves
// before the first response byte. Best effort — recorders and HTTP/2
// decline.
func NewWriter(w http.ResponseWriter) *Writer {
	rw := &Writer{ResponseWriter: w, Status: http.StatusOK}
	_ = http.NewResponseController(rw).EnableFullDuplex()
	return rw
}

func (w *Writer) WriteHeader(code int) {
	if !w.started {
		w.Status = code
		if w.Streaming && code >= 300 {
			w.Header().Set("Connection", "close")
			w.closing = true
		}
	}
	w.started = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *Writer) Write(b []byte) (int, error) {
	w.started = true
	return w.ResponseWriter.Write(b)
}

func (w *Writer) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// Drain consumes what the handler left of body, at most MaxPostDrainBytes.
// Full duplex turns off net/http's own post-handler drain, and a body left
// short of EOF breaks the next request on the connection (the deferred
// background read starts only once a read hits EOF, which reqBody.Close
// triggers after finishRequest already aborted pending reads — the next
// request's Peek then panics net/http). Past the cap the connection must
// not be reused: Drain marks it with Connection: close while the response
// has not started, and Finish cuts it. A reply already sent with
// Connection: close needs no drain.
func (w *Writer) Drain(body io.Reader) {
	if w.closing {
		return
	}
	if n, _ := io.Copy(io.Discard, io.LimitReader(body, MaxPostDrainBytes+1)); n > MaxPostDrainBytes {
		if !w.started {
			w.Header().Set("Connection", "close")
		}
		w.cut = true
	}
}

// Finish ends a request Drain found too much body on once the response has
// started: the close hint is no longer expressible, and
// http.ErrAbortHandler is the sanctioned way to cut the connection. Call
// it last, after the request's bookkeeping.
func (w *Writer) Finish() {
	if w.cut && w.started {
		panic(http.ErrAbortHandler)
	}
}
