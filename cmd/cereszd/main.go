// Command cereszd serves the CereSZ codec over HTTP: raw float bodies in,
// CSZF framed streams out (and back), with a bounded worker pool, explicit
// backpressure and a zero-allocation per-chunk hot path (internal/server).
//
// Endpoints:
//
//	POST /v1/compress    raw little-endian floats -> CSZF framed stream
//	                     (?mode=abs|rel&eps=&elem=f32|f64&chunk=N&block=N)
//	POST /v1/decompress  CSZF framed stream -> raw floats (?elem=f32|f64)
//	POST /v1/bundle      multi-field payload -> CSZB bundle (?field= extracts)
//	GET  /healthz        readiness (alias of /healthz/ready)
//	GET  /healthz/live   liveness: 200 while the process is up
//	GET  /healthz/ready  readiness: 503 before the listener accepts and
//	                     while draining, 200 otherwise
//	GET  /debug/metrics  Prometheus text metrics (also /debug/pprof/*)
//	GET  /debug/timeseries  windowed rollups: per-interval rates, deltas
//	                        and quantiles over the recent ring
//	GET  /debug/slo      SLO evaluation: compliance, error budget, 5m/1h
//	                     burn rates per objective (-slo)
//	GET  /debug/flight   flight-recorder status; POST /debug/flight/dump
//	                     forces an incident dump (-flight-dir)
//
// On SIGINT/SIGTERM the daemon flips /healthz to 503, refuses new /v1/*
// work with Retry-After, and waits up to 30s for in-flight requests before
// exiting.
//
// Flags:
//
//	-addr host:port        listen address (default :8775)
//	-workers N             codec pool size (0 = GOMAXPROCS)
//	-queue N               admission queue beyond executing workers
//	                       (0 = 2x workers, negative = none)
//	-chunk N               default elements per compressed frame
//	-max-body BYTES        request body cap
//	-max-chunk-elems N     per-chunk / per-frame / per-field element cap
//	-retry-after DUR       hint sent with 429/503 responses
//	-cache-bytes BYTES     content-addressed chunk-cache budget: repeated
//	                       decompress frames are served from memory
//	                       instead of re-running the codec (0 = caching
//	                       off)
//	-trace-sample N        trace 1-in-N requests into the span rings and
//	                       /debug/trace (0 = tracing off; IDs, RED metrics
//	                       and Server-Timing trailers stay on regardless)
//	-access-log PATH       structured JSON access log ("-" = stderr,
//	                       "" = off)
//	-rollup-interval DUR   windowed time-series interval (default 5s; zero
//	                       or negative = rollups off, unless -slo or
//	                       -flight-dir needs them: then 5s)
//	-slo SPECS             comma-separated objectives, each
//	                       <endpoint>:p<q><<dur>:<target%> (latency) or
//	                       <endpoint>:err:<target%> (error rate), e.g.
//	                       "compress:p99<25ms:99.9,decompress:err:99.99"
//	-flight-dir PATH       enable the anomaly-triggered flight recorder;
//	                       incident dumps (rollup windows, SLO state,
//	                       runtime health, Chrome trace) land here
//	-flight-min-interval DUR  dump rate limit (0 = 30s)
//
// Request observability rides on every response: X-Ceresz-Request-Id and
// Traceparent headers echo the request's identity, and a Server-Timing
// trailer carries per-stage server timings. /debug/requests snapshots
// in-flight requests plus the 32 slowest; /debug/trace exports the 256
// most recent sampled request spans as Chrome trace-events for Perfetto.
// The access log gets one line per finished request, tagged with its
// X-Ceresz-Tenant id when the client sent one.
//
// The probes, drain sequence, fleet-health views and the flags shared with
// cereszproxy come from internal/spine.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"ceresz/internal/server"
	"ceresz/internal/spine"
	"ceresz/internal/telemetry"
)

func main() {
	d := spine.NewDaemon("cereszd", "server", ":8775")
	workers := flag.Int("workers", 0, "codec pool size (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "admission queue depth beyond workers (0 = 2x workers, negative = none)")
	chunk := flag.Int("chunk", 0, "default elements per compressed frame (0 = 64Ki)")
	maxBody := flag.Int64("max-body", 0, "request body byte cap (0 = 1GiB)")
	maxChunkElems := flag.Int("max-chunk-elems", 0, "chunk/frame/field element cap (0 = 4Mi)")
	cacheBytes := flag.Int64("cache-bytes", 0, "content-addressed chunk-cache memory budget in bytes (0 = caching off)")
	traceSample := flag.Int("trace-sample", 0, "trace 1-in-N requests into the span rings (0 = off)")
	accessLog := flag.String("access-log", "", "structured JSON access log path (\"-\" = stderr, \"\" = off)")
	flightDir := flag.String("flight-dir", "", "directory for anomaly-triggered incident dumps (\"\" = flight recorder off)")
	flightMinInterval := flag.Duration("flight-min-interval", 0, "min interval between trigger-initiated incident dumps (0 = 30s)")
	d.Parse()

	var logW io.Writer
	switch *accessLog {
	case "":
	case "-":
		logW = os.Stderr
	default:
		f, err := os.OpenFile(*accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			d.Fatal(fmt.Errorf("access log: %w", err))
		}
		defer f.Close()
		logW = f
	}

	d.Registry = telemetry.NewRegistry()
	srv := server.New(server.Config{
		Workers:       *workers,
		QueueDepth:    *queue,
		MaxBodyBytes:  *maxBody,
		MaxChunkElems: *maxChunkElems,
		ChunkElems:    *chunk,
		RetryAfter:    d.RetryAfter,
		CacheBytes:    *cacheBytes,
		Registry:      d.Registry,
		TraceEvery:    *traceSample,
		AccessLog:     logW,

		RollupInterval:    d.RollupInterval,
		Objectives:        d.Objectives,
		FlightDir:         *flightDir,
		FlightMinInterval: *flightMinInterval,
	})
	defer srv.Close()

	d.Tier, d.DebugPaths = srv, []string{"/debug/requests", "/debug/trace"}
	if err := d.Run(); err != nil {
		d.Fatal(err)
	}
}
