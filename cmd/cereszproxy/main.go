// Command cereszproxy fronts N cereszd backends as one logical
// compression service: a consistent-hash shard router with health-checked
// failover (internal/cluster).
//
// Decompress requests route by the digest the backends' content-addressed
// chunk cache keys decoded frames with (internal/chunkcache's lane-parallel
// SHA-256 tree over the first frame's payload), so a repeated frame always
// lands on the node whose cache already holds it — cluster-wide repeat
// traffic stays warm instead of spreading cold copies across every
// backend. Compress and bundle requests, which no backend caches, go to a
// random point of the health-weighted ring without being read.
//
// Endpoints (the /v1/* surface is the backends', relayed):
//
//	POST /v1/compress       routed to a random ring point
//	POST /v1/decompress     routed by the first CSZF frame's cache digest
//	POST /v1/bundle         routed to a random ring point
//	GET  /healthz           readiness (alias of /healthz/ready)
//	GET  /healthz/live      liveness: 200 while the process is up
//	GET  /healthz/ready     503 starting/draining/no routable backends;
//	                        200 with degraded detail otherwise
//	GET  /debug/ring        routing table: per-backend state, weight,
//	                        hash-space share, probe history
//	GET  /debug/metrics     Prometheus text metrics (also /debug/pprof/*)
//	GET  /debug/timeseries  windowed rollups over the proxy registry
//	GET  /debug/slo         proxy-tier SLO burn rates (-slo)
//
// Admission: at most -workers requests relay at once; the next one gets
// 429 with Retry-After, as on cereszd. Backend 429s relay untouched, and
// X-Ceresz-Tenant ids pass through to the backends' access logs.
//
// Failover: upstream connect errors and 5xx retry once on the next ring
// owner when no response bytes have been sent and the request body is
// replayable (buffered within -replay-bytes); a partially forwarded
// streaming body refuses the retry with an explicit 502 instead of
// silently resending. Backends failing -fail-after consecutive probes or
// forwards leave the ring; degraded backends (an SLO burning, per their
// readiness detail) shed share at a quarter of the 64 virtual nodes a
// healthy backend owns.
//
// On SIGINT/SIGTERM the proxy flips readiness, refuses new work with
// Retry-After and waits up to 30s for in-flight relays.
//
// Flags:
//
//	-addr host:port       listen address (default :8770)
//	-backends URLS        comma-separated backend base URLs (required)
//	-workers N            concurrent relay cap (0 = 8x GOMAXPROCS)
//	-health-interval DUR  readiness poll interval (0 = 1s)
//	-fail-after N         consecutive failures before ejection (0 = 3)
//	-replay-bytes BYTES   request-body failover buffer (0 = 4MiB)
//	-retry-after DUR      hint for proxy-origin 429/503 (0 = 1s)
//	-random-route         route decompress at random too instead of by
//	                      digest (the affinity-off baseline)
//	-rollup-interval DUR  windowed time-series interval (default 5s; zero
//	                      or negative = rollups off, unless -slo needs
//	                      them: then 5s)
//	-slo SPECS            proxy-tier objectives, same grammar as cereszd
//
// The probes, drain sequence, fleet-health views and the flags shared with
// cereszd come from internal/spine.
package main

import (
	"errors"
	"flag"
	"strings"

	"ceresz/internal/cluster"
	"ceresz/internal/spine"
	"ceresz/internal/telemetry"
)

func main() {
	d := spine.NewDaemon("cereszproxy", "proxy", ":8770")
	backends := flag.String("backends", "", "comma-separated backend base URLs (required)")
	workers := flag.Int("workers", 0, "concurrent relay cap (0 = 8x GOMAXPROCS)")
	healthInterval := flag.Duration("health-interval", 0, "readiness poll interval (0 = 1s)")
	failAfter := flag.Int("fail-after", 0, "consecutive failures before a backend is ejected (0 = 3)")
	replayBytes := flag.Int("replay-bytes", 0, "request-body failover buffer in bytes (0 = 4MiB)")
	randomRoute := flag.Bool("random-route", false, "route decompress at random too instead of by digest (baseline)")
	d.Parse()

	var urls []string
	for _, u := range strings.Split(*backends, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	if len(urls) == 0 {
		d.Fatal(errors.New("-backends is required"))
	}

	d.Registry = telemetry.NewRegistry()
	p, err := cluster.New(cluster.Config{
		Backends: urls,
		Workers:  *workers,
		Health: cluster.HealthConfig{
			Interval:  *healthInterval,
			FailAfter: *failAfter,
		},
		ReplayBytes: *replayBytes,
		RetryAfter:  d.RetryAfter,
		RandomRoute: *randomRoute,
		Registry:    d.Registry,

		RollupInterval: d.RollupInterval,
		Objectives:     d.Objectives,
	})
	if err != nil {
		d.Fatal(err)
	}
	defer p.Close()

	p.Start()
	d.Tier, d.DebugPaths = p, []string{"/debug/ring"}
	d.Banner = ", backends: " + strings.Join(urls, " ")
	if err := d.Run(); err != nil {
		d.Fatal(err)
	}
}
