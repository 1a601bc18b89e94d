package spine

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"syscall"
	"time"

	"ceresz/internal/telemetry"
)

// Daemon runs one tier as a process: the flags cereszd and cereszproxy
// share, one mux over the tier and telemetry.DebugMux, and the listen →
// ready → signal → drain → shutdown sequence.
type Daemon struct {
	// Name prefixes log lines: "cereszd".
	Name string
	// Prefix is the tier's instrument prefix the -slo specs bind to.
	Prefix string

	Addr           string
	RetryAfter     time.Duration
	RollupInterval time.Duration
	slo            string
	// Objectives are the parsed -slo specs, set by Parse.
	Objectives []telemetry.Objective

	// Registry, Tier and DebugPaths are set before Run: the registry the
	// debug pages serve, the tier, and the tier's own /debug views beside
	// the fleet-health ones. Banner ends the "listening on" log line.
	Registry *telemetry.Registry
	Tier     interface {
		Handler() http.Handler
		SetReady(bool)
		SetDraining(bool)
	}
	DebugPaths []string
	Banner     string
}

// NewDaemon registers the shared flags on the command line, addr being the
// default listen address.
func NewDaemon(name, prefix, addr string) *Daemon {
	d := &Daemon{Name: name, Prefix: prefix}
	flag.StringVar(&d.Addr, "addr", addr, "listen address")
	flag.DurationVar(&d.RetryAfter, "retry-after", 0, "Retry-After hint for refused requests (0 = 1s)")
	flag.DurationVar(&d.RollupInterval, "rollup-interval", defaultRollupInterval,
		"windowed time-series interval (<= 0 = off, unless SLOs or the flight recorder need rollups: then 5s)")
	flag.StringVar(&d.slo, "slo", "", "comma-separated SLOs on this tier's endpoints, e.g. \"compress:p99<25ms:99.9,decompress:err:99.99\"")
	return d
}

// Parse parses the command line and binds the -slo specs to the tier's
// instruments, exiting on a bad spec.
func (d *Daemon) Parse() {
	flag.Parse()
	var err error
	if d.Objectives, err = ParseObjectives(d.Prefix, d.slo); err != nil {
		d.Fatal(err)
	}
}

// Fatal reports err as "<name>: <err>" on stderr and exits 1.
func (d *Daemon) Fatal(err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", d.Name, err)
	os.Exit(1)
}

// drainTimeout is how long in-flight requests get to finish after SIGINT
// or SIGTERM.
const drainTimeout = 30 * time.Second

// Run serves the tier until SIGINT or SIGTERM, then drains: readiness
// turns 503 so load balancers stop routing here, new /v1/* work is
// refused with Retry-After, and in-flight requests get drainTimeout to
// finish. Readiness stays 503 until the listener accepts, so a poller that
// sees 200 can send traffic at once.
func (d *Daemon) Run() error {
	h := d.Tier.Handler()
	mux := http.NewServeMux()
	mux.Handle("/", h)
	mux.Handle("/debug/", telemetry.DebugMux(d.Registry))
	// Exact paths outrank the /debug/ prefix, so the tier's views stay
	// reachable beside the shared telemetry pages.
	for _, p := range slices.Concat(fleetViews, d.DebugPaths) {
		mux.Handle(p, h)
	}
	hs := &http.Server{Handler: mux}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	d.Tier.SetReady(false)
	ln, err := net.Listen("tcp", d.Addr)
	if err != nil {
		return err
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	d.Tier.SetReady(true)
	fmt.Fprintf(os.Stderr, "%s listening on %s%s\n", d.Name, ln.Addr(), d.Banner)

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintf(os.Stderr, "%s: draining\n", d.Name)
	d.Tier.SetDraining(true)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("shutdown: %w", err)
	}
	fmt.Fprintf(os.Stderr, "%s: drained\n", d.Name)
	return nil
}
