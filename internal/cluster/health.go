package cluster

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Backend health: a background poller per proxy hits each backend's
// /healthz/ready on an interval, parses the PR-10 readiness body (ok /
// degraded-with-SLO-detail / starting / draining), and drives a small
// state machine:
//
//	Healthy  — 200 {"status":"ok"}: full ring weight.
//	Degraded — 200 {"status":"degraded",...}: still serving, but an SLO
//	           is burning; stays on the ring at reduced weight so it
//	           sheds share without a routing cliff.
//	Unready  — 503 (starting or draining): off the ring immediately —
//	           a draining backend told us to stop routing to it; no
//	           failure threshold applies.
//	Dead     — FailAfter consecutive probe/transport failures: off the
//	           ring. The proxy's own forwarding errors count here too
//	           (ReportFailure), so a crashed backend is ejected at
//	           traffic speed rather than poll speed.
//
// Any state change rebuilds the ring through the onChange callback; the
// swap is atomic and in-flight requests keep the backend they already
// resolved, so rebalancing never drops work.

// BackendState is one backend's position in the health state machine.
type BackendState int32

const (
	StateHealthy BackendState = iota
	StateDegraded
	StateUnready
	StateDead
)

func (s BackendState) String() string {
	switch s {
	case StateHealthy:
		return "healthy"
	case StateDegraded:
		return "degraded"
	case StateUnready:
		return "unready"
	case StateDead:
		return "dead"
	}
	return "unknown"
}

// Routable reports whether the state keeps the backend on the ring.
func (s BackendState) Routable() bool { return s == StateHealthy || s == StateDegraded }

// readyBody is the decoded /healthz/ready readiness document (the same
// shape client.Readiness parses; duplicated here to keep internal/cluster
// free of the public client package).
type readyBody struct {
	Status string `json:"status"`
}

// HealthConfig tunes the checker.
type HealthConfig struct {
	// Interval between probe rounds (0 = 1s). Each probe times out after
	// half of it, but never in under 100ms.
	Interval time.Duration
	// FailAfter is the consecutive-failure count that declares a backend
	// dead (0 = 3).
	FailAfter int
}

func (c HealthConfig) withDefaults() HealthConfig {
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.FailAfter <= 0 {
		c.FailAfter = 3
	}
	return c
}

// backendHealth is one backend's live health record.
type backendHealth struct {
	url   string // canonical base URL
	state atomic.Int32
	// fails counts consecutive probe/forward failures; any success resets.
	fails atomic.Int32

	mu        sync.Mutex
	lastErr   string
	lastProbe time.Time
}

// Checker polls a fixed backend set. Create with newChecker, then Start;
// Stop halts the pollers (idempotent).
type Checker struct {
	cfg      HealthConfig
	client   *http.Client // issues the probes
	backends []*backendHealth
	// onChange runs after any state transition (under no locks); the
	// proxy rebuilds its ring here.
	onChange func()
	// kick wakes the poll loop early (proxy-reported failures).
	kick    chan struct{}
	stop    chan struct{}
	done    chan struct{}
	started atomic.Bool
	probes  atomic.Int64 // total probes issued, for tests and /debug/ring
}

// newChecker builds a checker over urls that probes through client.
// Backends start Healthy so a proxy serves immediately; the first probe
// round corrects any that are not (callers wanting strict start-up gating
// can probe once before serving).
func newChecker(urls []string, cfg HealthConfig, client *http.Client, onChange func()) *Checker {
	c := &Checker{
		cfg:      cfg.withDefaults(),
		client:   client,
		onChange: onChange,
		kick:     make(chan struct{}, 1),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	for _, u := range urls {
		c.backends = append(c.backends, &backendHealth{url: u})
	}
	return c
}

// State reports backend i's current health.
func (c *Checker) State(i int) BackendState {
	return BackendState(c.backends[i].state.Load())
}

// setState transitions backend i, returning whether the state changed.
func (c *Checker) setState(i int, s BackendState) bool {
	return c.backends[i].state.Swap(int32(s)) != int32(s)
}

// ReportFailure records a proxy-side forwarding failure (connect error,
// mid-request reset) against backend i — the traffic path is a probe too.
// Reaching the failure threshold ejects the backend immediately and a
// probe round is kicked so recovery detection keeps its cadence.
func (c *Checker) ReportFailure(i int, err error) {
	b := c.backends[i]
	b.mu.Lock()
	b.lastErr = err.Error()
	b.mu.Unlock()
	fails := b.fails.Add(1)
	if int(fails) >= c.cfg.FailAfter && c.setState(i, StateDead) {
		c.onChange()
	}
	select {
	case c.kick <- struct{}{}:
	default:
	}
}

// ReportSuccess records a proxy-side forwarded success: a backend that is
// answering traffic is not dead, whatever a stale probe said. It does not
// upgrade Unready/Degraded — those are the backend's own declarations.
func (c *Checker) ReportSuccess(i int) {
	b := c.backends[i]
	b.fails.Store(0)
	if BackendState(b.state.Load()) == StateDead && c.setState(i, StateHealthy) {
		c.onChange()
	}
}

// Start launches the poll loop: one round immediately, then every
// Interval (or sooner when kicked). Calling Start twice is a no-op.
func (c *Checker) Start() {
	if !c.started.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer close(c.done)
		t := time.NewTicker(c.cfg.Interval)
		defer t.Stop()
		c.probeAll()
		for {
			select {
			case <-c.stop:
				return
			case <-t.C:
			case <-c.kick:
			}
			c.probeAll()
		}
	}()
}

// Stop halts the poll loop and waits for it to exit. Safe to call any
// number of times, including on a checker that was never started.
func (c *Checker) Stop() {
	select {
	case <-c.stop:
	default:
		close(c.stop)
	}
	if c.started.Load() {
		<-c.done
	}
}

// probeAll probes every backend concurrently and applies transitions.
// Probes run in parallel so one hung backend cannot starve detection of
// the others; the per-probe timeout bounds the round.
func (c *Checker) probeAll() {
	var wg sync.WaitGroup
	for i := range c.backends {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c.probe(i)
		}(i)
	}
	wg.Wait()
}

// probe hits one backend's readiness endpoint and applies the transition
// rules. Success of any kind (a well-formed readiness answer, 200 or 503)
// resets the failure counter — the process is alive and talking; only
// transport-level failures and garbage count toward Dead.
func (c *Checker) probe(i int) {
	b := c.backends[i]
	c.probes.Add(1)
	ctx, cancel := context.WithTimeout(context.Background(), max(c.cfg.Interval/2, 100*time.Millisecond))
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.url+"/healthz/ready", nil)
	if err != nil {
		c.fail(i, err)
		return
	}
	resp, err := c.client.Do(req)
	if err != nil {
		c.fail(i, err)
		return
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	resp.Body.Close()
	var rd readyBody
	_ = json.Unmarshal(body, &rd)

	b.mu.Lock()
	b.lastProbe = time.Now()
	b.lastErr = ""
	b.mu.Unlock()
	b.fails.Store(0)

	var next BackendState
	switch {
	case resp.StatusCode == http.StatusOK && rd.Status == "degraded":
		next = StateDegraded
	case resp.StatusCode == http.StatusOK:
		next = StateHealthy
	case resp.StatusCode == http.StatusServiceUnavailable:
		// Starting or draining: the backend itself asked to be left out.
		next = StateUnready
	default:
		// An unexpected status is not a liveness failure, but it is not a
		// readiness signal either; treat like unready.
		next = StateUnready
	}
	if c.setState(i, next) {
		c.onChange()
	}
}

// fail records one probe failure and applies the Dead threshold.
func (c *Checker) fail(i int, err error) {
	b := c.backends[i]
	b.mu.Lock()
	b.lastProbe = time.Now()
	b.lastErr = err.Error()
	b.mu.Unlock()
	if int(b.fails.Add(1)) >= c.cfg.FailAfter && c.setState(i, StateDead) {
		c.onChange()
	}
}

// healthSnapshot is one backend's state for /debug/ring.
type healthSnapshot struct {
	State     BackendState
	Fails     int32
	LastErr   string
	LastProbe time.Time
}

// snapshot reads backend i's health record.
func (c *Checker) snapshot(i int) healthSnapshot {
	b := c.backends[i]
	b.mu.Lock()
	defer b.mu.Unlock()
	return healthSnapshot{
		State:     BackendState(b.state.Load()),
		Fails:     b.fails.Load(),
		LastErr:   b.lastErr,
		LastProbe: b.lastProbe,
	}
}
