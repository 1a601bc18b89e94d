package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// Windowed time-series rollups over a Registry. Everything the registry
// exports is cumulative (counters since boot, histograms since boot),
// which is the right substrate but the wrong unit for operating a fleet:
// an on-call human needs rates, deltas and *recent* quantiles — cuSZ's
// evaluation methodology measures sustained windowed throughput, not
// lifetime averages, and the serving telemetry should speak the same
// language. A Rollup keeps a fixed ring of per-interval aggregates
// computed by a background ticker that diffs full-resolution snapshots:
//
//   - the hot path is untouched — instruments stay the same atomics, the
//     ticker reads them (rawSnapshot) at the interval and diffs off-path;
//   - each Window carries counter deltas and rates, gauge levels, and
//     per-window histogram quantiles computed from bucket deltas (what
//     was p99 *in the last 5 seconds*, not since boot);
//   - the ring is the substrate for the SLO engine (slo.go) and the
//     flight recorder (flight.go), and is served raw at /debug/timeseries.
//
// Windows are immutable once published, so readers copy slice headers
// under the mutex and work lock-free afterwards.

// RollupConfig tunes a Rollup. The zero value keeps one hour of 5-second
// windows.
type RollupConfig struct {
	// Interval is the window width (0 = 5s).
	Interval time.Duration
}

// rollupWindows is the ring capacity: one hour at the default 5s.
const rollupWindows = 720

// Window is one closed rollup interval: deltas and rates between two
// registry snapshots. All maps are written once at tick time and never
// mutated after publication.
type Window struct {
	// Seq numbers windows from 1; the ring drops old ones but Seq keeps
	// counting, so consumers can detect gaps after a stall.
	Seq   uint64    `json:"seq"`
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
	// Counters holds per-counter deltas over the window; Rates the same
	// deltas divided by the window's actual wall duration.
	Counters map[string]int64   `json:"counters,omitempty"`
	Rates    map[string]float64 `json:"rates,omitempty"`
	// Gauges holds instantaneous gauge levels at window end.
	Gauges map[string]int64 `json:"gauges,omitempty"`
	// Hists holds per-window histogram aggregates: count/sum deltas,
	// bucket deltas, and quantiles interpolated from those deltas — the
	// windowed p50/p95/p99.
	Hists map[string]HistStats `json:"histograms,omitempty"`
}

// Dur returns the window's actual wall duration.
func (w Window) Dur() time.Duration { return w.End.Sub(w.Start) }

// Rollup computes and retains windows over one registry.
type Rollup struct {
	reg      *Registry
	interval time.Duration

	mu     sync.Mutex
	prev   rawState
	ring   []Window
	next   int
	filled bool
	seq    uint64
	onTick []func(Window)

	started  bool
	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// NewRollup attaches a rollup to reg and primes its baseline snapshot.
// Call Start to run the background ticker, or Tick directly (tests, or a
// caller with its own scheduler). A registry carries at most one rollup;
// attaching a second replaces the first in the registry's exposition.
func NewRollup(reg *Registry, cfg RollupConfig) *Rollup {
	if cfg.Interval <= 0 {
		cfg.Interval = 5 * time.Second
	}
	rp := &Rollup{
		reg:      reg,
		interval: cfg.Interval,
		prev:     reg.rawSnapshot(time.Now()),
		ring:     make([]Window, rollupWindows),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	reg.rollup.Store(rp)
	return rp
}

// Interval returns the configured window width.
func (rp *Rollup) Interval() time.Duration { return rp.interval }

// Start runs the ticker until Stop. Safe to call once.
func (rp *Rollup) Start() {
	rp.mu.Lock()
	rp.started = true
	rp.mu.Unlock()
	go func() {
		defer close(rp.done)
		t := time.NewTicker(rp.interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				rp.Tick()
			case <-rp.stop:
				return
			}
		}
	}()
}

// Stop halts the ticker (idempotent; a no-op if Start never ran). Windows
// already captured remain readable; Tick may still be called manually.
func (rp *Rollup) Stop() {
	rp.stopOnce.Do(func() { close(rp.stop) })
	rp.mu.Lock()
	started := rp.started
	rp.mu.Unlock()
	if started {
		<-rp.done
	}
}

// OnTick registers a callback invoked after each window is published,
// outside the rollup lock (the flight recorder's trigger evaluation).
// Not safe to call concurrently with Start'ed ticking; register before.
func (rp *Rollup) OnTick(f func(Window)) {
	rp.mu.Lock()
	rp.onTick = append(rp.onTick, f)
	rp.mu.Unlock()
}

// Tick closes the current window: snapshot, diff against the previous
// snapshot, publish into the ring. Start calls it on the interval; tests
// and deterministic drivers call it directly.
func (rp *Rollup) Tick() Window {
	// Runtime health rides the rollup cadence so windows carry heap/GC/
	// goroutine gauges without a second poller.
	rp.reg.UpdateRuntimeGauges()

	rp.mu.Lock()
	// The snapshot happens under rp.mu: two racing Ticks must diff strictly
	// ordered snapshots, or the later-locked one would subtract a newer
	// baseline and publish negative deltas.
	cur := rp.reg.rawSnapshot(time.Now())
	w := diffWindow(rp.prev, cur)
	rp.seq++
	w.Seq = rp.seq
	rp.prev = cur
	rp.ring[rp.next] = w
	rp.next++
	if rp.next == len(rp.ring) {
		rp.next = 0
		rp.filled = true
	}
	cbs := rp.onTick
	rp.mu.Unlock()

	for _, f := range cbs {
		f(w)
	}
	return w
}

// diffWindow builds the window between two raw snapshots.
func diffWindow(prev, cur rawState) Window {
	w := Window{Start: prev.at, End: cur.at}
	secs := cur.at.Sub(prev.at).Seconds()
	if secs <= 0 {
		secs = 1e-9 // degenerate back-to-back ticks; keep rates finite
	}
	w.Counters = make(map[string]int64, len(cur.counters))
	w.Rates = make(map[string]float64, len(cur.counters))
	for name, v := range cur.counters {
		d := v - prev.counters[name]
		w.Counters[name] = d
		w.Rates[name] = float64(d) / secs
	}
	w.Gauges = cur.gauges // captured fresh per tick and never mutated
	w.Hists = make(map[string]HistStats, len(cur.hists))
	for name, h := range cur.hists {
		p := prev.hists[name]
		d := histRaw{count: h.count - p.count, sum: h.sum - p.sum}
		for i := range h.buckets {
			d.buckets[i] = h.buckets[i] - p.buckets[i]
		}
		w.Hists[name] = d.stats()
	}
	return w
}

// Len reports how many windows the ring currently holds.
func (rp *Rollup) Len() int {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	if rp.filled {
		return len(rp.ring)
	}
	return rp.next
}

// Windows returns up to n windows, oldest first, newest last (n <= 0 =
// all retained). Windows are immutable; the returned slice is a copy of
// headers only.
func (rp *Rollup) Windows(n int) []Window {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	size := rp.next
	if rp.filled {
		size = len(rp.ring)
	}
	if n <= 0 || n > size {
		n = size
	}
	out := make([]Window, 0, n)
	// Oldest-first: start n slots behind the write cursor.
	start := rp.next - n
	if start < 0 {
		start += len(rp.ring)
	}
	for i := 0; i < n; i++ {
		out = append(out, rp.ring[(start+i)%len(rp.ring)])
	}
	return out
}

// Latest returns the newest window, if any window has closed yet.
func (rp *Rollup) Latest() (Window, bool) {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	if rp.seq == 0 {
		return Window{}, false
	}
	i := rp.next - 1
	if i < 0 {
		i = len(rp.ring) - 1
	}
	return rp.ring[i], true
}

// timeseriesView is the /debug/timeseries response document.
type timeseriesView struct {
	IntervalSeconds float64  `json:"interval_seconds"`
	RingCapacity    int      `json:"ring_capacity"`
	Windows         []Window `json:"windows"`
}

// Handler serves the rollup ring as JSON — the /debug/timeseries
// endpoint. ?n= bounds the window count (default 60, newest last).
func (rp *Rollup) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := 60
		if s := r.URL.Query().Get("n"); s != "" {
			v, err := strconv.Atoi(s)
			if err != nil || v < 0 {
				http.Error(w, "n must be a non-negative integer", http.StatusBadRequest)
				return
			}
			n = v
		}
		view := timeseriesView{
			IntervalSeconds: rp.interval.Seconds(),
			RingCapacity:    len(rp.ring),
			Windows:         rp.Windows(n),
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(view)
	})
}

// writeOpenMetrics appends the windowed series to a Prometheus scrape:
// per-counter `_rate` gauges and per-histogram `_window` quantile
// summaries from the latest closed window, plus ring metadata. Names are
// suffixed so they never collide with the cumulative series.
func (rp *Rollup) writeOpenMetrics(w io.Writer) (int64, error) {
	var total int64
	emit := func(format string, args ...any) error {
		n, err := fmt.Fprintf(w, format, args...)
		total += int64(n)
		return err
	}
	if err := emit("# HELP ceresz_rollup_interval_seconds Width of one rollup window.\n# TYPE ceresz_rollup_interval_seconds gauge\nceresz_rollup_interval_seconds %g\n",
		rp.interval.Seconds()); err != nil {
		return total, err
	}
	last, ok := rp.Latest()
	if err := emit("# HELP ceresz_rollup_windows Closed rollup windows retained in the ring.\n# TYPE ceresz_rollup_windows gauge\nceresz_rollup_windows %d\n",
		rp.Len()); err != nil || !ok {
		return total, err
	}
	secs := last.Dur().Seconds()
	for _, name := range sortedKeys(last.Rates) {
		mn := metricName(name) + "_rate"
		if err := emit("# HELP %s Per-second rate of %s over the last %gs window.\n# TYPE %s gauge\n%s %g\n",
			mn, name, secs, mn, mn, last.Rates[name]); err != nil {
			return total, err
		}
	}
	for _, name := range sortedKeys(last.Hists) {
		h := last.Hists[name]
		mn := metricName(name) + "_window"
		if err := emit("# HELP %s Windowed quantiles of %s over the last %gs window.\n# TYPE %s summary\n",
			mn, name, secs, mn); err != nil {
			return total, err
		}
		for _, q := range [...]struct {
			label string
			v     int64
		}{{"0.5", h.P50}, {"0.95", h.P95}, {"0.99", h.P99}} {
			if err := emit("%s{quantile=%q} %d\n", mn, q.label, q.v); err != nil {
				return total, err
			}
		}
		if err := emit("%s_sum %d\n%s_count %d\n", mn, h.Sum, mn, h.Count); err != nil {
			return total, err
		}
	}
	return total, nil
}
