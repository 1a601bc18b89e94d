// Package telemetry is the repo-wide instrumentation substrate: a
// near-zero-overhead registry of three instrument kinds — counters, gauges
// and histograms — plus a span API that times a section into a histogram
// in nanoseconds, shared by the host compressor (internal/core), the
// framed/bundled container layers, the mapping planner and the WSE
// simulator. It is the machine-readable counterpart of the paper's
// cycle-level accounting (§5.1.1 "hardware cycle counters at each PE"):
// every pipeline stage reports through it, so performance PRs can be
// diffed instead of eyeballed.
//
// Design constraints (mirroring what cuSZ's kernel profiling and SZ3's
// modular stage layer provide on their platforms):
//
//   - a disabled registry must cost one predictable branch per call site —
//     instruments stay compiled in, handing out no-ops is unnecessary;
//   - an enabled registry must be safe for concurrent writers (the host
//     compressor runs one goroutine per core) and cost only an atomic
//     add per event;
//   - snapshots are plain maps, so they serialize to JSON without
//     adapters.
//
// The package-level Default registry starts disabled; CLIs opt in with
// Enable (ceresz -stats, cereszbench -debug-addr). Simulator runs build
// their own private Registry so concurrent simulations never mix.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Registry holds named instruments. The zero value is not usable; call
// NewRegistry. All methods are safe for concurrent use.
type Registry struct {
	on atomic.Bool

	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	help     map[string]string

	// rollup / slo point at the windowed time-series layer attached to
	// this registry (nil until NewRollup / NewSLOEngine). MetricsHandler
	// appends their exposition after the base snapshot, so one scrape
	// carries cumulative series, windowed rates and SLO state together.
	rollup atomic.Pointer[Rollup]
	slo    atomic.Pointer[SLOEngine]
}

// NewRegistry returns an empty, enabled registry.
func NewRegistry() *Registry {
	r := &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		help:     map[string]string{},
	}
	r.on.Store(true)
	return r
}

// Default is the process-wide registry used by the host compression path.
// It starts disabled, so instrumented hot loops cost a single branch.
var Default = func() *Registry {
	r := NewRegistry()
	r.on.Store(false)
	return r
}()

// Enable turns the Default registry on (CLI -stats / -debug-addr paths).
func Enable() { Default.SetEnabled(true) }

// Disable turns the Default registry off.
func Disable() { Default.SetEnabled(false) }

// Enabled reports whether the Default registry is recording.
func Enabled() bool { return Default.Enabled() }

// SetEnabled flips recording. Instruments handed out earlier keep working;
// they consult this flag on every event.
func (r *Registry) SetEnabled(on bool) { r.on.Store(on) }

// Enabled reports whether the registry is recording.
func (r *Registry) Enabled() bool { return r.on.Load() }

// Counter returns (registering if needed) the named monotonic counter.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{r: r}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (registering if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{r: r}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (registering if needed) the named value histogram
// (power-of-two buckets; bucket i counts values with bit length i). A
// duration is a histogram of nanoseconds.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{r: r}
		r.hists[name] = h
	}
	return h
}

// Describe attaches HELP text to the named instrument. The text rides
// registry snapshots into the Prometheus exposition as a `# HELP` line;
// instruments never described get a generated fallback there. Describing
// the same name again overwrites.
func (r *Registry) Describe(name, help string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.help[name] = help
}

// C is shorthand for Default.Counter — the form instrumented packages use
// in package-level vars, so the map lookup happens once at init.
func C(name string) *Counter { return Default.Counter(name) }

// G is shorthand for Default.Gauge.
func G(name string) *Gauge { return Default.Gauge(name) }

// T is shorthand for Default.Histogram, named for its use as a duration:
//
//	defer telemetry.T("core.compress").Start().End()
func T(name string) *Histogram { return Default.Histogram(name) }

// H is shorthand for Default.Histogram.
func H(name string) *Histogram { return Default.Histogram(name) }

// Counter is a monotonically increasing event count. A nil Counter and a
// Counter of a disabled registry are both safe no-ops.
type Counter struct {
	r *Registry
	v atomic.Int64
}

// Add increments the counter by n when the registry is enabled.
func (c *Counter) Add(n int64) {
	if c == nil || !c.r.on.Load() {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous level (worker occupancy, queue depth).
type Gauge struct {
	r   *Registry
	v   atomic.Int64
	max atomic.Int64
}

// Set stores the gauge's value when the registry is enabled.
func (g *Gauge) Set(v int64) {
	if g == nil || !g.r.on.Load() {
		return
	}
	g.v.Store(v)
	updateMax(&g.max, v)
}

// Add moves the gauge by delta and tracks the high-water mark (call with
// +1/-1 around a worker's lifetime to expose occupancy).
func (g *Gauge) Add(delta int64) {
	if g == nil || !g.r.on.Load() {
		return
	}
	updateMax(&g.max, g.v.Add(delta))
}

// Value returns the current level.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Max returns the high-water mark since creation.
func (g *Gauge) Max() int64 {
	if g == nil {
		return 0
	}
	return g.max.Load()
}

func updateMax(m *atomic.Int64, v int64) {
	for {
		cur := m.Load()
		if v <= cur || m.CompareAndSwap(cur, v) {
			return
		}
	}
}

// histBuckets is the bucket count: values are classified by bit length,
// so bucket i holds values in [2^(i-1), 2^i).
const histBuckets = 64

// Histogram counts values in power-of-two buckets — enough resolution to
// see the shape of chunk sizes and latencies without per-event cost.
type Histogram struct {
	r       *Registry
	count   atomic.Int64
	sum     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one non-negative value when the registry is enabled.
func (h *Histogram) Observe(v int64) {
	if h == nil || !h.r.on.Load() {
		return
	}
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bitLen64(v)].Add(1)
}

// Span is an in-flight timed section. The zero Span (from a disabled
// registry) is a safe no-op.
type Span struct {
	h  *Histogram
	t0 time.Time
}

// Start opens a span; it returns the zero Span when disabled, making the
// whole Start/End pair one branch plus one atomic load.
func (h *Histogram) Start() Span {
	if h == nil || !h.r.on.Load() {
		return Span{}
	}
	return Span{h: h, t0: time.Now()}
}

// End closes the span, observing its wall-clock duration in nanoseconds.
func (s Span) End() {
	if s.h != nil {
		s.h.Observe(time.Since(s.t0).Nanoseconds())
	}
}

func bitLen64(v int64) int {
	n := 0
	for v != 0 {
		v >>= 1
		n++
	}
	if n >= histBuckets {
		n = histBuckets - 1
	}
	return n
}

// HistStats is a histogram's aggregate at snapshot time. Buckets maps the
// inclusive upper bound of each non-empty power-of-two bucket to its count.
// P50/P95/P99 are approximate quantiles, linearly interpolated inside the
// power-of-two bucket that crosses each rank — accurate to well under one
// bucket width (a factor of 2), which is the histogram's resolution.
type HistStats struct {
	Count   int64           `json:"count"`
	Sum     int64           `json:"sum"`
	P50     int64           `json:"p50,omitempty"`
	P95     int64           `json:"p95,omitempty"`
	P99     int64           `json:"p99,omitempty"`
	Buckets map[int64]int64 `json:"buckets,omitempty"`
}

// bucketBounds returns the inclusive value range of histogram bucket i
// (values with bit length i): bucket 0 holds only 0, bucket i holds
// [2^(i-1), 2^i − 1].
func bucketBounds(i int) (lo, hi int64) {
	if i == 0 {
		return 0, 0
	}
	lo = int64(1) << (i - 1)
	if i >= 63 {
		return lo, math.MaxInt64
	}
	return lo, (int64(1) << i) - 1
}

// histQuantile estimates the q-quantile from the bucket counts by linear
// interpolation inside the bucket containing the target rank.
func histQuantile(counts *[histBuckets]int64, total int64, q float64) int64 {
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum float64
	for i := range counts {
		c := float64(counts[i])
		if c == 0 {
			continue
		}
		if cum+c >= rank {
			lo, hi := bucketBounds(i)
			frac := (rank - cum) / c
			return lo + int64(frac*float64(hi-lo))
		}
		cum += c
	}
	_, hi := bucketBounds(histBuckets - 1)
	return hi
}

// Snapshot is a point-in-time copy of every instrument, ready for JSON
// or diffing across runs.
type Snapshot struct {
	Counters map[string]int64     `json:"counters,omitempty"`
	Gauges   map[string]int64     `json:"gauges,omitempty"`
	Hists    map[string]HistStats `json:"histograms,omitempty"`
	// Help carries the Describe'd instrument documentation, keyed by the
	// original instrument name (not the sanitized metric name).
	Help map[string]string `json:"-"`
}

// Snapshot captures the registry's current state. Counters that never
// fired are included at zero, so diffs line up across runs; each gauge
// carries a "<name>.max" high-water entry.
func (r *Registry) Snapshot() Snapshot {
	raw := r.rawSnapshot(time.Now())
	s := Snapshot{
		Counters: raw.counters,
		Gauges:   raw.gauges,
		Hists:    make(map[string]HistStats, len(raw.hists)),
		Help:     raw.help,
	}
	for name, m := range raw.gaugeMax {
		s.Gauges[name+".max"] = m
	}
	for name, h := range raw.hists {
		s.Hists[name] = h.stats()
	}
	return s
}

// histRaw is one histogram's raw state — the bucket-resolution form the
// rollup layer diffs between ticks and stats summarises.
type histRaw struct {
	count   int64
	sum     int64
	buckets [histBuckets]int64
}

// stats summarises the bucket counts: every non-empty bucket keyed by its
// inclusive upper bound, and the interpolated p50/p95/p99. It serves both
// the cumulative Snapshot and the per-window deltas of the rollup.
func (h *histRaw) stats() HistStats {
	hs := HistStats{Count: h.count, Sum: h.sum}
	for i, n := range h.buckets {
		if n > 0 {
			if hs.Buckets == nil {
				hs.Buckets = map[int64]int64{}
			}
			_, upper := bucketBounds(i)
			hs.Buckets[upper] = n
		}
	}
	if hs.Count > 0 {
		hs.P50 = histQuantile(&h.buckets, hs.Count, 0.50)
		hs.P95 = histQuantile(&h.buckets, hs.Count, 0.95)
		hs.P99 = histQuantile(&h.buckets, hs.Count, 0.99)
	}
	return hs
}

// rawState is a point-in-time copy of every instrument at full resolution:
// Snapshot summarises one, and the rollup ticker keeps the previous one and
// diffs against the next.
type rawState struct {
	at       time.Time
	counters map[string]int64
	gauges   map[string]int64
	gaugeMax map[string]int64
	hists    map[string]histRaw
	help     map[string]string
}

// rawSnapshot captures the registry at bucket resolution.
func (r *Registry) rawSnapshot(now time.Time) rawState {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := rawState{
		at:       now,
		counters: make(map[string]int64, len(r.counters)),
		gauges:   make(map[string]int64, 2*len(r.gauges)),
		gaugeMax: make(map[string]int64, len(r.gauges)),
		hists:    make(map[string]histRaw, len(r.hists)),
		help:     make(map[string]string, len(r.help)),
	}
	for name, c := range r.counters {
		s.counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.gauges[name] = g.Value()
		s.gaugeMax[name] = g.Max()
	}
	for name, h := range r.hists {
		hr := histRaw{count: h.count.Load(), sum: h.sum.Load()}
		for i := range h.buckets {
			hr.buckets[i] = h.buckets[i].Load()
		}
		s.hists[name] = hr
	}
	for name, h := range r.help {
		s.help[name] = h
	}
	return s
}

// WriteTo renders the snapshot as sorted human-readable lines — the
// `ceresz -stats` output format.
func (s Snapshot) WriteTo(w io.Writer) (int64, error) {
	var total int64
	emit := func(format string, args ...any) error {
		n, err := fmt.Fprintf(w, format, args...)
		total += int64(n)
		return err
	}
	for _, name := range sortedKeys(s.Counters) {
		if err := emit("counter %-40s %d\n", name, s.Counters[name]); err != nil {
			return total, err
		}
	}
	for _, name := range sortedKeys(s.Gauges) {
		if err := emit("gauge   %-40s %d\n", name, s.Gauges[name]); err != nil {
			return total, err
		}
	}
	for _, name := range sortedKeys(s.Hists) {
		h := s.Hists[name]
		if err := emit("hist    %-40s n=%d sum=%d p50=%d p95=%d p99=%d\n",
			name, h.Count, h.Sum, h.P50, h.P95, h.P99); err != nil {
			return total, err
		}
	}
	return total, nil
}

// String renders the snapshot via WriteTo.
func (s Snapshot) String() string {
	var sb strings.Builder
	_, _ = s.WriteTo(&sb)
	return sb.String()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
