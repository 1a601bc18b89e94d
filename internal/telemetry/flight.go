package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Anomaly-triggered flight recorder. The span rings and rollup windows
// already hold "what just happened" — but only until the next requests
// overwrite them, so by the time a human looks at /debug/requests the
// interesting window is gone. The recorder watches each closed rollup
// window and, when a trigger fires, atomically dumps a self-contained
// incident file to disk:
//
//   - triggers: an SLO burn rate over threshold, a 5xx burst inside one
//     window, or a windowed latency p99 spiking against its own trailing
//     baseline;
//   - the dump is one JSON document carrying the recent rollup windows,
//     the SLO evaluation, a runtime-health snapshot, the cumulative
//     metric snapshot, and the request spans as Chrome trace events under
//     the standard "traceEvents" key — so the same file that explains the
//     incident also loads directly in ui.perfetto.dev;
//   - dumps are rate-limited (triggers during a sustained incident don't
//     fill the disk) and bounded (oldest incident files pruned), and a
//     POST to /debug/flight/dump forces one regardless of the limiter.

// FlightConfig tunes a FlightRecorder. Only Dir is required.
type FlightConfig struct {
	// Dir receives incident files (created on first dump).
	Dir string
	// MinInterval rate-limits trigger-initiated dumps (0 = 30s).
	MinInterval time.Duration
}

// Trigger thresholds and dump bounds.
const (
	// burnThreshold fires when any objective's 5m burn rate reaches it.
	burnThreshold = 2
	// fiveXXBurst fires when the 5xx responses inside one window reach it.
	fiveXXBurst = 5
	// p99SpikeFactor fires when a latency histogram's windowed p99
	// reaches factor × its trailing-baseline p99. Histograms whose name
	// contains "latency" are watched.
	p99SpikeFactor = 4
	// baselineWindows is how many trailing windows form the spike
	// baseline; at least 3 populated ones are required before the spike
	// trigger can fire.
	baselineWindows = 12
	// minWindowCount is the observation floor below which a window's p99
	// is too noisy to trigger on.
	minWindowCount = 8
	// maxIncidents bounds the incident files kept in Dir; oldest pruned.
	maxIncidents = 16
	// dumpWindows is how many recent windows an incident embeds.
	dumpWindows = 60
)

// Incident is the on-disk dump document. TraceEvents holds a Chrome
// trace-event array, so the whole file loads in Perfetto as-is.
type Incident struct {
	Schema      string          `json:"schema"`
	Time        time.Time       `json:"time"`
	Seq         uint64          `json:"seq"`
	Reason      string          `json:"reason"`
	SLO         []SLOStatus     `json:"slo,omitempty"`
	Windows     []Window        `json:"windows"`
	Runtime     RuntimeStats    `json:"runtime"`
	Metrics     Snapshot        `json:"metrics"`
	TraceEvents json.RawMessage `json:"traceEvents,omitempty"`
}

// incidentSchema versions the dump format.
const incidentSchema = "ceresz-incident-v1"

// FlightRecorder watches rollup windows and dumps incidents.
type FlightRecorder struct {
	cfg    FlightConfig
	rollup *Rollup
	engine *SLOEngine // nil = no burn trigger
	// traceFn streams the request spans as a Chrome trace-event JSON
	// array (the server's /debug/trace writer); nil embeds no trace.
	traceFn func(w *bytes.Buffer) error

	dumps      *Counter
	suppressed *Counter

	mu         sync.Mutex
	last       time.Time
	seq        uint64
	lastReason string
	lastFile   string
}

// NewFlightRecorder builds a recorder over rp's windows and registers its
// trigger check on the rollup tick. Dir is created lazily at first dump.
func NewFlightRecorder(cfg FlightConfig, rp *Rollup, engine *SLOEngine, traceFn func(w *bytes.Buffer) error) *FlightRecorder {
	if cfg.MinInterval <= 0 {
		cfg.MinInterval = 30 * time.Second
	}
	fr := &FlightRecorder{
		cfg:        cfg,
		rollup:     rp,
		engine:     engine,
		traceFn:    traceFn,
		dumps:      rp.reg.Counter("flight.dumps"),
		suppressed: rp.reg.Counter("flight.suppressed"),
	}
	rp.reg.Describe("flight.dumps", "Incident files written by the flight recorder.")
	rp.reg.Describe("flight.suppressed", "Flight-recorder triggers suppressed by the dump rate limit.")
	rp.OnTick(fr.check)
	return fr
}

// check evaluates every trigger against the just-closed window and dumps
// once with all firing reasons joined.
func (fr *FlightRecorder) check(w Window) {
	var reasons []string
	if fr.engine != nil {
		for _, st := range fr.engine.Evaluate() {
			if st.BurnRate5m >= burnThreshold {
				reasons = append(reasons, "burn-rate:"+st.Spec.Raw)
			}
		}
	}
	var burst int64
	for name, d := range w.Counters {
		if strings.HasSuffix(name, ".status_5xx") {
			burst += d
		}
	}
	if burst >= fiveXXBurst {
		reasons = append(reasons, fmt.Sprintf("5xx-burst:%d", burst))
	}
	reasons = append(reasons, fr.p99Spikes(w)...)
	if len(reasons) > 0 {
		_, _ = fr.Dump(strings.Join(reasons, "+"), false)
	}
}

// p99Spikes compares each watched latency histogram's windowed p99 to the
// mean p99 of its trailing baseline windows.
func (fr *FlightRecorder) p99Spikes(w Window) []string {
	var reasons []string
	// Baseline excludes the window under test: take the ring's tail
	// before it.
	ring := fr.rollup.Windows(baselineWindows + 1)
	var baseline []Window
	for _, bw := range ring {
		if bw.Seq < w.Seq {
			baseline = append(baseline, bw)
		}
	}
	for name, hs := range w.Hists {
		if !strings.Contains(name, "latency") || hs.Count < minWindowCount {
			continue
		}
		var sum int64
		var n int
		for _, bw := range baseline {
			if bh, ok := bw.Hists[name]; ok && bh.Count >= minWindowCount {
				sum += bh.P99
				n++
			}
		}
		if n < 3 {
			continue
		}
		base := sum / int64(n)
		if base > 0 && float64(hs.P99) >= p99SpikeFactor*float64(base) {
			reasons = append(reasons, fmt.Sprintf("p99-spike:%s:%dus-vs-%dus", name, hs.P99, base))
		}
	}
	sort.Strings(reasons)
	return reasons
}

// Dump writes one incident file and returns its path. Trigger-initiated
// dumps (force=false) honor the rate limit; manual dumps (force=true, the
// POST /debug/flight/dump path) bypass it.
func (fr *FlightRecorder) Dump(reason string, force bool) (string, error) {
	now := time.Now()
	fr.mu.Lock()
	if !force && now.Sub(fr.last) < fr.cfg.MinInterval {
		fr.mu.Unlock()
		fr.suppressed.Add(1)
		return "", nil
	}
	fr.last = now
	fr.seq++
	seq := fr.seq
	fr.mu.Unlock()

	inc := Incident{
		Schema:  incidentSchema,
		Time:    now,
		Seq:     seq,
		Reason:  reason,
		Windows: fr.rollup.Windows(dumpWindows),
		Runtime: ReadRuntimeStats(),
		Metrics: fr.rollup.reg.Snapshot(),
	}
	if fr.engine != nil {
		inc.SLO = fr.engine.Evaluate()
	}
	if fr.traceFn != nil {
		var buf bytes.Buffer
		if err := fr.traceFn(&buf); err == nil && json.Valid(buf.Bytes()) {
			inc.TraceEvents = json.RawMessage(buf.Bytes())
		}
	}

	if err := os.MkdirAll(fr.cfg.Dir, 0o755); err != nil {
		return "", err
	}
	// Atomic publication: write to a temp file in the same directory,
	// fsync-free rename — a reader never sees a partial incident.
	tmp, err := os.CreateTemp(fr.cfg.Dir, ".incident-*")
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(tmp)
	enc.SetIndent("", " ")
	if err := enc.Encode(inc); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return "", err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return "", err
	}
	final := filepath.Join(fr.cfg.Dir,
		fmt.Sprintf("incident-%d-%03d-%s.json", now.Unix(), seq%1000, reasonSlug(reason)))
	if err := os.Rename(tmp.Name(), final); err != nil {
		os.Remove(tmp.Name())
		return "", err
	}
	fr.dumps.Add(1)
	fr.mu.Lock()
	fr.lastReason = reason
	fr.lastFile = final
	fr.mu.Unlock()
	fr.prune()
	return final, nil
}

// reasonSlug renders a trigger reason into a safe filename fragment.
func reasonSlug(reason string) string {
	var sb strings.Builder
	for _, r := range reason {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			sb.WriteRune(r)
		default:
			sb.WriteByte('_')
		}
		if sb.Len() >= 48 {
			break
		}
	}
	if sb.Len() == 0 {
		return "manual"
	}
	return sb.String()
}

// prune removes the oldest incident files beyond maxIncidents.
func (fr *FlightRecorder) prune() {
	matches, err := filepath.Glob(filepath.Join(fr.cfg.Dir, "incident-*.json"))
	if err != nil || len(matches) <= maxIncidents {
		return
	}
	sort.Strings(matches) // names sort by unix time then sequence
	for _, old := range matches[:len(matches)-maxIncidents] {
		_ = os.Remove(old)
	}
}

// flightView is the GET /debug/flight status document.
type flightView struct {
	Dir         string    `json:"dir"`
	Dumps       int64     `json:"dumps"`
	Suppressed  int64     `json:"suppressed"`
	LastTime    time.Time `json:"last_time,omitzero"`
	LastReason  string    `json:"last_reason,omitempty"`
	LastFile    string    `json:"last_file,omitempty"`
	MinInterval float64   `json:"min_interval_seconds"`
}

// StatusHandler serves the recorder's state — GET /debug/flight.
func (fr *FlightRecorder) StatusHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		fr.mu.Lock()
		view := flightView{
			Dir:         fr.cfg.Dir,
			Dumps:       fr.dumps.Value(),
			Suppressed:  fr.suppressed.Value(),
			LastTime:    fr.last,
			LastReason:  fr.lastReason,
			LastFile:    fr.lastFile,
			MinInterval: fr.cfg.MinInterval.Seconds(),
		}
		fr.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(view)
	})
}

// DumpHandler forces an incident dump — POST /debug/flight/dump.
func (fr *FlightRecorder) DumpHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		reason := r.URL.Query().Get("reason")
		if reason == "" {
			reason = "manual"
		}
		path, err := fr.Dump(reason, true)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, "{\"file\":%q}\n", path)
	})
}
