package telemetry

import (
	"fmt"
	"io"
	"net/http"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
)

// Prometheus/OpenMetrics text exposition of a snapshot, served at
// /debug/metrics behind cereszbench's -debug-addr. The mapping follows
// the conventions scrapers expect:
//
//	counter → counter        ceresz_sim_events
//	gauge   → two gauges     ceresz_sim_workers, ceresz_sim_workers_max
//	hist    → summary        quantile="0.5|0.95|0.99" labels, _count/_sum
//	                         (a duration's values are nanoseconds)
//
// Instrument names sanitize to the metric charset (dots → underscores)
// under a "ceresz_" namespace. Every family carries a `# HELP` line —
// the Describe'd text when the instrument was documented, a generated
// fallback otherwise — and the exposition leads with a ceresz_build_info
// gauge identifying the binary (Go version + VCS revision).

// metricName sanitizes an instrument name into the Prometheus charset.
func metricName(name string) string {
	var sb strings.Builder
	sb.WriteString("ceresz_")
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			sb.WriteRune(r)
		default:
			sb.WriteByte('_')
		}
	}
	return sb.String()
}

// helpEscape escapes HELP text per the Prometheus text format: backslash
// and newline only.
func helpEscape(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return s
}

// helpFor resolves an instrument's HELP text: the Describe'd line when
// present, a generated fallback naming the original instrument otherwise.
func (s Snapshot) helpFor(name, kind string) string {
	if h, ok := s.Help[name]; ok && h != "" {
		return helpEscape(h)
	}
	return "ceresz " + kind + " instrument " + helpEscape(name) + "."
}

// buildInfoLine renders the ceresz_build_info family once per process:
// a constant 1-valued gauge whose labels identify the running binary.
var buildInfoLine = sync.OnceValue(func() string {
	revision := "unknown"
	modified := ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				revision = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
	}
	if modified == "true" {
		revision += "-dirty"
	}
	return fmt.Sprintf(
		"# HELP ceresz_build_info Build identity of the running binary; constant 1.\n"+
			"# TYPE ceresz_build_info gauge\n"+
			"ceresz_build_info{go_version=%q,revision=%q} 1\n",
		runtime.Version(), revision)
})

// WriteOpenMetrics renders the snapshot in the Prometheus text format.
func (s Snapshot) WriteOpenMetrics(w io.Writer) (int64, error) {
	var total int64
	emit := func(format string, args ...any) error {
		n, err := fmt.Fprintf(w, format, args...)
		total += int64(n)
		return err
	}
	if err := emit("%s", buildInfoLine()); err != nil {
		return total, err
	}
	for _, name := range sortedKeys(s.Counters) {
		mn := metricName(name)
		if err := emit("# HELP %s %s\n# TYPE %s counter\n%s %d\n",
			mn, s.helpFor(name, "counter"), mn, mn, s.Counters[name]); err != nil {
			return total, err
		}
	}
	// Gauge snapshots carry a synthetic "<name>.max" companion; emit it as
	// its own gauge next to the base metric rather than as a duplicate.
	for _, name := range sortedKeys(s.Gauges) {
		if strings.HasSuffix(name, ".max") {
			continue
		}
		mn := metricName(name)
		if err := emit("# HELP %s %s\n# TYPE %s gauge\n%s %d\n",
			mn, s.helpFor(name, "gauge"), mn, mn, s.Gauges[name]); err != nil {
			return total, err
		}
		if max, ok := s.Gauges[name+".max"]; ok {
			if err := emit("# HELP %s_max High-water mark of %s since process start.\n# TYPE %s_max gauge\n%s_max %d\n",
				mn, mn, mn, mn, max); err != nil {
				return total, err
			}
		}
	}
	for _, name := range sortedKeys(s.Hists) {
		h := s.Hists[name]
		mn := metricName(name)
		if err := emit("# HELP %s %s\n# TYPE %s summary\n",
			mn, s.helpFor(name, "histogram"), mn); err != nil {
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

// MetricsHandler returns an http.Handler serving the registry in the
// Prometheus text exposition format — the /debug/metrics endpoint. The
// scrape refreshes the runtime.* gauges first, then renders the cumulative
// snapshot, then appends the rollup's windowed series and the SLO engine's
// gauges when a time-series layer is attached to the registry.
func (r *Registry) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		r.UpdateRuntimeGauges()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if _, err := r.Snapshot().WriteOpenMetrics(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		if rp := r.rollup.Load(); rp != nil {
			if _, err := rp.writeOpenMetrics(w); err != nil {
				return
			}
		}
		if e := r.slo.Load(); e != nil {
			_, _ = e.writeOpenMetrics(w)
		}
	})
}
