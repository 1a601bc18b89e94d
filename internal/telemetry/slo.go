package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Declarative service-level objectives evaluated over the rollup ring.
// An objective is written the way an on-call would say it —
//
//	compress:p99<25ms:99.9   "99.9% of compress requests finish in 25ms"
//	decompress:err:99.99     "99.99% of decompress requests don't 5xx"
//
// — and evaluated request-based (the SRE-workbook formulation): each
// rollup window contributes good/total event counts, and the engine
// reports compliance, error-budget remaining over the ring horizon, and
// multi-window burn rates (5m and 1h) — burn rate 1.0 spends exactly the
// budget, anything sustained above it breaches the objective before the
// horizon ends. The quantile token (p99) names the latency SLI for
// display; the math is the fraction of requests at or under the
// threshold, counted from windowed histogram bucket deltas.

// SLOSpec is one parsed objective.
type SLOSpec struct {
	// Raw is the original spec string, echoed in every surface.
	Raw string `json:"spec"`
	// Subject is the objective's target, e.g. an endpoint name.
	Subject string `json:"subject"`
	// SLI is "p<q>" for latency objectives or "err" for error-rate ones.
	SLI string `json:"sli"`
	// Threshold is the latency cut-off for latency SLIs (0 for err).
	Threshold time.Duration `json:"threshold_ns"`
	// Target is the good-event fraction, e.g. 0.999.
	Target float64 `json:"target"`
}

// ParseSLOSpec parses "subject:p99<25ms:99.9" or "subject:err:99.9".
func ParseSLOSpec(raw string) (SLOSpec, error) {
	spec := SLOSpec{Raw: raw}
	parts := strings.Split(raw, ":")
	if len(parts) != 3 {
		return spec, fmt.Errorf("slo %q: want subject:sli:target (e.g. compress:p99<25ms:99.9)", raw)
	}
	spec.Subject = parts[0]
	if spec.Subject == "" {
		return spec, fmt.Errorf("slo %q: empty subject", raw)
	}
	sli := parts[1]
	switch {
	case sli == "err":
		spec.SLI = "err"
	case strings.HasPrefix(sli, "p"):
		lt := strings.IndexByte(sli, '<')
		if lt < 2 {
			return spec, fmt.Errorf("slo %q: latency sli must be p<q><<duration>, e.g. p99<25ms", raw)
		}
		// NaN fails both comparisons, so the test is written to reject it.
		if q, err := strconv.ParseFloat(sli[1:lt], 64); err != nil || !(q > 0 && q <= 100) {
			return spec, fmt.Errorf("slo %q: quantile must be a percentile in (0,100], got %q", raw, sli[1:lt])
		}
		d, err := time.ParseDuration(sli[lt+1:])
		if err != nil || d <= 0 {
			return spec, fmt.Errorf("slo %q: bad latency threshold %q", raw, sli[lt+1:])
		}
		spec.SLI = sli[:lt]
		spec.Threshold = d
	default:
		return spec, fmt.Errorf("slo %q: sli must be p<q><<duration> or err, got %q", raw, sli)
	}
	// The fraction is checked, not the percentage: a subnormal percentage
	// divides to 0, and NaN fails both comparisons.
	pct, err := strconv.ParseFloat(parts[2], 64)
	target := pct / 100
	if err != nil || !(target > 0 && target < 1) {
		return spec, fmt.Errorf("slo %q: target must be a percentage in (0,100), got %q", raw, parts[2])
	}
	spec.Target = target
	return spec, nil
}

// ParseSLOSpecs parses a comma-separated spec list (the flag form).
func ParseSLOSpecs(raw string) ([]SLOSpec, error) {
	var out []SLOSpec
	for _, one := range strings.Split(raw, ",") {
		one = strings.TrimSpace(one)
		if one == "" {
			continue
		}
		spec, err := ParseSLOSpec(one)
		if err != nil {
			return nil, err
		}
		out = append(out, spec)
	}
	return out, nil
}

// Objective binds a spec to the registry instruments that carry its
// events. Latency SLIs read HistName (a histogram of microsecond
// latencies); error SLIs read the TotalCounter/BadCounter pair.
type Objective struct {
	Spec SLOSpec `json:"spec"`
	// HistName is the latency histogram (values in µs) for latency SLIs.
	HistName string `json:"hist,omitempty"`
	// TotalCounter / BadCounter are the event counters for err SLIs.
	TotalCounter string `json:"total_counter,omitempty"`
	BadCounter   string `json:"bad_counter,omitempty"`
}

// goodTotal extracts the objective's good/total event counts from one
// window.
func (o Objective) goodTotal(w Window) (good, total int64) {
	if o.Spec.SLI == "err" {
		total = w.Counters[o.TotalCounter]
		bad := w.Counters[o.BadCounter]
		if bad > total {
			bad = total
		}
		return total - bad, total
	}
	hs := w.Hists[o.HistName]
	return histCountAtOrBelow(hs.Buckets, o.Spec.Threshold.Microseconds()), hs.Count
}

// histCountAtOrBelow estimates how many observations of a windowed
// histogram were <= x, interpolating linearly inside the power-of-two
// bucket x falls in. Buckets maps each bucket's inclusive upper bound to
// its count (HistStats.Buckets).
func histCountAtOrBelow(buckets map[int64]int64, x int64) int64 {
	var n int64
	for upper, count := range buckets {
		lo := int64(0)
		if upper > 0 {
			lo = upper/2 + 1
		}
		switch {
		case upper <= x:
			n += count
		case lo <= x:
			span := upper - lo + 1
			n += count * (x - lo + 1) / span
		}
	}
	return n
}

// SLOStatus is one objective's evaluation over the rollup ring.
type SLOStatus struct {
	Spec SLOSpec `json:"spec"`
	// HorizonSeconds is the wall time the full-budget numbers cover —
	// the ring's span, bounded by process lifetime.
	HorizonSeconds float64 `json:"horizon_seconds"`
	Good           int64   `json:"good"`
	Total          int64   `json:"total"`
	// Compliance is good/total over the horizon (1 with no traffic).
	Compliance float64 `json:"compliance"`
	// BudgetRemaining is the error budget left over the horizon: 1 means
	// untouched, 0 exactly spent, negative overspent.
	BudgetRemaining float64 `json:"budget_remaining"`
	// BurnRate5m / BurnRate1h are the multi-window burn rates: the bad
	// fraction over the trailing window divided by the budget fraction
	// (1 - target). 1.0 burns exactly the budget.
	BurnRate5m float64 `json:"burn_rate_5m"`
	BurnRate1h float64 `json:"burn_rate_1h"`
	// Degraded reports the fast burn rate at or over the engine's
	// degraded threshold — the readiness probe's "degraded" detail.
	Degraded bool `json:"degraded"`
}

// DefaultDegradedBurn is the 5m burn rate at which an objective reports
// degraded: 2× means the budget would be gone in half the horizon.
const DefaultDegradedBurn = 2.0

// SLOEngine evaluates objectives over a rollup's ring.
type SLOEngine struct {
	rollup       *Rollup
	objs         []Objective
	degradedBurn float64
}

// NewSLOEngine attaches an engine to the rollup's registry (so
// MetricsHandler appends ceresz_slo_* gauges). degradedBurn <= 0 uses
// DefaultDegradedBurn.
func NewSLOEngine(rp *Rollup, objs []Objective, degradedBurn float64) *SLOEngine {
	if degradedBurn <= 0 {
		degradedBurn = DefaultDegradedBurn
	}
	e := &SLOEngine{rollup: rp, objs: objs, degradedBurn: degradedBurn}
	rp.reg.slo.Store(e)
	return e
}

// Objectives returns the engine's bound objectives.
func (e *SLOEngine) Objectives() []Objective { return e.objs }

// Evaluate computes every objective's status from the current ring. Time
// is ring-relative (the newest window's end), so manually-ticked rollups
// evaluate deterministically.
func (e *SLOEngine) Evaluate() []SLOStatus {
	windows := e.rollup.Windows(0)
	out := make([]SLOStatus, len(e.objs))
	var now time.Time
	if len(windows) > 0 {
		now = windows[len(windows)-1].End
	}
	for i, o := range e.objs {
		st := SLOStatus{Spec: o.Spec, Compliance: 1, BudgetRemaining: 1}
		var good5, total5, good60, total60 int64
		for _, w := range windows {
			g, t := o.goodTotal(w)
			st.Good += g
			st.Total += t
			if now.Sub(w.End) < 5*time.Minute {
				good5 += g
				total5 += t
			}
			if now.Sub(w.End) < time.Hour {
				good60 += g
				total60 += t
			}
		}
		if len(windows) > 0 {
			st.HorizonSeconds = now.Sub(windows[0].Start).Seconds()
		}
		budget := 1 - o.Spec.Target
		if st.Total > 0 {
			st.Compliance = float64(st.Good) / float64(st.Total)
			st.BudgetRemaining = 1 - (1-st.Compliance)/budget
		}
		st.BurnRate5m = burnRate(good5, total5, budget)
		st.BurnRate1h = burnRate(good60, total60, budget)
		st.Degraded = st.BurnRate5m >= e.degradedBurn
		out[i] = st
	}
	return out
}

// burnRate is badFraction / budgetFraction; 0 with no traffic.
func burnRate(good, total int64, budget float64) float64 {
	if total <= 0 {
		return 0
	}
	return (float64(total-good) / float64(total)) / budget
}

// Degraded reports whether any objective is currently burning fast.
func (e *SLOEngine) Degraded() ([]SLOStatus, bool) {
	statuses := e.Evaluate()
	for _, st := range statuses {
		if st.Degraded {
			return statuses, true
		}
	}
	return statuses, false
}

// sloView is the /debug/slo response document.
type sloView struct {
	DegradedBurn float64     `json:"degraded_burn_threshold"`
	Degraded     bool        `json:"degraded"`
	Objectives   []SLOStatus `json:"objectives"`
}

// Handler serves the engine's evaluation as JSON — /debug/slo.
func (e *SLOEngine) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		statuses, degraded := e.Degraded()
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(sloView{DegradedBurn: e.degradedBurn, Degraded: degraded, Objectives: statuses})
	})
}

// labelEscape escapes a Prometheus label value.
func labelEscape(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

// writeOpenMetrics appends the ceresz_slo_* gauge families, one sample
// per objective labeled with its raw spec.
func (e *SLOEngine) writeOpenMetrics(w io.Writer) (int64, error) {
	var total int64
	emit := func(format string, args ...any) error {
		n, err := fmt.Fprintf(w, format, args...)
		total += int64(n)
		return err
	}
	statuses := e.Evaluate()
	sort.Slice(statuses, func(i, j int) bool { return statuses[i].Spec.Raw < statuses[j].Spec.Raw })
	families := [...]struct {
		name string
		help string
		val  func(SLOStatus) float64
	}{
		{"ceresz_slo_compliance", "Good-event fraction over the rollup horizon.", func(s SLOStatus) float64 { return s.Compliance }},
		{"ceresz_slo_budget_remaining", "Error budget remaining over the rollup horizon (1 = untouched, <0 = overspent).", func(s SLOStatus) float64 { return s.BudgetRemaining }},
		{"ceresz_slo_burn_rate_5m", "Error-budget burn rate over the trailing 5 minutes (1.0 = exactly on budget).", func(s SLOStatus) float64 { return s.BurnRate5m }},
		{"ceresz_slo_burn_rate_1h", "Error-budget burn rate over the trailing hour.", func(s SLOStatus) float64 { return s.BurnRate1h }},
		{"ceresz_slo_degraded", "1 when the objective's 5m burn rate is at or over the degraded threshold.", func(s SLOStatus) float64 {
			if s.Degraded {
				return 1
			}
			return 0
		}},
	}
	for _, f := range families {
		if err := emit("# HELP %s %s\n# TYPE %s gauge\n", f.name, f.help, f.name); err != nil {
			return total, err
		}
		for _, st := range statuses {
			if err := emit("%s{slo=\"%s\"} %g\n", f.name, labelEscape(st.Spec.Raw), f.val(st)); err != nil {
				return total, err
			}
		}
	}
	return total, nil
}
