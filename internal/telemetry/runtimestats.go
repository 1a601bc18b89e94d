package telemetry

import (
	"math"
	"runtime"
	"runtime/metrics"
)

// Go runtime health, read through runtime/metrics and surfaced two ways:
// as registry gauges (so /debug/metrics and the rollup windows carry heap
// size, GC pauses, goroutine count and scheduler latency next to the
// serving metrics) and as a RuntimeStats document the flight recorder
// embeds verbatim in incident dumps — an incident file must answer "was
// the runtime healthy?" without a second scrape.

// runtimeSamples is the fixed sample set read on every update. All names
// have existed since Go 1.17, so Read never returns KindBad for them.
var runtimeSampleNames = []string{
	"/sched/goroutines:goroutines",
	"/memory/classes/heap/objects:bytes",
	"/memory/classes/total:bytes",
	"/gc/cycles/total:gc-cycles",
	"/gc/pauses:seconds",
	"/sched/latencies:seconds",
}

// RuntimeStats is one reading of the process's runtime health.
type RuntimeStats struct {
	GoVersion     string `json:"go_version"`
	Goroutines    int64  `json:"goroutines"`
	HeapBytes     int64  `json:"heap_bytes"`
	TotalBytes    int64  `json:"total_bytes"`
	GCCycles      int64  `json:"gc_cycles"`
	GCPauseP50Ns  int64  `json:"gc_pause_p50_ns"`
	GCPauseP99Ns  int64  `json:"gc_pause_p99_ns"`
	SchedLatP50Ns int64  `json:"sched_latency_p50_ns"`
	SchedLatP99Ns int64  `json:"sched_latency_p99_ns"`
}

// ReadRuntimeStats samples the runtime. The pause and scheduler-latency
// quantiles are over the process lifetime (runtime/metrics histograms are
// cumulative); the rollup layer windows the gauge forms instead.
func ReadRuntimeStats() RuntimeStats {
	samples := make([]metrics.Sample, len(runtimeSampleNames))
	for i, name := range runtimeSampleNames {
		samples[i].Name = name
	}
	metrics.Read(samples)
	st := RuntimeStats{GoVersion: runtime.Version()}
	for _, s := range samples {
		switch s.Name {
		case "/sched/goroutines:goroutines":
			st.Goroutines = int64(s.Value.Uint64())
		case "/memory/classes/heap/objects:bytes":
			st.HeapBytes = int64(s.Value.Uint64())
		case "/memory/classes/total:bytes":
			st.TotalBytes = int64(s.Value.Uint64())
		case "/gc/cycles/total:gc-cycles":
			st.GCCycles = int64(s.Value.Uint64())
		case "/gc/pauses:seconds":
			st.GCPauseP50Ns = float64HistQuantileNs(s.Value.Float64Histogram(), 0.50)
			st.GCPauseP99Ns = float64HistQuantileNs(s.Value.Float64Histogram(), 0.99)
		case "/sched/latencies:seconds":
			st.SchedLatP50Ns = float64HistQuantileNs(s.Value.Float64Histogram(), 0.50)
			st.SchedLatP99Ns = float64HistQuantileNs(s.Value.Float64Histogram(), 0.99)
		}
	}
	return st
}

// float64HistQuantileNs estimates the q-quantile of a runtime/metrics
// histogram (bucket values in seconds) in nanoseconds, by the bucket
// holding the target rank.
func float64HistQuantileNs(h *metrics.Float64Histogram, q float64) int64 {
	if h == nil {
		return 0
	}
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum float64
	for i, c := range h.Counts {
		cum += float64(c)
		if cum >= rank {
			// Bucket i spans Buckets[i]..Buckets[i+1]; report the upper
			// edge (conservative), clamping the open-ended tails.
			hi := h.Buckets[i+1]
			if math.IsInf(hi, +1) {
				hi = h.Buckets[i]
			}
			if math.IsInf(hi, -1) || hi < 0 {
				hi = 0
			}
			return int64(hi * 1e9)
		}
	}
	return 0
}

// Runtime gauge names under the registry's namespace; Describe'd once in
// UpdateRuntimeGauges so the exposition carries HELP text for them.
var runtimeGaugeHelp = map[string]string{
	"runtime.goroutines":           "Live goroutine count (/sched/goroutines).",
	"runtime.heap_bytes":           "Bytes of live heap objects (/memory/classes/heap/objects).",
	"runtime.total_bytes":          "Total bytes of memory mapped by the Go runtime (/memory/classes/total).",
	"runtime.gc_cycles":            "Completed GC cycles since process start (/gc/cycles/total).",
	"runtime.gc_pause_p99_ns":      "p99 stop-the-world GC pause, process lifetime (/gc/pauses).",
	"runtime.sched_latency_p99_ns": "p99 goroutine scheduling latency, process lifetime (/sched/latencies).",
}

// UpdateRuntimeGauges refreshes the runtime.* gauges from runtime/metrics.
// Scrape-triggered (MetricsHandler) and rollup-tick-triggered, so both the
// cumulative exposition and the time-series windows see runtime health
// without a background poller of its own.
func (r *Registry) UpdateRuntimeGauges() {
	if !r.Enabled() {
		return
	}
	r.mu.Lock()
	if _, ok := r.help["runtime.goroutines"]; !ok {
		for name, help := range runtimeGaugeHelp {
			r.help[name] = help
		}
	}
	r.mu.Unlock()
	st := ReadRuntimeStats()
	r.Gauge("runtime.goroutines").Set(st.Goroutines)
	r.Gauge("runtime.heap_bytes").Set(st.HeapBytes)
	r.Gauge("runtime.total_bytes").Set(st.TotalBytes)
	r.Gauge("runtime.gc_cycles").Set(st.GCCycles)
	r.Gauge("runtime.gc_pause_p99_ns").Set(st.GCPauseP99Ns)
	r.Gauge("runtime.sched_latency_p99_ns").Set(st.SchedLatP99Ns)
}
