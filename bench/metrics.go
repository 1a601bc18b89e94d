package main

import (
	"encoding/json"
	"fmt"
	"io"
)

// metricDef declares one metric. Bound is the share of the baseline
// median by which an end-to-end metric may worsen before -compare (and
// the driver) call it a regression; per-layer metrics carry none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is what a user of the system sees. Every workload reports
// every one of them: the latency rows are per operation (one pass over
// the input for the library workloads, one request for the serving ones,
// one simulated run for wse-sim).
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"peak_rss_mb", "MiB", lower, 0.15},
	{"compress_mbps", "MB/s", higher, 0.25},
	{"decompress_mbps", "MB/s", higher, 0.25},
	{"compress_p50_ms", "ms", lower, 0.25},
	{"compress_p90_ms", "ms", lower, 0.25},
	{"decompress_p50_ms", "ms", lower, 0.25},
	{"decompress_p90_ms", "ms", lower, 0.25},
	{"ratio", "x", higher, 0.25},
	{"max_err_over_eps", "eps", lower, 0.01},
}

// parallelOnly are the metrics that mean nothing on one CPU: they are
// reported as null (and left out of the driver line) when GOMAXPROCS is 1,
// so a 1-CPU recording cannot pass for a parallel result.
var parallelOnly = map[string]bool{
	"hostpool.compress_par_mbps":   true,
	"hostpool.decompress_par_mbps": true,
	"hostpool.speedup_compress":    true,
	"hostpool.speedup_decompress":  true,
}

// perLayer is one row per thing a single module does, measured by the
// traced pass calling that module's exported functions on the workload's
// own input.
var perLayer = []metricDef{
	{Name: "host.memcpy_gbps", Unit: "GB/s", Better: higher},
	{Name: "host.num_cpu", Unit: "count", Better: higher},
	{Name: "host.gomaxprocs", Unit: "count", Better: higher},
	{Name: "host.l2_kib", Unit: "KiB", Better: higher},
	{Name: "host.l3_kib", Unit: "KiB", Better: higher},

	{Name: "flenc.shuffle_gbps", Unit: "GB/s", Better: higher},
	{Name: "flenc.unshuffle_gbps", Unit: "GB/s", Better: higher},
	{Name: "flenc.encode_block_ns", Unit: "ns", Better: lower},
	{Name: "flenc.decode_block_ns", Unit: "ns", Better: lower},
	{Name: "flenc.shuffle_vs_scalar", Unit: "x", Better: higher},
	{Name: "quant.range_gbps", Unit: "GB/s", Better: higher},
	{Name: "lorenzo.forward_gbps", Unit: "GB/s", Better: higher},
	{Name: "lorenzo.inverse_gbps", Unit: "GB/s", Better: higher},

	{Name: "core.compress_mbps", Unit: "MB/s", Better: higher},
	{Name: "core.decompress_mbps", Unit: "MB/s", Better: higher},
	{Name: "core.compress64_mbps", Unit: "MB/s", Better: higher},
	{Name: "core.decompress64_mbps", Unit: "MB/s", Better: higher},
	{Name: "core.ns_per_elem", Unit: "ns", Better: lower},
	{Name: "core.frac_of_memcpy", Unit: "x", Better: higher},
	{Name: "core.zero_block_share", Unit: "x", Better: higher},
	{Name: "core.mean_width_bits", Unit: "bits", Better: lower},
	{Name: "core.verbatim_blocks", Unit: "count", Better: lower},
	{Name: "core.allocs_per_op", Unit: "count", Better: lower},

	{Name: "hostpool.compress_par_mbps", Unit: "MB/s", Better: higher},
	{Name: "hostpool.decompress_par_mbps", Unit: "MB/s", Better: higher},
	{Name: "hostpool.speedup_compress", Unit: "x", Better: higher},
	{Name: "hostpool.speedup_decompress", Unit: "x", Better: higher},
	{Name: "hostpool.run_empty_ns", Unit: "ns", Better: lower},
	{Name: "hostpool.stitch_overhead_pct", Unit: "%", Better: lower},

	{Name: "stream.write_mbps", Unit: "MB/s", Better: higher},
	{Name: "stream.read_mbps", Unit: "MB/s", Better: higher},
	{Name: "stream.self_ms", Unit: "ms", Better: lower},
	{Name: "bundle.add_mbps", Unit: "MB/s", Better: higher},
	{Name: "bundle.read_mbps", Unit: "MB/s", Better: higher},

	{Name: "chunkcache.key_gbps", Unit: "GB/s", Better: higher},
	{Name: "chunkcache.key_ms_per_req", Unit: "ms", Better: lower},
	{Name: "chunkcache.hit_ns", Unit: "ns", Better: lower},
	{Name: "chunkcache.miss_complete_ns", Unit: "ns", Better: lower},
	{Name: "chunkcache.hit_share", Unit: "x", Better: higher},
	{Name: "chunkcache.evictions", Unit: "count", Better: lower},

	{Name: "server.handler_compress_ms", Unit: "ms", Better: lower},
	{Name: "server.handler_decompress_ms", Unit: "ms", Better: lower},
	{Name: "server.handler_self_ms", Unit: "ms", Better: lower},
	{Name: "server.socket_self_ms", Unit: "ms", Better: lower},
	{Name: "server.stage.admit_us", Unit: "us", Better: lower},
	{Name: "server.stage.worker_us", Unit: "us", Better: lower},
	{Name: "server.stage.read_us", Unit: "us", Better: lower},
	{Name: "server.stage.cache_us", Unit: "us", Better: lower},
	{Name: "server.stage.codec_us", Unit: "us", Better: lower},
	{Name: "server.stage.write_us", Unit: "us", Better: lower},
	{Name: "server.total_us", Unit: "us", Better: lower},
	{Name: "server.rejected_429", Unit: "count", Better: lower},
	{Name: "server.alloc_bytes_per_req", Unit: "B", Better: lower},
	{Name: "server.compress_p99_ms", Unit: "ms", Better: lower},
	{Name: "server.decompress_p99_ms", Unit: "ms", Better: lower},

	{Name: "client.encode_ms", Unit: "ms", Better: lower},
	{Name: "client.overhead_ms", Unit: "ms", Better: lower},

	{Name: "cluster.hop_self_ms", Unit: "ms", Better: lower},
	{Name: "cluster.buffered_p50_ms", Unit: "ms", Better: lower},
	{Name: "cluster.buffered_big_p50_ms", Unit: "ms", Better: lower},
	{Name: "cluster.streamed_p50_ms", Unit: "ms", Better: lower},
	{Name: "cluster.streamed_failed", Unit: "count", Better: lower},
	{Name: "cluster.owner_ns", Unit: "ns", Better: lower},
	{Name: "cluster.affinity_hit_share", Unit: "x", Better: higher},
	{Name: "cluster.backend_share_max", Unit: "x", Better: lower},
	{Name: "cluster.failovers", Unit: "count", Better: lower},
	{Name: "cluster.p99_ms", Unit: "ms", Better: lower},

	{Name: "wse.cycles_compress.64x8", Unit: "cycles", Better: lower},
	{Name: "wse.cycles_decompress.64x8", Unit: "cycles", Better: lower},
	{Name: "wse.cycles_compress.64x64", Unit: "cycles", Better: lower},
	{Name: "wse.cycles_decompress.64x64", Unit: "cycles", Better: lower},
	{Name: "wse.cycles_compress.128x16", Unit: "cycles", Better: lower},
	{Name: "wse.cycles_decompress.128x16", Unit: "cycles", Better: lower},
	{Name: "wse.model_gbps", Unit: "GB/s", Better: higher},
	{Name: "wse.blocks_per_s", Unit: "1/s", Better: higher},
	{Name: "wse.events_per_s", Unit: "1/s", Better: higher},
	{Name: "mapping.plan_ms", Unit: "ms", Better: lower},
	{Name: "stages.estimate_width_ms", Unit: "ms", Better: lower},

	{Name: "telemetry.enabled_overhead_pct", Unit: "%", Better: lower},
	{Name: "trace.overhead_pct", Unit: "%", Better: lower},
	{Name: "trace.self_sum_ratio", Unit: "x", Better: lower},
}

// exact are the metrics that repeat bit for bit on one seed: -compare
// reports whether two recordings of them are identical.
var exact = map[string]bool{
	"ratio": true, "max_err_over_eps": true,
	"core.zero_block_share": true, "core.mean_width_bits": true, "core.verbatim_blocks": true,
	"wse.model_gbps":           true,
	"wse.cycles_compress.64x8": true, "wse.cycles_decompress.64x8": true,
	"wse.cycles_compress.64x64": true, "wse.cycles_decompress.64x64": true,
	"wse.cycles_compress.128x16": true, "wse.cycles_decompress.128x16": true,
}

// runSeconds is how long one driver run measures.
const runSeconds = 10

// writeManifest prints BENCHMARK.json: the file is generated from the
// tables above so the two cannot drift (bench_test.go compares them).
func writeManifest(w io.Writer) error {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type bounded struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type unbounded struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wl        `json:"workloads"`
		EndToEnd   []bounded   `json:"end_to_end"`
		PerLayer   []unbounded `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, d := range workloads {
		m.Workloads = append(m.Workloads, wl{d.name, d.why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, bounded{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, unbounded{d.Name, d.Unit, d.Better})
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
