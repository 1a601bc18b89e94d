package ceresz

import "ceresz/internal/telemetry"

// Telemetry is a point-in-time snapshot of the instrumentation registry:
// named counters, gauges (with ".max" high-water entries) and power-of-two
// histograms; a duration is a histogram of nanoseconds. It marshals directly to JSON and renders as
// sorted text via String.
//
// Two registries exist. Simulated runs each carry a private one, returned
// in SimResult.Telemetry, so concurrent simulations never mix. The host
// compression path (Compress / Decompress, StreamWriter, Bundle*) shares a
// process-wide registry that starts disabled and costs one branch per
// instrument until EnableTelemetry is called.
type Telemetry = telemetry.Snapshot

// HistStats is a histogram's aggregate inside a Telemetry snapshot.
type HistStats = telemetry.HistStats

// EnableTelemetry turns on the process-wide host-path registry. The host
// compressor then records call durations, block and byte counters, and
// worker occupancy, at well under 5% overhead.
func EnableTelemetry() { telemetry.Enable() }

// DisableTelemetry turns the host-path registry back off.
func DisableTelemetry() { telemetry.Disable() }

// TelemetryEnabled reports whether the host-path registry is recording.
func TelemetryEnabled() bool { return telemetry.Enabled() }

// HostTelemetry snapshots the process-wide host-path registry (what
// `ceresz -stats` prints after a run).
func HostTelemetry() Telemetry { return telemetry.Default.Snapshot() }
