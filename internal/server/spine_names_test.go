package server

import (
	"ceresz/internal/spine"
	"ceresz/internal/telemetry"
)

// The tests' short names for the spine identifiers they use.

const (
	epCompress        = spine.Compress
	maxPostDrainBytes = spine.MaxPostDrainBytes
)

// cparams is a compress request's parameters, as spine.ParseCompress
// resolves them.
type cparams = spine.CompressParams

// accessEntry is one access-log line.
type accessEntry = recordJSON

// ParseObjectives binds SLO specs to the server's instruments.
func ParseObjectives(raw string) ([]telemetry.Objective, error) {
	return spine.ParseObjectives("server", raw)
}

// epMetrics is the per-chunk slice of an endpoint's instruments the alloc
// tests bump against a live registry.
type epMetrics struct {
	chunks, bytesIn, bytesOut *telemetry.Counter
	latencyUS                 *telemetry.Histogram
}

func newEpMetrics(reg *telemetry.Registry, ep uint8) epMetrics {
	m := newEndpoint(reg, ep)
	return epMetrics{chunks: m.chunks, bytesIn: m.BytesIn, bytesOut: m.BytesOut, latencyUS: m.LatencyUS}
}
