package client

import (
	"context"
	"encoding/hex"
	"strconv"
	"strings"
	"time"
)

// Request tracing. Every request carries a W3C traceparent header:
// one trace-id per logical call (stable across retries, so all attempts
// of one Compress correlate in the server's access log) and a fresh
// span-id per attempt. The server echoes its request ID in
// X-Ceresz-Request-Id and returns per-stage timings in a Server-Timing
// trailer; CompressTraced and Compress64Traced surface both so callers
// can split measured latency into server stages versus network/client
// overhead.

// ServerTiming is the server's per-stage breakdown of one request,
// parsed from the Server-Timing response trailer. Stages follow the
// request lifecycle: admission wait, codec-worker wait, body read,
// chunk-cache lookup, codec compute, response write. Total is the
// server's own wall time for the request; the gap between a
// client-measured latency and Total is network plus client overhead.
type ServerTiming struct {
	Admit  time.Duration
	Worker time.Duration
	Read   time.Duration
	Cache  time.Duration
	Codec  time.Duration
	Write  time.Duration
	Total  time.Duration
	// Valid is true when the trailer was present and parsed. Error
	// responses and old servers carry no trailer.
	Valid bool
}

// Stages returns the sum of the individual stage durations (excluding
// Total, which also covers unattributed handler time).
func (st ServerTiming) Stages() time.Duration {
	return st.Admit + st.Worker + st.Read + st.Cache + st.Codec + st.Write
}

// parseServerTiming parses a Server-Timing header value of the form
// "admit;dur=0.012, worker;dur=0.000, ..., total;dur=1.234" (durations
// in milliseconds, per the Server-Timing spec).
func parseServerTiming(h string) ServerTiming {
	var st ServerTiming
	if h == "" {
		return st
	}
	for _, entry := range strings.Split(h, ",") {
		entry = strings.TrimSpace(entry)
		name, rest, ok := strings.Cut(entry, ";")
		if !ok {
			continue
		}
		var ms float64
		found := false
		for _, param := range strings.Split(rest, ";") {
			if v, ok := strings.CutPrefix(strings.TrimSpace(param), "dur="); ok {
				if f, err := strconv.ParseFloat(v, 64); err == nil {
					ms, found = f, true
				}
			}
		}
		if !found {
			continue
		}
		d := time.Duration(ms * float64(time.Millisecond))
		switch name {
		case "admit":
			st.Admit, st.Valid = d, true
		case "worker":
			st.Worker, st.Valid = d, true
		case "read":
			st.Read, st.Valid = d, true
		case "cache":
			st.Cache, st.Valid = d, true
		case "codec":
			st.Codec, st.Valid = d, true
		case "write":
			st.Write, st.Valid = d, true
		case "total":
			st.Total, st.Valid = d, true
		}
	}
	return st
}

// Trace reports what one logical call (including retries) did on the
// wire. Populated by CompressTraced and Compress64Traced.
type Trace struct {
	// TraceID is the 32-hex-digit W3C trace-id shared by every attempt.
	TraceID string
	// RequestID is the server-assigned ID echoed in X-Ceresz-Request-Id
	// on the last attempt; it appears in server access logs and error
	// bodies.
	RequestID string
	// Attempts counts HTTP requests sent (1 = first try succeeded).
	Attempts int
	// Rejected429 counts attempts refused with 429 backpressure.
	Rejected429 int
	// Errors counts failed attempts of any kind (non-2xx or transport).
	Errors int
	// Status is the final HTTP status (0 if no response arrived).
	Status int
	// Server holds the stage timings from the last attempt's
	// Server-Timing trailer.
	Server ServerTiming
}

// traceIDHex renders 16 random bytes as the traceparent trace-id field.
func traceIDHex(hi, lo uint64) string {
	var b [16]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(hi >> (56 - 8*i))
		b[8+i] = byte(lo >> (56 - 8*i))
	}
	// The all-zero trace-id is invalid per W3C trace-context.
	if hi == 0 && lo == 0 {
		b[15] = 1
	}
	return hex.EncodeToString(b[:])
}

// spanIDHex renders 8 random bytes as the traceparent parent-id field.
func spanIDHex(v uint64) string {
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (56 - 8*i))
	}
	if v == 0 {
		b[7] = 1
	}
	return hex.EncodeToString(b[:])
}

// newTraceID returns a fresh random trace-id in hex.
func (c *Client) newTraceID() string {
	c.mu.Lock()
	hi, lo := c.rng.Uint64(), c.rng.Uint64()
	c.mu.Unlock()
	return traceIDHex(hi, lo)
}

// newSpanID returns a fresh random span-id in hex.
func (c *Client) newSpanID() string {
	c.mu.Lock()
	v := c.rng.Uint64()
	c.mu.Unlock()
	return spanIDHex(v)
}

// traceparent assembles the header value for one attempt.
func traceparent(traceID, spanID string) string {
	return "00-" + traceID + "-" + spanID + "-01"
}

// CompressTraced is Compress returning wire-level trace detail.
func (c *Client) CompressTraced(ctx context.Context, data []float32, bound Bound) ([]byte, *Trace, error) {
	tr := &Trace{}
	out, err := compress(c, ctx, data, bound, tr)
	return out, tr, err
}

// Compress64Traced is Compress64 returning wire-level trace detail.
func (c *Client) Compress64Traced(ctx context.Context, data []float64, bound Bound) ([]byte, *Trace, error) {
	tr := &Trace{}
	out, err := compress(c, ctx, data, bound, tr)
	return out, tr, err
}
