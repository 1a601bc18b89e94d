// Package client is the Go client for cereszd (internal/server): raw
// float slices go up, CSZF framed streams come back, with context-aware
// retry and exponential backoff that honors the server's Retry-After
// backpressure hints. A Client is safe for concurrent use; its requests
// are rebuilt from in-memory payloads, so every retry sends a complete
// body.
//
// Float slices are sent and received in place (package rawfloat): on a
// little-endian host Compress posts the caller's slice as the request body
// and Decompress reads the response into the slice it returns, without an
// intermediate byte buffer on either side.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"ceresz/internal/core"
	"ceresz/internal/cszf"
	"ceresz/internal/rawfloat"
)

// Bound mirrors the server's error-bound query parameters.
type Bound struct {
	// Rel selects value-range-relative mode (the paper's REL); false = ABS.
	Rel bool
	// Eps is the bound value (ε for ABS, λ for REL). Must be positive.
	Eps float64
}

// ABS returns an absolute error bound.
func ABS(eps float64) Bound { return Bound{Eps: eps} }

// REL returns a value-range-relative bound.
func REL(lambda float64) Bound { return Bound{Rel: true, Eps: lambda} }

func (b Bound) mode() string {
	if b.Rel {
		return "rel"
	}
	return "abs"
}

// Config tunes a Client. The zero value retries 4 times with jittered
// exponential backoff starting at 100ms, capped at 5s.
type Config struct {
	// BaseURL is the server root, e.g. "http://localhost:8775".
	BaseURL string
	// HTTPClient overrides the transport (nil = http.DefaultClient).
	HTTPClient *http.Client
	// MaxRetries bounds re-sends after a retryable failure (<0 = none).
	MaxRetries int
	// BaseBackoff is the first retry delay; it doubles per attempt.
	BaseBackoff time.Duration
	// MaxBackoff caps the delay between attempts.
	MaxBackoff time.Duration
	// ChunkElems asks the server to frame compress responses every N
	// elements (0 = server default).
	ChunkElems int
	// MaxIdleConnsPerHost sizes the default transport's connection pool
	// (0 = 64). Keep it at or above the caller's concurrency so every
	// in-flight request reuses a warm connection instead of re-dialing.
	// Ignored when HTTPClient is set.
	MaxIdleConnsPerHost int
	// Tenant tags every request with an X-Ceresz-Tenant header ("" =
	// untagged). cereszproxy passes it through; cereszd only labels its
	// access-log lines, /debug/requests and request spans with it.
	Tenant string
}

// Client talks to one cereszd instance.
type Client struct {
	cfg  Config
	http *http.Client

	mu  sync.Mutex
	rng *rand.Rand
}

// defaultHTTPClient builds the package's transport: DefaultTransport's
// dialer, proxy and TLS behavior, but with a connection pool sized for
// many concurrent requests against one host. http.DefaultTransport keeps
// only 2 idle connections per host, so a k-way load generator would
// re-dial (and re-handshake) on almost every request beyond k=2; the
// explicit idle timeout keeps pooled connections from outliving the
// server's own keep-alive window.
func defaultHTTPClient(maxIdlePerHost int) *http.Client {
	if maxIdlePerHost <= 0 {
		maxIdlePerHost = 64
	}
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConnsPerHost = maxIdlePerHost
	if t.MaxIdleConns < maxIdlePerHost {
		t.MaxIdleConns = maxIdlePerHost
	}
	t.IdleConnTimeout = 90 * time.Second
	return &http.Client{Transport: t}
}

// New returns a Client for cfg.BaseURL.
func New(cfg Config) *Client {
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = defaultHTTPClient(cfg.MaxIdleConnsPerHost)
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 4
	}
	if cfg.MaxRetries < 0 {
		cfg.MaxRetries = 0
	}
	if cfg.BaseBackoff <= 0 {
		cfg.BaseBackoff = 100 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 5 * time.Second
	}
	return &Client{
		cfg:  cfg,
		http: cfg.HTTPClient,
		rng:  rand.New(rand.NewSource(time.Now().UnixNano())),
	}
}

// StatusError reports a non-2xx response that was not retried to success.
type StatusError struct {
	Code int
	Body string
	// RequestID is the server-assigned ID from X-Ceresz-Request-Id,
	// when present — quote it to correlate with server access logs.
	RequestID string
}

func (e *StatusError) Error() string {
	if e.RequestID != "" && !strings.Contains(e.Body, e.RequestID) {
		return fmt.Sprintf("client: server returned %d (request %s): %s",
			e.Code, e.RequestID, strings.TrimSpace(e.Body))
	}
	return fmt.Sprintf("client: server returned %d: %s", e.Code, strings.TrimSpace(e.Body))
}

// retryable reports whether a status is worth another attempt: explicit
// backpressure (429), drain/overload (503) and transient gateway failures.
func retryable(code int) bool {
	switch code {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable,
		http.StatusBadGateway, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// backoff computes the delay before attempt (0-based), honoring a
// Retry-After header when the server sent one. MaxBackoff caps the hint
// too: a server's hint must not park a call longer than its caller allows.
func (c *Client) backoff(attempt int, retryAfter string) time.Duration {
	if retryAfter != "" {
		if secs, err := strconv.Atoi(retryAfter); err == nil && secs >= 0 {
			if secs > int(c.cfg.MaxBackoff/time.Second) { // compared before the product can overflow
				return c.cfg.MaxBackoff
			}
			return time.Duration(secs) * time.Second
		}
		if t, err := http.ParseTime(retryAfter); err == nil {
			return min(max(time.Until(t), 0), c.cfg.MaxBackoff)
		}
	}
	d := c.cfg.BaseBackoff << attempt
	if d > c.cfg.MaxBackoff {
		d = c.cfg.MaxBackoff
	}
	// Full jitter: a fleet of clients rejected together must not retry
	// together.
	c.mu.Lock()
	d = time.Duration(c.rng.Int63n(int64(d) + 1))
	c.mu.Unlock()
	return d
}

// payload lends one call's request body — the caller's memory; for
// Compress, the caller's floats — to net/http. The transport can still be
// reading a request body after Do has returned (the server answered 429
// or 400 without reading it; Do failed), so its readers copy under mu and
// do takes the memory away under mu before it returns. After that no
// goroutine of the transport touches it and the caller may overwrite it.
type payload struct {
	mu sync.Mutex
	b  []byte // nil once do has returned
}

// newBody returns a reader over the whole payload: one per attempt, and
// the request's GetBody for net/http's own replays.
func (p *payload) newBody() (io.ReadCloser, error) { return &payloadReader{p: p}, nil }

type payloadReader struct {
	p   *payload
	off int
}

func (r *payloadReader) Read(dst []byte) (int, error) {
	r.p.mu.Lock()
	defer r.p.mu.Unlock()
	if r.p.b == nil {
		return 0, errors.New("client: request body read after the call returned")
	}
	if r.off >= len(r.p.b) {
		return 0, io.EOF
	}
	n := copy(dst, r.p.b[r.off:])
	r.off += n
	return n, nil
}

func (r *payloadReader) Close() error { return nil }

// do POSTs body to path with retry, handing each 2xx response body to recv
// (which must read it to EOF — that is also what makes the trailers
// arrive). The connection is released before do returns and body is not
// touched after. Every attempt carries a traceparent header — one
// trace-id for the whole call, a fresh span-id per attempt — and when tr
// is non-nil the attempt/rejection counts, the server's request ID and
// the Server-Timing trailer are recorded into it.
func (c *Client) do(ctx context.Context, path string, body []byte, recv func(io.Reader) error, tr *Trace) error {
	traceID := c.newTraceID()
	if tr != nil {
		tr.TraceID = traceID
	}
	pl := &payload{b: body}
	defer func() { pl.mu.Lock(); pl.b = nil; pl.mu.Unlock() }()
	var lastErr error
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.cfg.BaseURL+path, nil)
		if err != nil {
			return err
		}
		if len(body) > 0 {
			// What NewRequest sets up for a *bytes.Reader: Content-Length
			// rather than chunked encoding, and a way to replay the body.
			req.Body, _ = pl.newBody()
			req.ContentLength, req.GetBody = int64(len(body)), pl.newBody
		}
		req.Header.Set("Content-Type", "application/octet-stream")
		req.Header.Set("Traceparent", traceparent(traceID, c.newSpanID()))
		c.setTenant(req)
		if tr != nil {
			tr.Attempts++
		}
		resp, err := c.http.Do(req)
		var retryAfter string
		if err != nil {
			lastErr = err
			if tr != nil {
				tr.Errors++
				tr.Status = 0
			}
		} else {
			reqID := resp.Header.Get("X-Ceresz-Request-Id")
			ok := resp.StatusCode/100 == 2
			var errText bytes.Buffer
			var rerr error
			if ok {
				rerr = recv(resp.Body)
			} else {
				_, rerr = errText.ReadFrom(io.LimitReader(resp.Body, 64<<10))
			}
			resp.Body.Close()
			if tr != nil {
				tr.Status = resp.StatusCode
				tr.RequestID = reqID
				// Trailers materialize only after the body is drained.
				if st := parseServerTiming(resp.Trailer.Get("Server-Timing")); st.Valid {
					tr.Server = st
				}
				if resp.StatusCode == http.StatusTooManyRequests {
					tr.Rejected429++
				}
				if rerr != nil || !ok {
					tr.Errors++
				}
			}
			if rerr != nil {
				lastErr = rerr
			} else if ok {
				return nil
			} else {
				lastErr = &StatusError{Code: resp.StatusCode, Body: errText.String(), RequestID: reqID}
				if !retryable(resp.StatusCode) {
					return lastErr
				}
				retryAfter = resp.Header.Get("Retry-After")
			}
		}
		if attempt >= c.cfg.MaxRetries {
			return lastErr
		}
		select {
		case <-time.After(c.backoff(attempt, retryAfter)):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// post is do for the calls that answer with an opaque byte stream. It is
// collected in a buffer that starts at a quarter of the request — room for
// anything that compresses 4× or better — and doubles from there;
// io.ReadAll would regrow it thirty-odd times from 512 bytes.
func (c *Client) post(ctx context.Context, path string, body []byte, tr *Trace) ([]byte, error) {
	var out *bytes.Buffer
	err := c.do(ctx, path, body, func(r io.Reader) error {
		out = bytes.NewBuffer(make([]byte, 0, len(body)/4+bytes.MinRead))
		_, err := out.ReadFrom(r)
		return err
	}, tr)
	if err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// elemNames maps an element size to its ?elem= value.
var elemNames = map[int]string{4: "f32", 8: "f64"}

// compressQuery renders the /v1/compress query string.
func (c *Client) compressQuery(bound Bound, elem string) string {
	q := fmt.Sprintf("?mode=%s&eps=%s&elem=%s", bound.mode(),
		strconv.FormatFloat(bound.Eps, 'g', -1, 64), elem)
	if c.cfg.ChunkElems > 0 {
		q += "&chunk=" + strconv.Itoa(c.cfg.ChunkElems)
	}
	return q
}

// Compress sends data and returns the server's CSZF framed stream — the
// same bytes StreamWriter would produce locally with matching chunking.
// data is read until Compress returns and not after.
func (c *Client) Compress(ctx context.Context, data []float32, bound Bound) ([]byte, error) {
	return compress(c, ctx, data, bound, nil)
}

// Compress64 is Compress for double precision.
func (c *Client) Compress64(ctx context.Context, data []float64, bound Bound) ([]byte, error) {
	return compress(c, ctx, data, bound, nil)
}

func compress[F rawfloat.Float](c *Client, ctx context.Context, data []F, bound Bound, tr *Trace) ([]byte, error) {
	return c.post(ctx, "/v1/compress"+c.compressQuery(bound, elemNames[rawfloat.Size[F]()]), rawfloat.Bytes(nil, data), tr)
}

// Decompress sends a CSZF framed stream and returns the float32 values.
func (c *Client) Decompress(ctx context.Context, framed []byte) ([]float32, error) {
	return decompress[float32](c, ctx, framed)
}

// Decompress64 sends a CSZF framed stream of float64 chunks.
func (c *Client) Decompress64(ctx context.Context, framed []byte) ([]float64, error) {
	return decompress[float64](c, ctx, framed)
}

// maxDeclaredElems caps what declaredElements reports, and so the
// allocation a request's own frame headers can ask Decompress for.
const maxDeclaredElems = 1 << 30

// declaredElements is the size of the response a server that accepts
// framed will send: the elements framed's frames declare
// (cszf.DeclaredElements), all of the element type elemSize bytes wide, at
// most maxDeclaredElems. ok is false when the walk cannot vouch for a count
// — a malformed or truncated frame, the other element type, more blocks
// than a frame's bytes could hold, a total past the cap. The server refuses
// all of those itself.
func declaredElements(framed []byte, elemSize int) (n int, ok bool) {
	elem := core.Float32
	if elemSize == 8 {
		elem = core.Float64
	}
	return cszf.DeclaredElements(framed, elem, maxDeclaredElems)
}

// decompress posts framed and reads the floats that come back into a
// result allocated once, at the size framed's own headers declare. A 200
// that is shorter or longer than that is an error, never a result. For a
// request declaredElements cannot size — the server will say what is
// wrong with it — a 200 is taken as it comes: whole elements, same cap.
func decompress[F rawfloat.Float](c *Client, ctx context.Context, framed []byte) ([]F, error) {
	es := rawfloat.Size[F]()
	want, sized := declaredElements(framed, es)
	var out []F
	err := c.do(ctx, "/v1/decompress?elem="+elemNames[es], framed, func(r io.Reader) error {
		if !sized {
			var raw bytes.Buffer
			if _, err := raw.ReadFrom(io.LimitReader(r, int64(maxDeclaredElems)*int64(es)+1)); err != nil {
				return err
			}
			if raw.Len()%es != 0 || raw.Len()/es > maxDeclaredElems {
				return fmt.Errorf("client: response length %d is not a multiple of %d within %d elements", raw.Len(), es, maxDeclaredElems)
			}
			out = make([]F, raw.Len()/es)
			rawfloat.Decode(out, raw.Bytes())
			return nil
		}
		if out == nil {
			out = make([]F, want) // a retry reads over it
		}
		got, err := rawfloat.ReadFull(r, out, nil)
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return fmt.Errorf("client: response ends after %d bytes, the request's frames declare %d", len(got), want*es)
		}
		if err == nil {
			if _, err = io.ReadFull(r, make([]byte, 1)); err == nil {
				return fmt.Errorf("client: response continues past the %d bytes the request's frames declare", want*es)
			}
		}
		if err == io.EOF {
			return nil
		}
		return err
	}, nil)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// BundleField describes one field of a Bundle call.
type BundleField struct {
	Name string
	// Dims is the field's grid; zero entries normalize to 1.
	Dims [3]int
	// Bound is the field's error bound.
	Bound Bound
	// F32 or F64 holds the data (exactly one must be set).
	F32 []float32
	F64 []float64
}

// Bundle compresses the fields into one CSZB bundle server-side.
func (c *Client) Bundle(ctx context.Context, fields []BundleField) ([]byte, error) {
	specs := make([]cszf.FieldSpec, len(fields))
	size := 0
	for i, f := range fields {
		specs[i] = cszf.FieldSpec{Name: f.Name, Dims: f.Dims, Mode: f.Bound.mode(), Eps: f.Bound.Eps}
		switch {
		case f.F32 != nil && f.F64 == nil:
			specs[i].Elem = "f32"
			size += 4 * len(f.F32)
		case f.F64 != nil && f.F32 == nil:
			specs[i].Elem = "f64"
			size += 8 * len(f.F64)
		default:
			return nil, fmt.Errorf("client: field %q must set exactly one of F32/F64", f.Name)
		}
	}
	body, err := cszf.AppendManifest(nil, specs)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	body = slices.Grow(body, size)
	for _, f := range fields {
		if f.F32 != nil {
			body = rawfloat.Append(body, f.F32)
		} else {
			body = rawfloat.Append(body, f.F64)
		}
	}
	return c.post(ctx, "/v1/bundle", body, nil)
}

// setTenant stamps the configured tenant identity onto req. Every
// request carries it — data paths and probes alike — so all of a
// client's traffic carries one label.
func (c *Client) setTenant(req *http.Request) {
	if c.cfg.Tenant != "" {
		req.Header.Set("X-Ceresz-Tenant", c.cfg.Tenant)
	}
}

// Health probes /healthz; nil means the server is up and not draining.
func (c *Client) Health(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.cfg.BaseURL+"/healthz", nil)
	if err != nil {
		return err
	}
	c.setTenant(req)
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return &StatusError{Code: resp.StatusCode, Body: string(body)}
	}
	return nil
}

// SLOState is one burning objective in a degraded readiness body. Field
// names mirror the server's /healthz/ready JSON.
type SLOState struct {
	Spec            string  `json:"spec"`
	BurnRate5m      float64 `json:"burn_rate_5m"`
	BudgetRemaining float64 `json:"budget_remaining"`
}

// Readiness is the decoded /healthz/ready body: "ok", "degraded" (still
// serving, but an SLO is burning fast — SLO lists the offenders), or the
// 503 states "starting"/"draining".
type Readiness struct {
	Status string     `json:"status"`
	SLO    []SLOState `json:"slo,omitempty"`
}

// Degraded reports whether the server answered ready-but-degraded.
func (r Readiness) Degraded() bool { return r.Status == "degraded" }

// Ready probes /healthz/ready and decodes the body detail. A non-200
// answer returns the Readiness (Status "starting"/"draining" when the
// body parsed) alongside a *StatusError, so callers can distinguish a
// drain from a dead server.
func (c *Client) Ready(ctx context.Context) (Readiness, error) {
	var rd Readiness
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.cfg.BaseURL+"/healthz/ready", nil)
	if err != nil {
		return rd, err
	}
	c.setTenant(req)
	resp, err := c.http.Do(req)
	if err != nil {
		return rd, err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	_ = json.Unmarshal(body, &rd)
	if resp.StatusCode != http.StatusOK {
		return rd, &StatusError{Code: resp.StatusCode, Body: string(body)}
	}
	return rd, nil
}
