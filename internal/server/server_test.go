package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ceresz"
	"ceresz/client"
	"ceresz/internal/telemetry"
)

func testData(n int, seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	data := make([]float32, n)
	v := 0.0
	for i := range data {
		v += rng.NormFloat64() * 0.01
		data[i] = float32(math.Sin(float64(i)*0.01)*2 + v)
	}
	return data
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = telemetry.NewRegistry()
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// localFrames builds the CSZF stream a correct server response must be
// byte-identical to: the same chunking through StreamWriter.
func localFrames(t *testing.T, data []float32, bound ceresz.Bound, chunkElems int) []byte {
	t.Helper()
	var buf bytes.Buffer
	sw := ceresz.NewStreamWriter(&buf, bound, ceresz.Options{Workers: 1})
	for start := 0; start < len(data); start += chunkElems {
		end := start + chunkElems
		if end > len(data) {
			end = len(data)
		}
		if _, err := sw.WriteChunk(data[start:end]); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// rawBytes serializes floats as the wire's little-endian body format.
func rawBytes(data []float32) []byte {
	raw := make([]byte, 4*len(data))
	for i, v := range data {
		binary.LittleEndian.PutUint32(raw[4*i:], math.Float32bits(v))
	}
	return raw
}

// postBody POSTs body to url and returns the response bytes, failing on a
// non-200 status.
func postBody(t *testing.T, url string, body []byte) []byte {
	t.Helper()
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, out)
	}
	return out
}

// TestEndToEndConcurrentClients is the issue's acceptance test: K
// concurrent clients compress and decompress through the server, and every
// response must match the direct library call bit-for-bit.
func TestEndToEndConcurrentClients(t *testing.T) {
	const chunkElems = 512
	_, ts := newTestServer(t, Config{Workers: 4, ChunkElems: chunkElems})

	K := 8
	if n := runtime.GOMAXPROCS(0); n > K {
		K = n
	}
	const perClient = 6
	var wg sync.WaitGroup
	errs := make(chan error, K*perClient)
	for k := 0; k < K; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			cl := client.New(client.Config{BaseURL: ts.URL, ChunkElems: chunkElems})
			ctx := context.Background()
			for i := 0; i < perClient; i++ {
				n := 700 + 311*((k+i)%5) // exercise partial trailing chunks
				data := testData(n, int64(1000*k+i))
				bound := client.ABS(1e-3)
				libBound := ceresz.ABS(1e-3)
				if i%2 == 1 {
					bound = client.REL(1e-3)
					libBound = ceresz.REL(1e-3)
				}
				framed, err := cl.Compress(ctx, data, bound)
				if err != nil {
					errs <- fmt.Errorf("client %d req %d: compress: %w", k, i, err)
					return
				}
				want := localFrames(t, data, libBound, chunkElems)
				if !bytes.Equal(framed, want) {
					errs <- fmt.Errorf("client %d req %d: server stream differs from library (%d vs %d bytes)",
						k, i, len(framed), len(want))
					return
				}
				// Round-trip through the server decode path too.
				back, err := cl.Decompress(ctx, framed)
				if err != nil {
					errs <- fmt.Errorf("client %d req %d: decompress: %w", k, i, err)
					return
				}
				direct := decodeLocal(t, framed)
				if len(back) != len(direct) {
					errs <- fmt.Errorf("client %d req %d: decoded %d elements, library %d", k, i, len(back), len(direct))
					return
				}
				for j := range back {
					if back[j] != direct[j] {
						errs <- fmt.Errorf("client %d req %d: element %d differs: %g vs %g", k, i, j, back[j], direct[j])
						return
					}
				}
			}
		}(k)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func decodeLocal(t *testing.T, framed []byte) []float32 {
	t.Helper()
	sr := ceresz.NewStreamReader(bytes.NewReader(framed))
	var all []float32
	for {
		chunk, err := sr.Next()
		if err == io.EOF {
			return all
		}
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, chunk...)
	}
}

func TestEndToEndFloat64(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, ChunkElems: 256})
	cl := client.New(client.Config{BaseURL: ts.URL, ChunkElems: 256})
	ctx := context.Background()
	data := make([]float64, 1000)
	for i := range data {
		data[i] = math.Sqrt(float64(i)) * 0.1
	}
	framed, err := cl.Compress64(ctx, data, client.ABS(1e-6))
	if err != nil {
		t.Fatal(err)
	}
	back, err := cl.Decompress64(ctx, framed)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(data) {
		t.Fatalf("decoded %d elements, want %d", len(back), len(data))
	}
	for i := range back {
		if math.Abs(back[i]-data[i]) > 1e-6 {
			t.Fatalf("element %d: |%g-%g| > 1e-6", i, back[i], data[i])
		}
	}
}

// TestBackpressure fills the admission queue and asserts the 429 +
// Retry-After contract, then drains and asserts recovery.
func TestBackpressure(t *testing.T) {
	reg := telemetry.NewRegistry()
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: -1, Registry: reg, RetryAfter: 2 * time.Second})

	// Occupy the single admission slot with a request whose body never
	// arrives until we say so.
	pr, pw := io.Pipe()
	blockedDone := make(chan error, 1)
	go func() {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/compress?eps=0.001", pr)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		blockedDone <- err
	}()

	// Wait until the blocked request holds the worker (it has read zero
	// body bytes, so it is inside the handler waiting on the pipe).
	deadline := time.Now().Add(5 * time.Second)
	for reg.Gauge("server.inflight").Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("blocked request never reached the handler")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The queue (capacity workers+depth = 1) is full: an overflow request
	// must be refused immediately with 429 and a Retry-After hint.
	resp, err := http.Post(ts.URL+"/v1/compress?eps=0.001", "application/octet-stream", bytes.NewReader(make([]byte, 64)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow request: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Fatalf("overflow request: Retry-After %q, want \"2\"", ra)
	}
	if got := reg.Counter("server.compress.rejected").Value(); got == 0 {
		t.Fatal("rejected counter did not move")
	}

	// Release the blocked request; after it drains, admission recovers.
	data := testData(64, 1)
	raw := make([]byte, 4*len(data))
	for i, v := range data {
		binary.LittleEndian.PutUint32(raw[4*i:], math.Float32bits(v))
	}
	if _, err := pw.Write(raw); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	if err := <-blockedDone; err != nil {
		t.Fatalf("blocked request failed: %v", err)
	}

	resp, err = http.Post(ts.URL+"/v1/compress?eps=0.001", "application/octet-stream", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-drain request: status %d, want 200", resp.StatusCode)
	}
}

// TestClientRetriesAfterBackpressure drives the client's backoff loop
// against a server that rejects then recovers.
func TestClientRetriesAfterBackpressure(t *testing.T) {
	var mu sync.Mutex
	rejections := 0
	inner := New(Config{Workers: 1, Registry: telemetry.NewRegistry()})
	h := inner.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		reject := rejections < 2
		if reject {
			rejections++
		}
		mu.Unlock()
		if reject && strings.HasPrefix(r.URL.Path, "/v1/") {
			w.Header().Set("Retry-After", "0")
			http.Error(w, "saturated", http.StatusTooManyRequests)
			return
		}
		h.ServeHTTP(w, r)
	}))
	defer ts.Close()

	cl := client.New(client.Config{BaseURL: ts.URL, MaxRetries: 4, BaseBackoff: time.Millisecond})
	framed, err := cl.Compress(context.Background(), testData(256, 2), client.ABS(1e-3))
	if err != nil {
		t.Fatalf("compress did not survive two 429s: %v", err)
	}
	if len(framed) == 0 {
		t.Fatal("empty stream")
	}
	mu.Lock()
	if rejections != 2 {
		t.Fatalf("server issued %d rejections, want 2", rejections)
	}
	mu.Unlock()
}

func TestRequestValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxBodyBytes: 1 << 16, MaxChunkElems: 1 << 12})
	post := func(path string, body []byte) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}
	cases := []struct {
		name string
		path string
		body []byte
		want int
	}{
		{"missing eps", "/v1/compress", nil, 400},
		{"bad eps", "/v1/compress?eps=-1", nil, 400},
		{"bad mode", "/v1/compress?eps=0.1&mode=pct", nil, 400},
		{"bad elem", "/v1/compress?eps=0.1&elem=f16", nil, 400},
		{"chunk too big", "/v1/compress?eps=0.1&chunk=999999999", nil, 400},
		{"bad block", "/v1/compress?eps=0.1&block=7", nil, 400},
		{"block too big", "/v1/compress?eps=0.1&block=65536", rawBytes([]float32{0, 10}), 400},
		{"NaN eps", "/v1/compress?eps=NaN", nil, 400},
		{"infinite eps", "/v1/compress?eps=Inf", rawBytes([]float32{0, 10}), 400},
		{"rel bound overflows", "/v1/compress?mode=rel&eps=1e308", rawBytes([]float32{0, 10}), 400},
		{"odd body", "/v1/compress?eps=0.1", []byte{1, 2, 3}, 400},
		{"oversized declared body", "/v1/compress?eps=0.1", make([]byte, 1<<17), 413},
		{"garbage frames", "/v1/decompress", []byte("not a stream at all"), 400},
		{"hostile frame length", "/v1/decompress", []byte{'C', 'S', 'Z', 'F', 0xFF, 0xFF, 0xFF, 0x7F}, 400},
		{"bundle no manifest", "/v1/bundle", []byte{1, 2}, 400},
		{"bundle extract non-bundle", "/v1/bundle?field=x", []byte("junk"), 400},
	}
	for _, tc := range cases {
		if resp := post(tc.path, tc.body); resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/compress")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/compress: status %d, want 405", resp.StatusCode)
	}
}

func TestHealthzAndDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	get := func() int {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get(); code != 200 {
		t.Fatalf("healthy: status %d", code)
	}
	s.SetDraining(true)
	if code := get(); code != 503 {
		t.Fatalf("draining: status %d", code)
	}
	resp, err := http.Post(ts.URL+"/v1/compress?eps=0.1", "application/octet-stream", bytes.NewReader(make([]byte, 8)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining /v1: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("draining /v1: no Retry-After")
	}
	s.SetDraining(false)
	if code := get(); code != 200 {
		t.Fatalf("recovered: status %d", code)
	}
}

func TestBundleRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	cl := client.New(client.Config{BaseURL: ts.URL})
	ctx := context.Background()

	temp := testData(256, 7)
	pres := make([]float64, 128)
	for i := range pres {
		pres[i] = float64(i) * 0.5
	}
	bundle, err := cl.Bundle(ctx, []client.BundleField{
		{Name: "temp", Dims: [3]int{16, 16, 0}, Bound: client.ABS(1e-3), F32: temp},
		{Name: "pres", Dims: [3]int{128, 0, 0}, Bound: client.ABS(1e-6), F64: pres},
	})
	if err != nil {
		t.Fatal(err)
	}

	// The server bundle must match the library's, field for field.
	bw := ceresz.NewBundleWriter()
	if _, err := bw.AddField("temp", ceresz.Dims2(16, 16), temp, ceresz.ABS(1e-3), ceresz.Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := bw.AddField64("pres", ceresz.Dims1(128), pres, ceresz.ABS(1e-6), ceresz.Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	want, err := bw.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bundle, want) {
		t.Fatalf("server bundle differs from library bundle (%d vs %d bytes)", len(bundle), len(want))
	}

	// Extract one member through the server and compare with the library.
	resp, err := http.Post(ts.URL+"/v1/bundle?field=temp", "application/x-ceresz-bundle", bytes.NewReader(bundle))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("extract: status %d: %s", resp.StatusCode, raw)
	}
	br, err := ceresz.OpenBundle(want)
	if err != nil {
		t.Fatal(err)
	}
	direct, _, err := br.ReadField("temp")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != 4*len(direct) {
		t.Fatalf("extract returned %d bytes, want %d", len(raw), 4*len(direct))
	}
	for i, v := range direct {
		got := math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		if got != v {
			t.Fatalf("extract element %d: %g vs %g", i, got, v)
		}
	}
}

func TestMetricsExposition(t *testing.T) {
	reg := telemetry.NewRegistry()
	_, ts := newTestServer(t, Config{Workers: 1, Registry: reg})
	cl := client.New(client.Config{BaseURL: ts.URL})
	if _, err := cl.Compress(context.Background(), testData(512, 3), client.ABS(1e-3)); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if snap.Counters["server.compress.requests"] != 1 {
		t.Fatalf("requests counter = %d, want 1", snap.Counters["server.compress.requests"])
	}
	if snap.Counters["server.compress.bytes_in"] != 4*512 {
		t.Fatalf("bytes_in = %d, want %d", snap.Counters["server.compress.bytes_in"], 4*512)
	}
	if snap.Hists["server.compress.latency_us"].Count != 1 {
		t.Fatal("latency histogram did not record")
	}
	var sb strings.Builder
	if _, err := snap.WriteOpenMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "ceresz_server_compress_requests 1") {
		t.Fatalf("Prometheus exposition missing request counter:\n%s", sb.String())
	}
}

// TestConnectionReuseAfterUnreadBody reproduces a full-duplex hazard: a
// handler that rejects a request before reading its body (here: bad eps)
// leaves unread bytes on the wire. Without the post-handler drain in
// admit, the server's deferred background read starts during
// reqBody.Close — after abortPendingRead already ran — and the next
// request on the connection panics net/http with "invalid concurrent
// Body.Read call". The panic surfaces through the server's ErrorLog.
func TestConnectionReuseAfterUnreadBody(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := New(Config{Workers: 1, Registry: reg})
	var logBuf bytes.Buffer
	var logMu sync.Mutex
	ts := httptest.NewUnstartedServer(s.Handler())
	ts.Config.ErrorLog = log.New(&syncWriter{w: &logBuf, mu: &logMu}, "", 0)
	ts.Start()
	defer ts.Close()

	// One transport so both requests ride the same keep-alive connection.
	hc := &http.Client{Transport: &http.Transport{}}
	body := make([]byte, 16<<10) // small enough for the bounded drain
	for i := 0; i < 2; i++ {
		resp, err := hc.Post(ts.URL+"/v1/compress?eps=-1", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("request %d: status %d, want 400", i, resp.StatusCode)
		}
	}
	// A valid round trip on the same transport must also survive.
	cl := client.New(client.Config{BaseURL: ts.URL, HTTPClient: hc, ChunkElems: 256})
	data := testData(700, 3)
	comp, err := cl.Compress(context.Background(), data, client.ABS(1e-3))
	if err != nil {
		t.Fatalf("compress after rejected requests: %v", err)
	}
	if want := localFrames(t, data, ceresz.ABS(1e-3), 256); !bytes.Equal(comp, want) {
		t.Fatalf("stream differs after rejected requests (%d vs %d bytes)", len(comp), len(want))
	}

	time.Sleep(50 * time.Millisecond) // let any panicking conn goroutine log
	logMu.Lock()
	logged := logBuf.String()
	logMu.Unlock()
	if strings.Contains(logged, "panic") {
		t.Fatalf("server panicked on connection reuse:\n%s", logged)
	}
}

// TestOversizeTrailingBodyClosesConnection: past the bounded drain, the
// server must close the connection rather than read unbounded garbage.
// The client just sees a clean error response; the next request opens a
// fresh connection and succeeds.
func TestOversizeTrailingBodyClosesConnection(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := New(Config{Workers: 1, Registry: reg})
	_, ts := func() (*Server, *httptest.Server) {
		ts := httptest.NewServer(s.Handler())
		return s, ts
	}()
	defer ts.Close()

	hc := &http.Client{Transport: &http.Transport{}}
	body := make([]byte, maxPostDrainBytes+64<<10)
	resp, err := hc.Post(ts.URL+"/v1/compress?eps=-1", "application/octet-stream", bytes.NewReader(body))
	// The server stops reading at the drain cap and closes the connection;
	// depending on timing the client sees the 400 with Connection: close,
	// or the close races its upload and surfaces as a transport error.
	// Either is fine — what matters is the server is not wedged.
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", resp.StatusCode)
		}
		if resp.Header.Get("Connection") != "close" {
			t.Fatalf("Connection header %q, want close", resp.Header.Get("Connection"))
		}
	}
	resp, err = hc.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("follow-up request: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follow-up status %d, want 200", resp.StatusCode)
	}
}

// syncWriter serializes ErrorLog writes for inspection from the test.
type syncWriter struct {
	w  io.Writer
	mu *sync.Mutex
}

func (sw *syncWriter) Write(p []byte) (int, error) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.w.Write(p)
}
