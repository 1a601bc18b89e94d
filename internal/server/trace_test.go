package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"ceresz"
	"ceresz/internal/telemetry"
)

// rawF32 serializes floats as a request body.
func rawF32(data []float32) []byte {
	raw := make([]byte, 4*len(data))
	for i, v := range data {
		binary.LittleEndian.PutUint32(raw[4*i:], math.Float32bits(v))
	}
	return raw
}

func TestTraceparentParse(t *testing.T) {
	tid, sid, ok := parseTraceparent("00-0123456789abcdef0123456789abcdef-00f067aa0ba902b7-01")
	if !ok {
		t.Fatal("valid traceparent rejected")
	}
	if got := tid.String(); got != "0123456789abcdef0123456789abcdef" {
		t.Fatalf("trace-id = %q", got)
	}
	if got := sid.String(); got != "00f067aa0ba902b7" {
		t.Fatalf("span-id = %q", got)
	}
	for _, bad := range []string{
		"",
		"00-0123456789abcdef0123456789abcdef-00f067aa0ba902b7",    // missing flags
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01", // zero trace-id
		"00-0123456789abcdef0123456789abcdef-0000000000000000-01", // zero span-id
		"zz-0123456789abcdef0123456789abcdef-00f067aa0ba902b7-01",
		"00-0123456789abcdef0123456789abcdeg-00f067aa0ba902b7-01", // non-hex
	} {
		if _, _, ok := parseTraceparent(bad); ok {
			t.Errorf("accepted invalid traceparent %q", bad)
		}
	}
}

// FuzzParseTraceparent: whatever a client sends as traceparent, the parser
// does not panic, accepts only the W3C shape with nonzero ids in hex (any
// case) and a version other than ff, and reads back the header the server
// answers with.
func FuzzParseTraceparent(f *testing.F) {
	for _, h := range []string{
		"00-0123456789abcdef0123456789abcdef-00f067aa0ba902b7-01",
		"",
		"00-0123456789abcdef0123456789abcdef-00f067aa0ba902b7",
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",
		"00-0123456789abcdef0123456789abcdef-0000000000000000-01",
		"zz-0123456789abcdef0123456789abcdef-00f067aa0ba902b7-01",
		"00-0123456789abcdef0123456789abcdeg-00f067aa0ba902b7-01",
		"ff-0123456789abcdef0123456789abcdef-00f067aa0ba902b7-01",
		"00-0123456789ABCDEF0123456789abcdef-00f067aa0ba902b7-zz",
	} {
		f.Add(h)
	}
	f.Fuzz(func(t *testing.T, h string) {
		tid, sid, ok := parseTraceparent(h)
		if !ok {
			return
		}
		if len(h) != 55 || strings.EqualFold(h[:2], "ff") || tid.isZero() || sid.isZero() ||
			!strings.EqualFold(h[3:35], tid.String()) || !strings.EqualFold(h[36:52], sid.String()) {
			t.Fatalf("parseTraceparent(%q) = %s, %s, true", h, tid, sid)
		}
		echo := "00-" + tid.String() + "-" + sid.String() + "-01"
		if tid2, sid2, ok := parseTraceparent(echo); !ok || tid2 != tid || sid2 != sid {
			t.Fatalf("the server's own header %q does not parse back", echo)
		}
	})
}

// TestRequestIDEcho asserts every response carries the request's identity:
// a fresh ID when the client sent none, the client's trace-id when it did.
func TestRequestIDEcho(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, ChunkElems: 256})
	body := rawF32(testData(512, 1))

	resp, err := http.Post(ts.URL+"/v1/compress?mode=abs&eps=1e-3", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	id := resp.Header.Get("X-Ceresz-Request-Id")
	if len(id) != 32 {
		t.Fatalf("X-Ceresz-Request-Id = %q, want 32 hex digits", id)
	}
	tp := resp.Header.Get("Traceparent")
	if len(tp) != 55 || !strings.HasPrefix(tp, "00-"+id+"-") || !strings.HasSuffix(tp, "-01") {
		t.Fatalf("Traceparent = %q, want 00-%s-<span>-01", tp, id)
	}

	// A client-supplied traceparent is adopted as the request's identity.
	const wantID = "0123456789abcdef0123456789abcdef"
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/compress?mode=abs&eps=1e-3", bytes.NewReader(body))
	req.Header.Set("Traceparent", "00-"+wantID+"-00f067aa0ba902b7-01")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Ceresz-Request-Id"); got != wantID {
		t.Fatalf("propagated request id = %q, want %q", got, wantID)
	}
}

// TestServerTimingTrailer asserts the per-stage breakdown arrives as a
// trailer and is internally consistent: every stage named, stage sum not
// exceeding the reported total.
func TestServerTimingTrailer(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, ChunkElems: 256})
	resp, err := http.Post(ts.URL+"/v1/compress?mode=abs&eps=1e-3", "application/octet-stream",
		bytes.NewReader(rawF32(testData(2048, 2))))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) // trailers materialize after the body
	resp.Body.Close()

	st := resp.Trailer.Get("Server-Timing")
	if st == "" {
		t.Fatal("no Server-Timing trailer")
	}
	durs := map[string]float64{}
	for _, entry := range strings.Split(st, ",") {
		name, rest, ok := strings.Cut(strings.TrimSpace(entry), ";dur=")
		if !ok {
			t.Fatalf("malformed Server-Timing entry %q in %q", entry, st)
		}
		ms, err := strconv.ParseFloat(rest, 64)
		if err != nil {
			t.Fatalf("bad duration in %q: %v", entry, err)
		}
		durs[name] = ms
	}
	var sum float64
	for _, name := range []string{"admit", "worker", "read", "cache", "codec", "write", "total"} {
		ms, ok := durs[name]
		if !ok {
			t.Fatalf("Server-Timing %q missing stage %q", st, name)
		}
		if name != "total" {
			sum += ms
		}
	}
	// Stage stamps are taken inside the handler, so they can never exceed
	// the wall total (allow a rounding ulp from the 3-decimal format).
	if sum > durs["total"]+0.004 {
		t.Fatalf("stage sum %.3fms exceeds total %.3fms (%q)", sum, durs["total"], st)
	}
}

// TestErrorResponseRequestID asserts the satellite contract: error bodies
// quote the request ID so client logs and server logs correlate.
func TestErrorResponseRequestID(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Post(ts.URL+"/v1/compress?mode=abs&eps=-1", "application/octet-stream",
		bytes.NewReader(rawF32(testData(8, 3))))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	id := resp.Header.Get("X-Ceresz-Request-Id")
	if len(id) != 32 {
		t.Fatalf("error response X-Ceresz-Request-Id = %q", id)
	}
	if want := "request " + id + ": "; !strings.HasPrefix(string(body), want) {
		t.Fatalf("error body %q does not begin with %q", body, want)
	}
}

// TestDebugRequestsEndpoint exercises the in-flight/slowest-N view.
func TestDebugRequestsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, ChunkElems: 256, TraceEvery: 1})
	for i := 0; i < 3; i++ {
		resp, err := http.Post(ts.URL+"/v1/compress?mode=abs&eps=1e-3", "application/octet-stream",
			bytes.NewReader(rawF32(testData(512, int64(i)))))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	resp, err := http.Get(ts.URL + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var view struct {
		Finished uint64            `json:"finished"`
		Sampled  uint64            `json:"sampled"`
		InFlight []json.RawMessage `json:"in_flight"`
		Slowest  []struct {
			ID       string `json:"id"`
			Endpoint string `json:"endpoint"`
			Status   int    `json:"status"`
			TotalUS  int64  `json:"total_us"`
			Chunks   int64  `json:"chunks"`
		} `json:"slowest"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatalf("/debug/requests is not valid JSON: %v", err)
	}
	if view.Finished < 3 || view.Sampled < 3 {
		t.Fatalf("finished=%d sampled=%d, want >= 3", view.Finished, view.Sampled)
	}
	if len(view.Slowest) == 0 {
		t.Fatal("slowest ring is empty after traced requests")
	}
	for _, r := range view.Slowest {
		if len(r.ID) != 32 || r.Endpoint != "compress" || r.Status != 200 || r.Chunks == 0 {
			t.Fatalf("bad slowest record: %+v", r)
		}
	}
}

// TestDebugTraceEndpoint asserts the Chrome trace export is valid JSON
// with named tracks, handler slices and flow arrows.
func TestDebugTraceEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, ChunkElems: 256, TraceEvery: 1})
	for i := 0; i < 2; i++ {
		resp, err := http.Post(ts.URL+"/v1/compress?mode=abs&eps=1e-3", "application/octet-stream",
			bytes.NewReader(rawF32(testData(600, int64(i)))))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	resp, err := http.Get(ts.URL + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var events []map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&events); err != nil {
		t.Fatalf("/debug/trace is not a valid JSON array: %v", err)
	}
	phases := map[string]int{}
	for _, ev := range events {
		ph, _ := ev["ph"].(string)
		phases[ph]++
	}
	if phases["M"] == 0 {
		t.Fatalf("no thread_name metadata events (phases %v)", phases)
	}
	if phases["X"] < 2 {
		t.Fatalf("want at least one slice per request, got %d (phases %v)", phases["X"], phases)
	}
	if phases["s"] == 0 || phases["f"] == 0 {
		t.Fatalf("no flow arrows linking wait to execution (phases %v)", phases)
	}
}

// TestAccessLog asserts sampled structured logging: one JSON line per
// finished request with identity, volume and stage timings.
func TestAccessLog(t *testing.T) {
	var buf bytes.Buffer
	_, ts := newTestServer(t, Config{Workers: 1, ChunkElems: 256, AccessLog: &buf})
	for i := 0; i < 2; i++ {
		resp, err := http.Post(ts.URL+"/v1/compress?mode=abs&eps=1e-3", "application/octet-stream",
			bytes.NewReader(rawF32(testData(512, int64(i)))))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("access log has %d lines, want 2:\n%s", len(lines), buf.String())
	}
	for _, line := range lines {
		var e accessEntry
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("access log line is not JSON: %v\n%s", err, line)
		}
		if len(e.ID) != 32 || e.Endpoint != "compress" || e.Status != 200 ||
			e.BytesIn != 4*512 || e.Chunks != 2 || e.TotalUS <= 0 {
			t.Fatalf("bad access entry: %+v", e)
		}
	}
}

// TestAccessLogTenant asserts the tenant identity lands in the access
// log when the request carries one, and stays absent when it does not.
func TestAccessLogTenant(t *testing.T) {
	var buf bytes.Buffer
	_, ts := newTestServer(t, Config{Workers: 1, ChunkElems: 256, AccessLog: &buf})
	for _, tenant := range []string{"acme", ""} {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/compress?mode=abs&eps=1e-3",
			bytes.NewReader(rawF32(testData(512, 1))))
		if err != nil {
			t.Fatal(err)
		}
		if tenant != "" {
			req.Header.Set("X-Ceresz-Tenant", tenant)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("access log has %d lines, want 2:\n%s", len(lines), buf.String())
	}
	var tagged, untagged accessEntry
	if err := json.Unmarshal([]byte(lines[0]), &tagged); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(lines[1]), &untagged); err != nil {
		t.Fatal(err)
	}
	if tagged.Tenant != "acme" {
		t.Fatalf("tagged request logged tenant %q, want \"acme\"", tagged.Tenant)
	}
	if untagged.Tenant != "" {
		t.Fatalf("untagged request logged tenant %q, want empty", untagged.Tenant)
	}
	if strings.Contains(lines[1], "tenant") {
		t.Fatalf("untagged access line carries a tenant field: %s", lines[1])
	}
}

// TestFailedDecompressReportsBytesIn: a decompress request that fails
// mid-stream reports the bytes it consumed — the good frame and the header
// of the bad one — in its access-log line and its /debug/requests record,
// as a failed compress request reports what it read.
func TestFailedDecompressReportsBytesIn(t *testing.T) {
	var buf bytes.Buffer
	s, _ := newTestServer(t, Config{Workers: 1, AccessLog: &buf})
	h := s.Handler()
	good := localFrames(t, testData(600, 3), ceresz.ABS(1e-3), 1024)
	body := append(bytes.Clone(good), "XSZF\x04\x00\x00\x00junk"...)
	if rr := postRec(t, h, "/v1/decompress", body); rr.Code != http.StatusOK {
		t.Fatalf("status %d: the failure should come after the first frame committed the 200", rr.Code)
	}
	want := int64(len(good) + 8)

	var e accessEntry
	if err := json.Unmarshal(buf.Bytes(), &e); err != nil {
		t.Fatalf("access log line: %v\n%s", err, buf.String())
	}
	if e.Err == "" || e.BytesIn != want {
		t.Errorf("access log: bytes_in %d, err %q; want %d and the decode error", e.BytesIn, e.Err, want)
	}

	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/debug/requests", nil))
	var view struct {
		Slowest []struct {
			BytesIn int64 `json:"bytes_in"`
		} `json:"slowest"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &view); err != nil || len(view.Slowest) != 1 {
		t.Fatalf("/debug/requests: %v, %d records", err, len(view.Slowest))
	}
	if got := view.Slowest[0].BytesIn; got != want {
		t.Errorf("/debug/requests: bytes_in %d, want %d", got, want)
	}
}

// TestConcurrentMetricsExposition is the satellite race check: scraping
// /debug/metrics while requests are in flight must stay well-formed and
// the per-endpoint request counters monotone.
func TestConcurrentMetricsExposition(t *testing.T) {
	// Mount the handler and the metrics exposition together, the way
	// cereszd composes them.
	reg := telemetry.NewRegistry()
	s := New(Config{Workers: 2, QueueDepth: 8, ChunkElems: 256, TraceEvery: 2, Registry: reg})
	mux := http.NewServeMux()
	mux.Handle("/", s.Handler())
	mux.Handle("/debug/metrics", reg.MetricsHandler())
	ts := httptest.NewServer(mux)
	defer ts.Close()
	body := rawF32(testData(512, 9))

	const writers, scrapes = 4, 20
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(ts.URL+"/v1/compress?mode=abs&eps=1e-3", "application/octet-stream", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 && resp.StatusCode != 429 {
					errs <- fmt.Errorf("writer %d: status %d", w, resp.StatusCode)
					return
				}
			}
		}(w)
	}

	var last float64 = -1
	for i := 0; i < scrapes; i++ {
		resp, err := http.Get(ts.URL + "/debug/metrics")
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("scrape %d: status %d", i, resp.StatusCode)
		}
		var cur float64 = -1
		for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			fields := strings.Fields(line)
			if len(fields) != 2 {
				t.Fatalf("scrape %d: malformed exposition line %q", i, line)
			}
			v, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				t.Fatalf("scrape %d: non-numeric value in %q", i, line)
			}
			if fields[0] == "ceresz_server_compress_requests" {
				cur = v
			}
		}
		if cur < 0 {
			t.Fatalf("scrape %d: ceresz_server_compress_requests missing", i)
		}
		if cur < last {
			t.Fatalf("scrape %d: counter went backwards: %v -> %v", i, last, cur)
		}
		last = cur
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestTracedUnsampledHotPathZeroAlloc extends the zero-alloc contract to
// requests that hold a span slot but lost the sampling draw: stage
// accounting is pure atomics, so the per-chunk path must still not
// allocate.
func TestTracedUnsampledHotPathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; zero-alloc contract checked without -race")
	}
	const elems = 4100
	raw := rawF32(testData(elems, 42))
	p := cparams{
		Abs:        true,
		Eps:        1e-3,
		ChunkElems: 1024,
	}
	// TraceEvery 3 with a single request acquired: seq 1 is not sampled,
	// so the span records stage atomics but no chunk events.
	tr := newTracer(1, Config{TraceEvery: 3})
	sp := tr.acquire(newTraceID(), spanID{}, newSpanID(), epCompress, time.Now(), "")
	c := newCodec(0)
	c.tr = sp
	r := bytes.NewReader(raw)
	runOnce := func() {
		r.Reset(raw)
		for {
			frame, _, err := c.nextFrameF32(r, p)
			if err == io.EOF {
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if _, err := io.Discard.Write(frame); err != nil {
				t.Fatal(err)
			}
		}
	}
	runOnce()
	allocs := testing.AllocsPerRun(20, runOnce)
	if allocs != 0 {
		t.Fatalf("traced-unsampled compress hot path allocates %.1f times per run, want 0", allocs)
	}
}
