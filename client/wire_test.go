package client

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ceresz"
	"ceresz/internal/cszf/cszftest"
	"ceresz/internal/rawfloat"
)

// wireOf spells the raw-float wire format out element by element — the
// tests' own statement of it, sharing nothing with package rawfloat.
func wireOf(data []float32) []byte {
	out := make([]byte, 4*len(data))
	for i, v := range data {
		binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(v))
	}
	return out
}

func wave(n int) []float32 {
	data := make([]float32, n)
	for i := range data {
		data[i] = float32(math.Sin(float64(i) * 0.01))
	}
	return data
}

// framedOf compresses data locally into CSZF frames of chunk elements.
func framedOf(t testing.TB, data []float32, chunk int) []byte {
	t.Helper()
	var buf bytes.Buffer
	sw := ceresz.NewStreamWriter(&buf, ceresz.ABS(1e-3), ceresz.Options{Workers: 1})
	for at := 0; at < len(data); at += chunk {
		if _, err := sw.WriteChunk(data[at:min(at+chunk, len(data))]); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// stubTransport answers every request in process: it drains the request
// body through one fixed buffer and replies 200 with reply. Whatever the
// heap sees during a call through it is the client's own doing.
type stubTransport struct {
	reply []byte
	buf   []byte
	sent  int64
	check func(*http.Request) error
}

func (s *stubTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if s.check != nil {
		if err := s.check(req); err != nil {
			return nil, err
		}
	}
	s.sent = 0
	for req.Body != nil {
		n, err := req.Body.Read(s.buf)
		s.sent += int64(n)
		if err == io.EOF {
			req.Body.Close()
			break
		}
		if err != nil {
			return nil, err
		}
	}
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     http.Header{},
		Body:       io.NopCloser(bytes.NewReader(s.reply)),
		Request:    req,
	}, nil
}

// allocatedPerCall is the mean heap bytes one call of f allocates.
func allocatedPerCall(f func()) uint64 {
	f() // warm: lazily built state is not the call's cost
	const runs = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs
}

// skipUnlessInPlace skips allocation pins on builds where package rawfloat
// converts through a buffer (big-endian targets, -tags purego): what they
// pin is the in-place path.
func skipUnlessInPlace(t *testing.T) {
	f := []float32{1}
	b := rawfloat.Bytes(nil, f)
	f[0] = 2
	if b[3] != 0x40 { // the bytes did not follow the float: a copy
		t.Skip("this build converts floats through a buffer")
	}
}

// callSlack is what a call may allocate beside its payload buffers:
// request, headers, URL, trace ids, closures.
const callSlack = 16 << 10

// TestCompressAllocatesNoBodyCopy: posting N bytes of floats must not
// allocate an N-byte body. All a call may take from the heap is the
// response buffer — pre-sized at a quarter of the input — and
// request-sized bookkeeping.
func TestCompressAllocatesNoBodyCopy(t *testing.T) {
	skipUnlessInPlace(t)
	data := wave(1 << 20) // 4 MiB on the wire
	st := &stubTransport{reply: []byte("CSZF\x00\x00\x00\x00"), buf: make([]byte, 32<<10)}
	c := New(Config{BaseURL: "http://stub", HTTPClient: &http.Client{Transport: st}, MaxRetries: -1})
	got := allocatedPerCall(func() {
		out, err := c.Compress(context.Background(), data, ABS(1e-3))
		if err != nil || len(out) != 8 {
			t.Fatalf("Compress: %d bytes, %v", len(out), err)
		}
	})
	if st.sent != int64(4*len(data)) {
		t.Fatalf("transport saw %d body bytes, want %d", st.sent, 4*len(data))
	}
	if limit := uint64(len(data)) + callSlack; got > limit { // len(data) bytes = a quarter of the body
		t.Fatalf("Compress of %d bytes allocates %d per call, want ≤ %d", 4*len(data), got, limit)
	}
}

// TestDecompressAllocatesOutputOnce: the decoded floats are the one
// allocation that scales with the response — sized from the request's own
// frame headers, filled in place.
func TestDecompressAllocatesOutputOnce(t *testing.T) {
	skipUnlessInPlace(t)
	data := wave(1 << 20)
	framed := framedOf(t, data, 64<<10)
	st := &stubTransport{reply: wireOf(data), buf: make([]byte, 32<<10)}
	c := New(Config{BaseURL: "http://stub", HTTPClient: &http.Client{Transport: st}, MaxRetries: -1})
	var out []float32
	got := allocatedPerCall(func() {
		var err error
		if out, err = c.Decompress(context.Background(), framed); err != nil {
			t.Fatal(err)
		}
	})
	if len(out) != len(data) || cap(out) != len(data) {
		t.Fatalf("decoded len %d cap %d, want exactly %d", len(out), cap(out), len(data))
	}
	for i := range data {
		if math.Float32bits(out[i]) != math.Float32bits(data[i]) {
			t.Fatalf("element %d: %v, want %v", i, out[i], data[i])
		}
	}
	size := uint64(4 * len(data))
	if got < size || got > size+callSlack {
		t.Fatalf("Decompress into %d bytes allocates %d per call, want one output-sized allocation (+ ≤ %d)", size, got, callSlack)
	}
}

// TestRequestShape: the hand-built body must present itself to net/http
// as a *bytes.Reader did — known length (so Content-Length, not chunked),
// replayable through GetBody with the identical bytes, and no body at all
// when empty (Content-Length: 0, not chunked).
func TestRequestShape(t *testing.T) {
	data := wave(1000)
	want := wireOf(data)
	st := &stubTransport{reply: nil, buf: make([]byte, 512)}
	st.check = func(req *http.Request) error {
		if req.ContentLength != int64(len(want)) {
			t.Errorf("ContentLength = %d, want %d", req.ContentLength, len(want))
		}
		if req.GetBody == nil {
			t.Fatal("GetBody not set: net/http cannot replay the body")
		}
		for replay := 0; replay < 2; replay++ {
			rc, err := req.GetBody()
			if err != nil {
				t.Fatal(err)
			}
			got, err := io.ReadAll(rc)
			if err != nil || !bytes.Equal(got, want) {
				t.Errorf("replay %d: %d bytes (%v), want the %d body bytes again", replay, len(got), err, len(want))
			}
		}
		return nil
	}
	c := New(Config{BaseURL: "http://stub", HTTPClient: &http.Client{Transport: st}, MaxRetries: -1})
	if _, err := c.Compress(context.Background(), data, ABS(1e-3)); err != nil {
		t.Fatal(err)
	}

	st.check = func(req *http.Request) error {
		if (req.Body != nil && req.Body != http.NoBody) || req.ContentLength != 0 {
			t.Errorf("empty input: Body %T, ContentLength %d; want no body, 0", req.Body, req.ContentLength)
		}
		return nil
	}
	if _, err := c.Compress(context.Background(), nil, ABS(1e-3)); err != nil {
		t.Fatal(err)
	}

	// And on a real socket: lengths announced, nothing chunked.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n, _ := io.Copy(io.Discard, r.Body)
		if r.ContentLength != n || len(r.TransferEncoding) != 0 {
			t.Errorf("%d-byte body arrived with Content-Length %d, Transfer-Encoding %v", n, r.ContentLength, r.TransferEncoding)
		}
	}))
	defer ts.Close()
	c = New(Config{BaseURL: ts.URL, MaxRetries: -1})
	for _, in := range [][]float32{nil, data} {
		if _, err := c.Compress(context.Background(), in, ABS(1e-3)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCallerMayOverwriteAfterReturn: the server refuses with 429 without
// reading a byte, so net/http hands the response back while its write
// loop is still sending the body — the caller's floats. The caller
// overwrites them the moment Compress returns. Under -race this fails
// unless do has detached the memory from the transport first.
func TestCallerMayOverwriteAfterReturn(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "0")
		http.Error(w, "saturated", http.StatusTooManyRequests)
	}))
	defer ts.Close()

	c := New(Config{BaseURL: ts.URL, MaxRetries: -1})
	data := make([]float32, 2<<20) // 8 MiB: far more than the socket buffers hold
	for round := 0; round < 8; round++ {
		_, err := c.Compress(context.Background(), data, ABS(1e-3))
		var se *StatusError
		if err == nil || (errors.As(err, &se) && se.Code != http.StatusTooManyRequests) {
			t.Fatalf("round %d: err = %v, want a 429 or the transport's write error", round, err)
		}
		for i := range data {
			data[i] = float32(round)
		}
	}
}

// TestRetryResendsIdenticalBody: a 503 then a 200 — both attempts must
// carry the complete, identical body, byte for byte the wire image of
// the caller's floats.
func TestRetryResendsIdenticalBody(t *testing.T) {
	var mu sync.Mutex
	var bodies [][]byte
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		mu.Lock()
		bodies = append(bodies, b)
		first := len(bodies) == 1
		mu.Unlock()
		if r.ContentLength != int64(len(b)) {
			t.Errorf("Content-Length %d, body %d bytes", r.ContentLength, len(b))
		}
		if first {
			w.Header().Set("Retry-After", "0")
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte("CSZF\x00\x00\x00\x00"))
	}))
	defer ts.Close()

	data := wave(100_000)
	c := New(Config{BaseURL: ts.URL, MaxRetries: 2, BaseBackoff: time.Millisecond})
	out, tr, err := c.CompressTraced(context.Background(), data, ABS(1e-3))
	if err != nil || len(out) != 8 {
		t.Fatalf("Compress: %d bytes, %v", len(out), err)
	}
	if tr.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2", tr.Attempts)
	}
	want := wireOf(data)
	for i, b := range bodies {
		if !bytes.Equal(b, want) {
			t.Fatalf("attempt %d sent %d bytes that differ from the %d-byte wire image", i, len(b), len(want))
		}
	}
}

// TestDecompressChecksResponseLength: never accept a short 200. The
// request's frame headers say how many elements must come back; a
// response that ends early, runs long, or is not a 2xx is an error, and a
// request the client cannot size falls back to taking whole elements.
func TestDecompressChecksResponseLength(t *testing.T) {
	data := wave(5000)
	framed := framedOf(t, data, 2048) // three frames
	full := wireOf(data)

	var reply []byte
	status := http.StatusOK
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.WriteHeader(status)
		w.Write(reply)
	}))
	defer ts.Close()
	c := New(Config{BaseURL: ts.URL, MaxRetries: -1})
	ctx := context.Background()

	reply = full
	out, err := c.Decompress(ctx, framed)
	if err != nil || len(out) != len(data) {
		t.Fatalf("exact response: %d elements, %v", len(out), err)
	}
	for i := range data {
		if math.Float32bits(out[i]) != math.Float32bits(data[i]) {
			t.Fatalf("element %d: %v, want %v", i, out[i], data[i])
		}
	}

	for _, tc := range []struct {
		name   string
		reply  []byte
		status int
		want   string
	}{
		{"truncated at an element boundary", full[:len(full)-4], 200, "ends after 19996 bytes"},
		{"truncated inside an element", full[:len(full)-6], 200, "ends after 19994 bytes"},
		{"truncated at a frame boundary", full[:4*2048], 200, "ends after 8192 bytes"},
		{"empty", nil, 200, "ends after 0 bytes"},
		{"one element over", append(full[:len(full):len(full)], 0, 0, 0, 0), 200, "continues past the 20000 bytes"},
		{"bad request", []byte("request abc: bad frame magic"), 400, "server returned 400"},
		{"server error", full, 500, "server returned 500"},
	} {
		reply, status = tc.reply, tc.status
		out, err := c.Decompress(ctx, framed)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want one containing %q", tc.name, err, tc.want)
		}
		if out != nil {
			t.Fatalf("%s: returned %d elements beside the error", tc.name, len(out))
		}
	}

	// A body this client cannot walk (here: float64 frames asked for as
	// float32 would be one; garbage is another) gets whatever the server
	// answers — normally its 400, and on a 200 whole elements only.
	reply, status = full[:12], 200
	out, err = c.Decompress(ctx, []byte("not frames"))
	if err != nil || len(out) != 3 || out[2] != data[2] {
		t.Fatalf("unsized request: %v, %v", out, err)
	}
	reply = full[:10]
	if _, err = c.Decompress(ctx, []byte("not frames")); err == nil || !strings.Contains(err.Error(), "not a multiple of 4") {
		t.Fatalf("unsized request, ragged reply: err = %v", err)
	}
	if _, err = c.Decompress64(ctx, framed); err == nil || !strings.Contains(err.Error(), "not a multiple of 8") {
		t.Fatalf("float32 frames asked for as float64, 10-byte reply: err = %v", err)
	}
}

// skipWalk sums declared elements the way the library reads a stream:
// StreamReader.Skip frame by frame.
func skipWalk(framed []byte) (n int, elem ceresz.Elem, mixed bool, err error) {
	sr := ceresz.NewStreamReader(bytes.NewReader(framed))
	for first := true; ; first = false {
		m, err := sr.Skip()
		if err == io.EOF {
			return n, elem, mixed, nil
		}
		if err != nil {
			return 0, 0, false, err
		}
		if first {
			elem = m.Elem
		}
		mixed = mixed || m.Elem != elem
		n += m.Elements
	}
}

// FuzzDeclaredElements: the frame-header walk sizes an allocation from
// bytes that may come from anywhere. It must agree with every other reader
// of the frame layout (cszftest.Check), never report more than the cap, and
// whenever it vouches for a count, a StreamReader.Skip walk of the same
// bytes must arrive at the same one.
func FuzzDeclaredElements(f *testing.F) {
	data := wave(3000)
	good := framedOf(f, data, 1024)
	var buf64 bytes.Buffer
	sw := ceresz.NewStreamWriter(&buf64, ceresz.ABS(1e-3), ceresz.Options{Workers: 1})
	if _, err := sw.WriteChunk64([]float64{1, 2, 3, 4, 5}); err != nil {
		f.Fatal(err)
	}
	huge := denseFrame(f, 1<<29)
	for _, seed := range [][]byte{
		nil, good, good[:len(good)-1], good[:7], buf64.Bytes(),
		append(bytes.Clone(good), buf64.Bytes()...), huge, bytes.Repeat(huge, 3), huge[:200],
		[]byte("CSZF\xff\xff\xff\x7f"), []byte("CSZF\x00\x00\x00\x00"), []byte("not frames"),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, framed []byte) {
		cszftest.Check(t, framed)
		n32, ok32 := declaredElements(framed, 4)
		n64, ok64 := declaredElements(framed, 8)
		for _, r := range []struct {
			n    int
			ok   bool
			elem ceresz.Elem
		}{{n32, ok32, ceresz.Float32}, {n64, ok64, ceresz.Float64}} {
			if r.n < 0 || r.n > maxDeclaredElems {
				t.Fatalf("reported %d elements, cap is %d", r.n, maxDeclaredElems)
			}
			if !r.ok {
				if r.n != 0 {
					t.Fatalf("reported %d elements without vouching for them", r.n)
				}
				continue
			}
			want, elem, mixed, err := skipWalk(framed)
			if err != nil {
				t.Fatalf("walk vouches for %d elements, StreamReader.Skip fails: %v", r.n, err)
			}
			if want != r.n || mixed || (want > 0 && elem != r.elem) {
				t.Fatalf("walk says %d %v elements, Skip says %d %v (mixed: %v)", r.n, r.elem, want, elem, mixed)
			}
		}
	})
}

func TestDeclaredElements(t *testing.T) {
	data := wave(3000)
	framed := framedOf(t, data, 1024)
	if n, ok := declaredElements(framed, 4); !ok || n != 3000 {
		t.Fatalf("three float32 frames: %d, %v; want 3000, true", n, ok)
	}
	if n, ok := declaredElements(nil, 4); !ok || n != 0 {
		t.Fatalf("empty stream: %d, %v; want 0, true", n, ok)
	}
	big := denseFrame(t, 1<<29)
	if n, ok := declaredElements(append(bytes.Clone(big), big...), 4); !ok || n != 1<<30 {
		t.Fatalf("two frames of 2^29 elements: %d, %v; want the cap itself, true", n, ok)
	}
	for name, b := range map[string][]byte{
		"asked as float64":     framed,
		"truncated":            framed[:len(framed)-1],
		"trailing garbage":     append(bytes.Clone(framed), 'x'),
		"header only":          []byte("CSZF\x10\x00\x00\x00"),
		"implausible elements": big[:8+24+100],
		"past the cap":         bytes.Repeat(big, 3),
	} {
		es := 4
		if name == "asked as float64" {
			es = 8
		}
		if name == "implausible elements" {
			binary.LittleEndian.PutUint32(b[4:], 24+100)
		}
		if n, ok := declaredElements(b, es); ok || n != 0 {
			t.Errorf("%s: %d, %v; want 0, false", name, n, ok)
		}
	}
}

// denseFrame is the smallest frame that can plausibly declare elems
// float32 elements: one-byte block headers, the longest block length, and
// a zero header byte per block — 8 KiB standing for 2 GiB of floats, which
// is why the walk's total is capped.
func denseFrame(t testing.TB, elems int) []byte {
	t.Helper()
	const blockLen = 65528
	blocks := (elems + blockLen - 1) / blockLen
	b := bytes.Clone(framedOf(t, []float32{1, 2, 3}, 8)[:8+24])
	b[8+4] = 1 // block header size
	binary.LittleEndian.PutUint16(b[8+6:], blockLen)
	binary.LittleEndian.PutUint64(b[8+8:], uint64(elems))
	b = append(b, make([]byte, blocks)...)
	binary.LittleEndian.PutUint32(b[4:], uint32(24+blocks))
	return b
}
