package cluster

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"testing/iotest"

	"ceresz/internal/chunkcache"
	"ceresz/internal/chunkcache/keytest"
	"ceresz/internal/cszf/cszftest"
	"ceresz/internal/server"
	"ceresz/internal/spine"
	"ceresz/internal/telemetry"
)

// FuzzParseCompress holds the /v1 query grammar to what both tiers do
// with it. spine.ParseCompress must not panic. A query it accepts routes by
// the canonical compress-key preamble of what it resolved — the layout the
// backend keys its cache with (TestCacheKeysAreTheCommittedKeys pins the
// backend to it) — over the first chunk, and the backend never answers it
// with a 5xx. A query it rejects routes through the proxy's fallback
// namespace, and the backend refuses it with 400.
func FuzzParseCompress(f *testing.F) {
	for _, r := range keytest.Requests() {
		f.Add(r.Query, r.Body[:min(len(r.Body), 4096)])
	}
	body := rawF32Body(256, 1)
	for _, q := range []string{
		"", "eps=-1", "eps=0.1&mode=pct", "eps=0.1&elem=f16", "eps=0.1&chunk=999999999",
		"eps=0.1&block=7", "eps=0.1&block=65536", "eps=NaN", "eps=Inf", "mode=rel&eps=1e308",
		"eps=1e-3&chunk=3&elem=f64", "eps=1e-3&chunk=6917529027641081856&elem=f64",
		"mode=rel&eps=1e-3&block=64&chunk=100",
	} {
		f.Add(q, body)
	}
	f.Add("eps=1e-3&chunk=256", append(body, 0)) // a chunk that is the body less a stray byte

	const chunkElems, blockLen = 1 << 10, 0
	p, err := New(Config{
		Backends: []string{"http://a.invalid"}, ChunkElems: chunkElems, BlockLen: blockLen,
		Registry: telemetry.NewRegistry(),
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(p.Close)
	backend := server.New(server.Config{
		Workers: 1, ChunkElems: chunkElems, BlockLen: blockLen, MaxChunkElems: 1 << 16,
		CacheBytes: 1 << 20, Registry: telemetry.NewRegistry(),
	})
	f.Cleanup(backend.Close)
	h := backend.Handler()
	hasher := chunkcache.NewHasher()

	f.Fuzz(func(t *testing.T, query string, body []byte) {
		q, _ := url.ParseQuery(query) // what both tiers' r.URL.Query() make of it
		body = body[:min(len(body), 4096)]
		cp, perr := spine.ParseCompress(q, chunkElems, blockLen)
		got := p.routeKey(spine.Compress, q, body)

		var want chunkcache.Key
		if perr != nil {
			want = hasher.Key([]byte{chunkcache.KeyVersion, 0, spine.Compress}, body)
		} else {
			pre := chunkcache.AppendCompressPreamble(nil, byte(cp.Elem), cp.Abs, cp.Eps, cp.BlockLen)
			if !bytes.Equal(cp.AppendPreamble(nil), pre) {
				t.Fatalf("%q: preamble % x, canonical % x", query, cp.AppendPreamble(nil), pre)
			}
			chunk := body
			if n := cp.ChunkElems * cp.Elem.Size(); cp.ChunkElems <= len(body)/cp.Elem.Size() {
				chunk = body[:n]
			}
			want = hasher.Key(pre, chunk)
		}
		if got != want {
			t.Fatalf("%q (parse error %v): routeKey %x, want %x", query, perr, got, want)
		}

		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/compress?"+q.Encode(), bytes.NewReader(body)))
		switch {
		case perr != nil && rr.Code != http.StatusBadRequest:
			t.Fatalf("%q: parser refused it (%v), backend answered %d", query, perr, rr.Code)
		case rr.Code >= 500:
			t.Fatalf("%q: backend answered %d: %s", query, rr.Code, rr.Body)
		}
	})
}

// FuzzFirstFramePayload holds the decompress side of routing, the first
// frame's payload (cszf.FirstPayload), to every other reader of the frame
// layout (cszftest.Check), and readPrefix, which reads the routing prefix,
// to its contract: the prefix is the body's first len(buf) bytes,
// fullyBuffered says the body ended inside the buffer, and a read error
// surfaces only when it cut the prefix short.
func FuzzFirstFramePayload(f *testing.F) {
	for _, r := range keytest.Requests() {
		if r.Path == "/v1/decompress" {
			f.Add(r.Body, uint16(len(r.Body)), false)
			f.Add(r.Body[:len(r.Body)-1], uint16(64), true)
		}
	}
	f.Add([]byte("CSZF\x0b\x00\x00\x00hello frametrailing junk"), uint16(4), false)
	f.Add([]byte("CSZ"), uint16(0), true)
	f.Add([]byte("XXXX\x04\x00\x00\x00data"), uint16(12), false)
	f.Add([]byte("CSZF\x00\x00\x00\x00"), uint16(9), false)

	errCut := errors.New("connection reset")
	f.Fuzz(func(t *testing.T, body []byte, bufLen uint16, cut bool) {
		cszftest.Check(t, body)

		var r io.Reader = bytes.NewReader(body)
		if cut {
			r = io.MultiReader(r, iotest.ErrReader(errCut))
		}
		buf := make([]byte, bufLen)
		prefix, full, err := readPrefix(r, buf)
		short := len(body) < len(buf)
		switch {
		case cut && short:
			if !errors.Is(err, errCut) {
				t.Fatalf("body %d bytes, buffer %d, read cut: err %v", len(body), len(buf), err)
			}
		case err != nil:
			t.Fatalf("body %d bytes, buffer %d: %v", len(body), len(buf), err)
		case full != short || !bytes.Equal(prefix, body[:min(len(body), len(buf))]):
			t.Fatalf("body %d bytes, buffer %d: prefix %d bytes, fullyBuffered %v", len(body), len(buf), len(prefix), full)
		}
	})
}
