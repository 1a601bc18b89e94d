package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"ceresz/internal/chunkcache/keytest"
	"ceresz/internal/spine"
	"ceresz/internal/telemetry"
)

// FuzzParseCompress holds the /v1 query grammar to what the server does
// with it. spine.ParseCompress must not panic. A query it accepts is never
// answered with a 5xx, and a query it rejects is refused with 400.
func FuzzParseCompress(f *testing.F) {
	for _, r := range keytest.Requests() {
		f.Add(r.Query, r.Body[:min(len(r.Body), 4096)])
	}
	body := rawBytes(testData(256, 1))
	for _, q := range []string{
		"mode=abs", "eps=1e-3&mode=abs&elem=f64&block=32",
		"", "eps=-1", "eps=0.1&mode=pct", "eps=0.1&elem=f16", "eps=0.1&chunk=999999999",
		"eps=0.1&block=7", "eps=0.1&block=65536", "eps=NaN", "eps=Inf", "mode=rel&eps=1e308",
		"eps=1e-3&chunk=3&elem=f64", "eps=1e-3&chunk=6917529027641081856&elem=f64",
		"mode=rel&eps=1e-3&block=64&chunk=100",
	} {
		f.Add(q, body)
	}
	f.Add("eps=1e-3&chunk=256", append(body, 0)) // a chunk that is the body less a stray byte

	const chunkElems = 1 << 10
	s := New(Config{Workers: 1, ChunkElems: chunkElems, MaxChunkElems: 1 << 16, Registry: telemetry.NewRegistry()})
	f.Cleanup(s.Close)
	h := s.Handler()

	f.Fuzz(func(t *testing.T, query string, body []byte) {
		q, _ := url.ParseQuery(query) // what the server's r.URL.Query() makes of it
		body = body[:min(len(body), 4096)]
		_, perr := spine.ParseCompress(q, chunkElems)
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/compress?"+q.Encode(), bytes.NewReader(body)))
		switch {
		case perr != nil && rr.Code != http.StatusBadRequest:
			t.Fatalf("%q: parser refused it (%v), server answered %d", query, perr, rr.Code)
		case rr.Code >= 500:
			t.Fatalf("%q: server answered %d: %s", query, rr.Code, rr.Body)
		}
	})
}
