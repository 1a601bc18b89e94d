package server

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"ceresz"
	"ceresz/internal/chunkcache"
	"ceresz/internal/chunkcache/keytest"
	"ceresz/internal/cszf"
	"ceresz/internal/telemetry"
)

// postRec drives one request through the server's full handler chain
// without a network, returning the response recorder.
func postRec(t *testing.T, h http.Handler, url string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr
}

// cacheCounts reads the counters that tell which cache path chunks took.
type cacheCounts struct{ first, misses, hits, coalesced, evictions int64 }

func countsOf(reg *telemetry.Registry) cacheCounts {
	return cacheCounts{
		first:     reg.Counter("cache.first_sightings").Value(),
		misses:    reg.Counter("cache.misses").Value(),
		hits:      reg.Counter("cache.hits").Value(),
		coalesced: reg.Counter("cache.coalesced").Value(),
		evictions: reg.Counter("cache.evictions").Value(),
	}
}

func (a cacheCounts) minus(b cacheCounts) cacheCounts {
	return cacheCounts{a.first - b.first, a.misses - b.misses, a.hits - b.hits, a.coalesced - b.coalesced, a.evictions - b.evictions}
}

// TestCacheHitByteIdentity is the cache's core guarantee: a warm-cache
// decompress response must be byte-identical to the cold one, in both
// bound modes. The first sighting of a frame is computed uncached, so the
// cold (computed and cached) response is the second request and the warm
// (hit) one the third. Compress, which never consults the cache, must
// answer the library's stream and the same X-Ceresz-Eps on every repeat.
func TestCacheHitByteIdentity(t *testing.T) {
	const chunkElems = 512
	reg := telemetry.NewRegistry()
	s, _ := newTestServer(t, Config{Workers: 2, ChunkElems: chunkElems, CacheBytes: 8 << 20, Registry: reg})
	h := s.Handler()

	data := testData(1800, 7) // partial trailing chunk
	raw := rawBytes(data)

	for _, mode := range []string{"abs", "rel"} {
		url := "/v1/compress?eps=1e-3&mode=" + mode
		libBound := ceresz.ABS(1e-3)
		if mode == "rel" {
			libBound = ceresz.REL(1e-3)
		}
		want := localFrames(t, data, libBound, chunkElems)

		seen := postRec(t, h, url, raw)
		cold := postRec(t, h, url, raw)
		if seen.Code != http.StatusOK || cold.Code != http.StatusOK {
			t.Fatalf("[%s] first/cold status %d/%d: %s", mode, seen.Code, cold.Code, cold.Body.String())
		}
		if !bytes.Equal(seen.Body.Bytes(), want) || !bytes.Equal(cold.Body.Bytes(), want) {
			t.Fatalf("[%s] first or cold response differs from library stream", mode)
		}
		warm := postRec(t, h, url, raw)
		if warm.Code != http.StatusOK {
			t.Fatalf("[%s] warm status %d: %s", mode, warm.Code, warm.Body.String())
		}
		if !bytes.Equal(warm.Body.Bytes(), cold.Body.Bytes()) {
			t.Fatalf("[%s] repeated compress response differs", mode)
		}
		coldEps := cold.Header().Get("X-Ceresz-Eps")
		warmEps := warm.Header().Get("X-Ceresz-Eps")
		if coldEps == "" || coldEps != warmEps || seen.Header().Get("X-Ceresz-Eps") != coldEps {
			t.Fatalf("[%s] X-Ceresz-Eps drifted on repeat: second %q, third %q", mode, coldEps, warmEps)
		}

		// Decompress all three ways: warm must byte-match cold and first.
		dseen := postRec(t, h, "/v1/decompress", cold.Body.Bytes())
		dcold := postRec(t, h, "/v1/decompress", cold.Body.Bytes())
		dwarm := postRec(t, h, "/v1/decompress", cold.Body.Bytes())
		if dseen.Code != http.StatusOK || dcold.Code != http.StatusOK || dwarm.Code != http.StatusOK {
			t.Fatalf("[%s] decompress status %d/%d/%d", mode, dseen.Code, dcold.Code, dwarm.Code)
		}
		if !bytes.Equal(dcold.Body.Bytes(), dwarm.Body.Bytes()) || !bytes.Equal(dseen.Body.Bytes(), dcold.Body.Bytes()) {
			t.Fatalf("[%s] warm decompress differs from cold", mode)
		}
	}

	if hits := reg.Counter("cache.hits").Value(); hits == 0 {
		t.Errorf("cache.hits = 0 after warm requests")
	}
	if saved := reg.Counter("cache.bytes_saved").Value(); saved <= 0 {
		t.Errorf("cache.bytes_saved = %d, want > 0", saved)
	}
}

// TestCacheKeysAreTheCommittedKeys is the backend's third of the cross-tier
// pin (package keytest): each committed decompress request is served
// through the full handler chain — twice, since a frame is cached on its
// second sighting — and its first frame must then be resident under
// exactly the committed Key, the 32 bytes internal/cluster's test holds
// the proxy's routing digest to.
func TestCacheKeysAreTheCommittedKeys(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1, CacheBytes: 8 << 20})
	h := s.Handler()
	for _, r := range keytest.Requests() {
		if r.Path != "/v1/decompress" {
			continue // compress is never cached: its rows pin chunkcache's own layout
		}
		for range 2 {
			if rr := postRec(t, h, r.Path+"?"+r.Query, r.Body); rr.Code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", r.Name, rr.Code, rr.Body.String())
			}
		}
		hd, err := s.cache.Get(chunkcache.Key(r.Key))
		if err != nil {
			t.Fatalf("%s: %v", r.Name, err)
		}
		if hd.Outcome() == chunkcache.Miss {
			hd.Abort()
			t.Errorf("%s: served, but nothing is cached under the committed key %x", r.Name, r.Key)
			continue
		}
		hd.Release()
	}
}

// TestCacheWorkerCountIdentity: a caching server's compress frames must be
// byte-identical to the Workers:1 library stream on every repeat of one
// body.
func TestCacheWorkerCountIdentity(t *testing.T) {
	const chunkElems = 256
	data := testData(2000, 11)
	raw := rawBytes(data)
	want := localFrames(t, data, ceresz.ABS(1e-3), chunkElems)

	s, _ := newTestServer(t, Config{Workers: 2, ChunkElems: chunkElems, CacheBytes: 8 << 20})
	h := s.Handler()
	for round := 0; round < 3; round++ {
		rr := postRec(t, h, "/v1/compress?eps=1e-3", raw)
		if rr.Code != http.StatusOK {
			t.Fatalf("round %d: status %d", round, rr.Code)
		}
		if !bytes.Equal(rr.Body.Bytes(), want) {
			t.Fatalf("round %d: response differs from Workers:1 library stream", round)
		}
	}
}

// TestCacheCoalescingStorm: concurrent identical decompress requests for
// admitted frames must trigger exactly one decode per unique frame —
// cache.misses counts codec runs, so with no eviction pressure the storm
// must add exactly the unique frame count to it while every response stays
// byte-identical. One request first makes the frames seen: first sightings
// are computed uncached, so the storm's frames are admitted.
func TestCacheCoalescingStorm(t *testing.T) {
	const chunkElems = 256
	const clients = 8
	reg := telemetry.NewRegistry()
	_, ts := newTestServer(t, Config{
		Workers: 4, QueueDepth: 2 * clients, ChunkElems: chunkElems,
		CacheBytes: 32 << 20, Registry: reg,
	})

	// One shared framed payload, 4 unique frames, that every client
	// decompresses.
	framed := localFrames(t, testData(4*chunkElems, 23), ceresz.ABS(1e-3), chunkElems)
	want := rawBytes(decodeLocal(t, framed))
	if got := postBody(t, ts.URL+"/v1/decompress", framed); !bytes.Equal(got, want) {
		t.Fatal("first-sighting response differs from the library decode")
	}
	before := countsOf(reg)

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/decompress", "application/octet-stream", bytes.NewReader(framed))
			if err != nil {
				errs <- err
				return
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				errs <- err
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d: %s", resp.StatusCode, body)
				return
			}
			if !bytes.Equal(body, want) {
				errs <- fmt.Errorf("storm response differs from the library decode")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	const uniqueFrames = 4
	if first := before.first; first != uniqueFrames {
		t.Errorf("first request: %d first sightings, want %d", first, uniqueFrames)
	}
	d := countsOf(reg).minus(before)
	if d.misses != uniqueFrames || d.first != 0 {
		t.Errorf("storm: cache.misses moved by %d (%d first sightings), want %d and 0 (one decode per unique frame)",
			d.misses, d.first, uniqueFrames)
	}
	if got, want := d.hits+d.coalesced, int64(clients*uniqueFrames-uniqueFrames); got != want {
		t.Errorf("hits+coalesced = %d, want %d", got, want)
	}
}

// TestCacheEvictionUnderServing: a cache far smaller than the working set
// must keep serving correct bytes while evicting, and its gauge must
// respect the budget. Each frame is decompressed twice, so that it is
// admitted.
func TestCacheEvictionUnderServing(t *testing.T) {
	const chunkElems = 512
	// One decoded frame (2 KiB) fits per shard: 24 distinct frames must
	// force LRU churn.
	const budget = 32 << 10
	reg := telemetry.NewRegistry()
	s, _ := newTestServer(t, Config{Workers: 1, CacheBytes: budget, Registry: reg})
	h := s.Handler()

	for i := 0; i < 24; i++ {
		framed := localFrames(t, testData(chunkElems, int64(100+i)), ceresz.ABS(1e-3), chunkElems)
		want := rawBytes(decodeLocal(t, framed))
		for range 2 {
			rr := postRec(t, h, "/v1/decompress", framed)
			if rr.Code != http.StatusOK {
				t.Fatalf("request %d: status %d", i, rr.Code)
			}
			if !bytes.Equal(rr.Body.Bytes(), want) {
				t.Fatalf("request %d: response differs from the library decode during eviction churn", i)
			}
		}
	}
	if ev := reg.Counter("cache.evictions").Value(); ev == 0 {
		t.Errorf("cache.evictions = 0; budget %d should have forced churn", budget)
	}
	// The bytes gauge may lag one insert-then-evict cycle; allow one
	// entry of slack per shard.
	if got := reg.Gauge("cache.bytes").Value(); got > budget*2 {
		t.Errorf("cache.bytes = %d, way over budget %d", got, budget)
	}
}

// TestCacheErrorParity: malformed decompress bodies must fail with the
// same status and error class whether or not the cache is enabled, on
// first sight and again after the failed computation was aborted.
func TestCacheErrorParity(t *testing.T) {
	mk := func(cacheBytes int64) http.Handler {
		s, _ := newTestServer(t, Config{Workers: 1, CacheBytes: cacheBytes})
		return s.Handler()
	}
	plain, cached := mk(0), mk(8<<20)

	// A single-frame stream so malformed input fails before any output is
	// written (a later-frame error in a multi-frame body lands after the
	// 200 status is already committed — on both paths alike).
	good := localFrames(t, testData(600, 3), ceresz.ABS(1e-3), 1024)
	truncated := good[:len(good)-5]
	badMagic := append([]byte("XSZF"), good[4:]...)
	corruptPayload := bytes.Clone(good)
	corruptPayload[len(corruptPayload)-2] ^= 0xFF // inside the payload

	cases := []struct {
		name     string
		body     []byte
		mustFail bool // framing layer must reject it; payload corruption may decode
	}{
		{"truncated", truncated, true},
		{"bad-magic", badMagic, true},
		{"corrupt-payload", corruptPayload, false},
	}
	for _, tc := range cases {
		p1 := postRec(t, plain, "/v1/decompress", tc.body)
		c1 := postRec(t, cached, "/v1/decompress", tc.body)
		c2 := postRec(t, cached, "/v1/decompress", tc.body) // after Abort: must not serve a cached failure
		if p1.Code != c1.Code || c1.Code != c2.Code {
			t.Errorf("%s: status diverged: plain %d, cached %d, cached-repeat %d", tc.name, p1.Code, c1.Code, c2.Code)
		}
		if tc.mustFail && p1.Code == http.StatusOK {
			t.Errorf("%s: expected failure, got 200", tc.name)
		}
		if p1.Code == http.StatusOK {
			// Whatever the codec makes of the bytes, plain, cached and
			// cached-repeat must agree exactly.
			if !bytes.Equal(p1.Body.Bytes(), c1.Body.Bytes()) || !bytes.Equal(c1.Body.Bytes(), c2.Body.Bytes()) {
				t.Errorf("%s: bodies diverged between plain, cached and cached-repeat", tc.name)
			}
		}
	}

	// The cache must still work after aborted computations.
	ok := postRec(t, cached, "/v1/decompress", good)
	if ok.Code != http.StatusOK {
		t.Errorf("good stream after aborts: status %d: %s", ok.Code, ok.Body.String())
	}
}

// TestFingerprintCollisionServesOwnBytes: the admission fingerprint samples
// a frame's payload, so two payloads that differ only between the sampled
// words share it. The words start every ⌊(n−8)/64⌋ bytes, so for a payload
// of at least 8+64·24 bytes the container's ε field (payload bytes 16…23)
// is unsampled. Doubling it keeps the frame valid and changes every value
// it decodes to. The second frame is then admitted on its first request,
// and each must still be served its own floats: the fingerprint decides
// admission, the Key decides what is served.
func TestFingerprintCollisionServesOwnBytes(t *testing.T) {
	const chunkElems = 2048
	reg := telemetry.NewRegistry()
	s, _ := newTestServer(t, Config{Workers: 1, CacheBytes: 8 << 20, Registry: reg})
	h := s.Handler()

	a := localFrames(t, testData(chunkElems, 41), ceresz.ABS(1e-3), chunkElems)
	const epsAt = cszf.HeaderSize + 16
	if len(a)-cszf.HeaderSize < 8+64*24 {
		t.Fatalf("payload of %d bytes samples the ε field; the test needs at least %d", len(a)-cszf.HeaderSize, 8+64*24)
	}
	b := bytes.Clone(a)
	eps := math.Float64frombits(binary.LittleEndian.Uint64(b[epsAt:]))
	binary.LittleEndian.PutUint64(b[epsAt:], math.Float64bits(2*eps))
	want := [][]byte{rawBytes(decodeLocal(t, a)), rawBytes(decodeLocal(t, b))}
	if bytes.Equal(want[0], want[1]) {
		t.Fatal("the two frames decode alike; the test needs different floats")
	}
	bodies := [][]byte{a, b}
	for i, which := range []int{0, 1, 0, 1, 0} {
		rr := postRec(t, h, "/v1/decompress", bodies[which])
		if rr.Code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, rr.Code, rr.Body.String())
		}
		if !bytes.Equal(rr.Body.Bytes(), want[which]) {
			t.Fatalf("request %d (frame %c): served another frame's floats", i, "ab"[which])
		}
	}
	// a: first sighting, b: admitted on its first request (the collision),
	// a and b computed and cached, then one hit each.
	if got, want := countsOf(reg), (cacheCounts{first: 1, misses: 3, hits: 2}); got != want {
		t.Fatalf("counts %+v, want %+v: the frames did not share a fingerprint", got, want)
	}
}

// TestCompressBypassesCache: compress never consults the cache. Repeats of
// one body through a caching server move no cache counter and leave the
// cache empty, and each answers the library's frames with the first
// chunk's resolved ε in X-Ceresz-Eps, as it did when compress was cached.
// The per-chunk path the handler runs is held allocation-free, in ABS and
// REL mode, by TestCompressHotPathZeroAlloc.
func TestCompressBypassesCache(t *testing.T) {
	const chunkElems = 512
	reg := telemetry.NewRegistry()
	s, _ := newTestServer(t, Config{Workers: 1, ChunkElems: chunkElems, CacheBytes: 8 << 20, Registry: reg})
	h := s.Handler()
	data := testData(3*chunkElems+100, 13)
	raw := rawBytes(data)
	want := localFrames(t, data, ceresz.REL(1e-3), chunkElems)
	_, st, err := ceresz.Compress(nil, data[:chunkElems], ceresz.REL(1e-3), ceresz.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantEps := strconv.FormatFloat(st.Eps, 'g', -1, 64)

	for i := range 4 {
		rr := postRec(t, h, "/v1/compress?mode=rel&eps=1e-3", raw)
		if rr.Code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, rr.Code, rr.Body.String())
		}
		if !bytes.Equal(rr.Body.Bytes(), want) {
			t.Fatalf("request %d: response differs from the library stream", i)
		}
		if got := rr.Header().Get("X-Ceresz-Eps"); got != wantEps {
			t.Fatalf("request %d: X-Ceresz-Eps %q, want %q", i, got, wantEps)
		}
	}
	if got := countsOf(reg); got != (cacheCounts{}) {
		t.Errorf("repeated compress moved the cache counters: %+v", got)
	}
	if got := reg.Counter("cache.bytes_saved").Value(); got != 0 {
		t.Errorf("cache.bytes_saved = %d, want 0", got)
	}
	if n := s.cache.Len(); n != 0 {
		t.Errorf("cache holds %d entries after compress traffic, want 0", n)
	}

}

// TestHealthzSplit covers the liveness/readiness probes: liveness stays
// 200 through not-ready and draining; readiness (and its /healthz alias)
// gates on both.
func TestHealthzSplit(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(b)
	}

	for _, path := range []string{"/healthz", "/healthz/ready", "/healthz/live"} {
		if code, body := get(path); code != http.StatusOK {
			t.Errorf("%s while serving: %d %s", path, code, body)
		}
	}

	s.SetReady(false)
	if code, body := get("/healthz/ready"); code != http.StatusServiceUnavailable || !strings.Contains(body, "starting") {
		t.Errorf("ready while starting: %d %s, want 503 starting", code, body)
	}
	if code, _ := get("/healthz"); code != http.StatusServiceUnavailable {
		t.Errorf("/healthz alias while starting: %d, want 503", code)
	}
	if code, _ := get("/healthz/live"); code != http.StatusOK {
		t.Errorf("live while starting: %d, want 200", code)
	}

	s.SetReady(true)
	s.SetDraining(true)
	if code, body := get("/healthz/ready"); code != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Errorf("ready while draining: %d %s, want 503 draining", code, body)
	}
	if code, _ := get("/healthz/live"); code != http.StatusOK {
		t.Errorf("live while draining: %d, want 200", code)
	}
	s.SetDraining(false)
	if code, _ := get("/healthz/ready"); code != http.StatusOK {
		t.Errorf("ready after drain cleared: %d, want 200", code)
	}
}

// FuzzCachedServe fuzzes the differential guarantee end to end: whatever
// float body arrives, the cache-enabled server's first-sighting response,
// its cold response, its warm response, and the cache-disabled server's
// response must be bitwise equal — and likewise for decompressing the
// produced stream. Runs under -race in CI via the seed corpus.
func FuzzCachedServe(f *testing.F) {
	f.Add([]byte{0, 0, 128, 63, 0, 0, 0, 64, 0, 0, 64, 64, 205, 204, 76, 62}, uint8(0))
	f.Add(rawBytes(testData(700, 5)), uint8(1))
	f.Add([]byte{}, uint8(0))
	f.Add(bytes.Repeat([]byte{0x41}, 64), uint8(2))

	newH := func(cacheBytes int64) http.Handler {
		s := New(Config{Workers: 2, ChunkElems: 64, CacheBytes: cacheBytes, Registry: telemetry.NewRegistry()})
		return s.Handler()
	}

	f.Fuzz(func(t *testing.T, raw []byte, modeSel uint8) {
		raw = raw[:len(raw)-len(raw)%4] // whole float32 elements only
		mode := "abs"
		if modeSel%2 == 1 {
			mode = "rel"
		}
		url := "/v1/compress?eps=1e-2&mode=" + mode

		plain, cached := newH(0), newH(8<<20)
		post := func(h http.Handler, url string, body []byte) (int, []byte) {
			req := httptest.NewRequest(http.MethodPost, url, bytes.NewReader(body))
			rr := httptest.NewRecorder()
			h.ServeHTTP(rr, req)
			return rr.Code, rr.Body.Bytes()
		}

		refCode, refBody := post(plain, url, raw)
		seenCode, seenBody := post(cached, url, raw)
		coldCode, coldBody := post(cached, url, raw)
		warmCode, warmBody := post(cached, url, raw)
		if refCode != seenCode || seenCode != coldCode || coldCode != warmCode {
			t.Fatalf("status diverged: plain %d, first %d, cold %d, warm %d", refCode, seenCode, coldCode, warmCode)
		}
		if !bytes.Equal(refBody, seenBody) || !bytes.Equal(refBody, coldBody) || !bytes.Equal(coldBody, warmBody) {
			t.Fatalf("compress bytes diverged: plain %d, first %d, cold %d, warm %d bytes",
				len(refBody), len(seenBody), len(coldBody), len(warmBody))
		}
		if refCode != http.StatusOK || len(refBody) == 0 {
			return
		}

		dRefCode, dRefBody := post(plain, "/v1/decompress", refBody)
		dSeenCode, dSeenBody := post(cached, "/v1/decompress", refBody)
		dColdCode, dColdBody := post(cached, "/v1/decompress", refBody)
		dWarmCode, dWarmBody := post(cached, "/v1/decompress", refBody)
		if dRefCode != dSeenCode || dSeenCode != dColdCode || dColdCode != dWarmCode {
			t.Fatalf("decompress status diverged: plain %d, first %d, cold %d, warm %d", dRefCode, dSeenCode, dColdCode, dWarmCode)
		}
		if !bytes.Equal(dRefBody, dSeenBody) || !bytes.Equal(dRefBody, dColdBody) || !bytes.Equal(dColdBody, dWarmBody) {
			t.Fatalf("decompress bytes diverged")
		}
	})
}
