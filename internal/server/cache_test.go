package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"ceresz"
	"ceresz/internal/chunkcache"
	"ceresz/internal/chunkcache/keytest"
	"ceresz/internal/core"
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
// response must be byte-identical to the cold one — which is itself
// byte-identical to the library — for both directions, in both bound
// modes, and the X-Ceresz-Eps header must survive being served from
// entry metadata instead of live codec stats. The first sighting of a
// chunk is computed uncached, so the cold (computed and cached) response
// is the second request and the warm (hit) one the third.
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
			t.Fatalf("[%s] warm-cache response differs from cold", mode)
		}
		coldEps := cold.Header().Get("X-Ceresz-Eps")
		warmEps := warm.Header().Get("X-Ceresz-Eps")
		if coldEps == "" || coldEps != warmEps || seen.Header().Get("X-Ceresz-Eps") != coldEps {
			t.Fatalf("[%s] X-Ceresz-Eps drifted on hit: cold %q, warm %q", mode, coldEps, warmEps)
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
// pin (package keytest): each committed request is served through the full
// handler chain, query parsing and chunking included — twice, since a
// chunk is cached on its second sighting — and its first chunk must then
// be resident under exactly the committed Key, the 32 bytes
// internal/cluster's test holds the proxy's routing digest to.
func TestCacheKeysAreTheCommittedKeys(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1, CacheBytes: 8 << 20})
	h := s.Handler()
	for _, r := range keytest.Requests() {
		if r.Preamble[1] != chunkcache.NSCompress && r.Preamble[1] != chunkcache.NSDecompress {
			continue // the proxy's private namespace: no backend keys under it
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

// TestDefaultBlockLenHasOneSpelling: no block parameter, block=32 and a
// server configured with BlockLen 32 all produce the same frames, so they
// must share sightings and cache entries; and the default the key layout
// canonicalises 0 to must be the codec's, or a hit would return another
// block length's frame.
func TestDefaultBlockLenHasOneSpelling(t *testing.T) {
	if got, want := chunkcache.AppendCompressPreamble(nil, 0, true, 1e-3, 0),
		chunkcache.AppendCompressPreamble(nil, 0, true, 1e-3, core.DefaultBlockLen); !bytes.Equal(got, want) {
		t.Fatalf("block length 0 is keyed as % x, the codec's default %d as % x", got, core.DefaultBlockLen, want)
	}
	const chunkElems, chunks = 512, 3
	raw := rawBytes(testData(chunks*chunkElems, 31))
	for _, cfgBlock := range []int{0, core.DefaultBlockLen} {
		reg := telemetry.NewRegistry()
		s, _ := newTestServer(t, Config{Workers: 1, ChunkElems: chunkElems, BlockLen: cfgBlock, CacheBytes: 8 << 20, Registry: reg})
		h := s.Handler()
		// Sighted unspelled, cached spelled out, hit unspelled.
		spelled := fmt.Sprintf("/v1/compress?eps=1e-3&block=%d", core.DefaultBlockLen)
		first := postRec(t, h, "/v1/compress?eps=1e-3", raw)
		second := postRec(t, h, spelled, raw)
		third := postRec(t, h, "/v1/compress?eps=1e-3", raw)
		if first.Code != http.StatusOK || second.Code != http.StatusOK || third.Code != http.StatusOK {
			t.Fatalf("status %d, %d, %d", first.Code, second.Code, third.Code)
		}
		if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) || !bytes.Equal(second.Body.Bytes(), third.Body.Bytes()) {
			t.Fatal("the two spellings of the default block length produced different frames")
		}
		if got, want := countsOf(reg), (cacheCounts{first: chunks, misses: 2 * chunks, hits: chunks}); got != want {
			t.Errorf("server BlockLen %d: counts %+v, want %+v: the spellings should share sightings and entries",
				cfgBlock, got, want)
		}
		before := countsOf(reg)
		postRec(t, h, "/v1/compress?eps=1e-3&block=64", raw)
		postRec(t, h, "/v1/compress?eps=1e-3&block=64", raw)
		if d := countsOf(reg).minus(before); d.first != chunks || d.hits != 0 {
			t.Errorf("block=64 twice: counts moved by %+v: a different block length was sighted or hit under the default's", d)
		}
	}
}

// TestCacheWorkerCountIdentity: cached frames must be byte-identical to
// the Workers:1 library stream on every sighting — the first (computed
// uncached), the admitted miss, and the hit.
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

// TestCacheCoalescingStorm: concurrent identical requests for admitted
// chunks must trigger exactly one compression per unique chunk —
// cache.misses counts codec runs, so with no eviction pressure the storm
// must add exactly the unique chunk count to it while every response stays
// byte-identical. One request first makes the chunks seen: first
// sightings are computed uncached, so the storm's chunks are admitted.
func TestCacheCoalescingStorm(t *testing.T) {
	const chunkElems = 256
	const clients = 8
	reg := telemetry.NewRegistry()
	_, ts := newTestServer(t, Config{
		Workers: 4, QueueDepth: 2 * clients, ChunkElems: chunkElems,
		CacheBytes: 32 << 20, Registry: reg,
	})

	data := testData(4*chunkElems, 23) // 4 unique chunks per request
	raw := rawBytes(data)
	want := localFrames(t, data, ceresz.ABS(1e-3), chunkElems)
	if got := postBody(t, ts.URL+"/v1/compress?eps=1e-3", raw); !bytes.Equal(got, want) {
		t.Fatal("first-sighting response differs from library stream")
	}
	before := countsOf(reg)

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/compress?eps=1e-3", "application/octet-stream", bytes.NewReader(raw))
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
				errs <- fmt.Errorf("storm response differs from library stream")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	const uniqueChunks = 4
	if first := before.first; first != uniqueChunks {
		t.Errorf("first request: %d first sightings, want %d", first, uniqueChunks)
	}
	d := countsOf(reg).minus(before)
	if d.misses != uniqueChunks || d.first != 0 {
		t.Errorf("storm: cache.misses moved by %d (%d first sightings), want %d and 0 (one compression per unique chunk)",
			d.misses, d.first, uniqueChunks)
	}
	if got, want := d.hits+d.coalesced, int64(clients*uniqueChunks-uniqueChunks); got != want {
		t.Errorf("hits+coalesced = %d, want %d", got, want)
	}
}

// TestCacheEvictionUnderServing: a cache far smaller than the working set
// must keep serving correct bytes while evicting, and its gauge must
// respect the budget. Each chunk is sent twice, so that it is admitted.
func TestCacheEvictionUnderServing(t *testing.T) {
	const chunkElems = 512
	// Small enough that only a couple of compressed frames fit per shard:
	// 24 distinct chunks must force LRU churn.
	const budget = 4 << 10
	reg := telemetry.NewRegistry()
	s, _ := newTestServer(t, Config{Workers: 1, ChunkElems: chunkElems, CacheBytes: budget, Registry: reg})
	h := s.Handler()

	for i := 0; i < 24; i++ {
		data := testData(chunkElems, int64(100+i))
		want := localFrames(t, data, ceresz.ABS(1e-3), chunkElems)
		for range 2 {
			rr := postRec(t, h, "/v1/compress?eps=1e-3", rawBytes(data))
			if rr.Code != http.StatusOK {
				t.Fatalf("request %d: status %d", i, rr.Code)
			}
			if !bytes.Equal(rr.Body.Bytes(), want) {
				t.Fatalf("request %d: response differs from library stream during eviction churn", i)
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
// a chunk, so two chunks that differ only between the sampled words share
// it. For a 4096-byte chunk the words start every (4096−8)/64 = 63 bytes,
// which leaves bytes 8…62 unsampled. The second chunk is then admitted on
// its first request, and each must still be served its own frames: the
// fingerprint decides admission, the Key decides what is served.
func TestFingerprintCollisionServesOwnBytes(t *testing.T) {
	const chunkElems = 1024
	reg := telemetry.NewRegistry()
	s, _ := newTestServer(t, Config{Workers: 1, ChunkElems: chunkElems, CacheBytes: 8 << 20, Registry: reg})
	h := s.Handler()

	a := testData(chunkElems, 41)
	b := append([]float32(nil), a...)
	b[3] += 100 // bytes 12…15: between the first two sampled words
	want := [][]byte{localFrames(t, a, ceresz.ABS(1e-3), chunkElems), localFrames(t, b, ceresz.ABS(1e-3), chunkElems)}
	if bytes.Equal(want[0], want[1]) {
		t.Fatal("the two chunks compress alike; the test needs different frames")
	}
	bodies := [][]byte{rawBytes(a), rawBytes(b)}
	for i, which := range []int{0, 1, 0, 1, 0} {
		rr := postRec(t, h, "/v1/compress?eps=1e-3", bodies[which])
		if rr.Code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, rr.Code, rr.Body.String())
		}
		if !bytes.Equal(rr.Body.Bytes(), want[which]) {
			t.Fatalf("request %d (chunk %c): served another chunk's frames", i, "ab"[which])
		}
	}
	// a: first sighting, b: admitted on its first request (the collision),
	// a and b computed and cached, then one hit each.
	if got, want := countsOf(reg), (cacheCounts{first: 1, misses: 3, hits: 2}); got != want {
		t.Fatalf("counts %+v, want %+v: the chunks did not share a fingerprint", got, want)
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

// TestCacheCompressMissZeroAlloc extends the zero-alloc contract to the
// cache-enabled miss path: admission, hashing, lookup, compression,
// publication and eviction churn together must not allocate once warm.
// Each shard's budget is below one frame (these compress to ~1.5 KiB), so
// every iteration is an admitted miss whose insert evicts — the steady
// state of a cache under pressure. The counters check that this is the
// path measured: with room for all twelve it would measure hits.
func TestCacheCompressMissZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; zero-alloc contract checked without -race")
	}
	const chunkElems = 1024
	reg := telemetry.NewRegistry()
	s := New(Config{Workers: 1, ChunkElems: chunkElems, CacheBytes: 8 << 10, Registry: reg})
	c := newCodec(0)
	p := cparams{
		Abs:        true,
		Eps:        1e-3,
		ChunkElems: chunkElems,
	}

	// A cycle of distinct chunks larger than the cache can hold.
	const cycle = 12
	raws := make([][]byte, cycle)
	for i := range raws {
		raws[i] = rawBytes(testData(chunkElems, int64(i)))
	}
	var n int
	r := bytes.NewReader(nil)
	runOnce := func() {
		r.Reset(raws[n%cycle])
		n++
		got, err := c.readChunk(r, p)
		if err != nil {
			t.Fatal(err)
		}
		frame, _, h, err := s.cachedCompress(c, p, got)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.Discard.Write(frame); err != nil {
			t.Fatal(err)
		}
		h.Release()
	}
	for i := 0; i < 4*cycle; i++ {
		runOnce()
	}
	before := countsOf(reg)
	if allocs := testing.AllocsPerRun(3*cycle, runOnce); allocs != 0 {
		t.Fatalf("cache-enabled miss path allocates %.1f times per chunk, want 0", allocs)
	}
	// AllocsPerRun calls runOnce once more than it measures.
	if d := countsOf(reg).minus(before); d.first != 0 || d.misses != 3*cycle+1 || d.evictions == 0 {
		t.Fatalf("measured chunks moved the counters by %+v: want only admitted misses, and evictions", d)
	}
}

// TestCacheCompressHitZeroAlloc: the hit path (hash, lookup, pin, serve,
// release) must also be allocation-free.
func TestCacheCompressHitZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; zero-alloc contract checked without -race")
	}
	const chunkElems = 1024
	reg := telemetry.NewRegistry()
	s := New(Config{Workers: 1, ChunkElems: chunkElems, CacheBytes: 8 << 20, Registry: reg})
	c := newCodec(0)
	p := cparams{
		Abs:        true,
		Eps:        1e-3,
		ChunkElems: chunkElems,
	}
	raw := rawBytes(testData(chunkElems, 99))
	r := bytes.NewReader(nil)
	runOnce := func() {
		r.Reset(raw)
		got, err := c.readChunk(r, p)
		if err != nil {
			t.Fatal(err)
		}
		frame, _, h, err := s.cachedCompress(c, p, got)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.Discard.Write(frame); err != nil {
			t.Fatal(err)
		}
		h.Release()
	}
	runOnce() // first sighting
	runOnce() // admitted miss populates the entry
	before := countsOf(reg)
	if allocs := testing.AllocsPerRun(50, runOnce); allocs != 0 {
		t.Fatalf("cache hit path allocates %.1f times per chunk, want 0", allocs)
	}
	if d := countsOf(reg).minus(before); d != (cacheCounts{hits: 51}) {
		t.Fatalf("measured chunks moved the counters by %+v: want only hits", d)
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
