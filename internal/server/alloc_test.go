package server

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"ceresz"
	"ceresz/internal/spine"
	"ceresz/internal/telemetry"
)

// nextFrameF32 reads one raw float32 chunk from r and compresses it: the
// uncached per-chunk path of handleCompress, the zero-alloc contract's
// test surface. It returns the frame, the raw byte count consumed, and
// io.EOF (with a nil frame) once the body is drained.
func (c *codec) nextFrameF32(r io.Reader, p cparams) ([]byte, int, error) {
	n, err := c.readChunk(r, p)
	if err != nil {
		return nil, n, err
	}
	frame, err := c.compress(p)
	return frame, n, err
}

// TestCompressHotPathZeroAlloc asserts the acceptance criterion: once a
// worker's codec is warm, compressing a chunk — raw bytes in, CSZF frame
// out — touches the heap zero times, under an absolute bound and under a
// relative one (which resolves ε per chunk). This is the per-chunk path
// handleCompress runs on every request, cache or no cache; everything
// above it (params, admission) is per-request.
func TestCompressHotPathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; zero-alloc contract checked without -race")
	}
	const elems = 4100 // includes a partial trailing chunk at chunk=1024
	data := testData(elems, 42)
	raw := make([]byte, 4*elems)
	for i, v := range data {
		binary.LittleEndian.PutUint32(raw[4*i:], math.Float32bits(v))
	}
	for _, p := range []cparams{
		{Abs: true, Eps: 1e-3, ChunkElems: 1024},
		{Eps: 1e-3, ChunkElems: 1024},
	} {
		c := newCodec(0)
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
		runOnce() // warm the codec's buffers and the library's encoder pool
		if allocs := testing.AllocsPerRun(20, runOnce); allocs != 0 {
			t.Fatalf("steady-state compress hot path (abs %v) allocates %.1f times per run, want 0", p.Abs, allocs)
		}
	}
}

// TestDecompressHotPathZeroAlloc asserts the mirror contract for the
// decode path: one warm StreamReader per codec, zero allocations per frame.
func TestDecompressHotPathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; zero-alloc contract checked without -race")
	}
	var buf bytes.Buffer
	sw := ceresz.NewStreamWriter(&buf, ceresz.ABS(1e-3), ceresz.Options{Workers: 1})
	for start := 0; start < 4100; start += 1024 {
		end := start + 1024
		if end > 4100 {
			end = 4100
		}
		if _, err := sw.WriteChunk(testData(4100, 42)[start:end]); err != nil {
			t.Fatal(err)
		}
	}
	framed := buf.Bytes()

	c := newCodec(0)
	c.sr.SetLimits(64<<20, 4<<20)
	r := bytes.NewReader(framed)
	runOnce := func() {
		r.Reset(framed)
		c.sr.Reset(r)
		for {
			var err error
			c.f32, err = c.sr.NextInto(c.f32[:0])
			if err == io.EOF {
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if _, err := io.Discard.Write(wire(c, c.f32)); err != nil {
				t.Fatal(err)
			}
		}
	}
	runOnce()
	allocs := testing.AllocsPerRun(20, runOnce)
	if allocs != 0 {
		t.Fatalf("steady-state decompress hot path allocates %.1f times per run, want 0", allocs)
	}
}

// TestCacheDecompressZeroAlloc extends the per-chunk contract to the
// cached decompress path, admitted miss and hit: frame in, admission, hash,
// decode or pinned lookup, wire bytes out — nothing on the heap once warm.
func TestCacheDecompressZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; zero-alloc contract checked without -race")
	}
	const chunkElems = 1024
	frames := make([][]byte, 12)
	for i := range frames {
		var buf bytes.Buffer
		sw := ceresz.NewStreamWriter(&buf, ceresz.ABS(1e-3), ceresz.Options{Workers: 1})
		if _, err := sw.WriteChunk(testData(chunkElems, int64(i))); err != nil {
			t.Fatal(err)
		}
		frames[i] = buf.Bytes()
	}
	for _, tc := range []struct {
		name       string
		cacheBytes int64
		cycle      int
	}{
		{"miss", 4 * (4*chunkElems + 512), len(frames)}, // below one value per shard: every lookup misses and evicts
		{"hit", 8 << 20, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := telemetry.NewRegistry()
			s := New(Config{Workers: 1, CacheBytes: tc.cacheBytes, Registry: reg})
			c := newCodec(0)
			c.sr.SetLimits(64<<20, 4<<20)
			r := bytes.NewReader(nil)
			var n int
			runOnce := func() {
				r.Reset(frames[n%tc.cycle])
				n++
				c.sr.Reset(r)
				out, h, err := s.nextDecoded(c, spine.F32)
				if err != nil {
					t.Fatal(err)
				}
				if len(out) != 4*chunkElems {
					t.Fatalf("decoded %d bytes, want %d", len(out), 4*chunkElems)
				}
				if _, err := io.Discard.Write(out); err != nil {
					t.Fatal(err)
				}
				h.Release()
			}
			for i := 0; i < 4*len(frames); i++ {
				runOnce()
			}
			before := countsOf(reg)
			if allocs := testing.AllocsPerRun(3*len(frames), runOnce); allocs != 0 {
				t.Fatalf("cached decompress %s path allocates %.1f times per chunk, want 0", tc.name, allocs)
			}
			want := cacheCounts{hits: 3*int64(len(frames)) + 1}
			if tc.name == "miss" {
				want = cacheCounts{misses: want.hits, evictions: want.hits}
			}
			if d := countsOf(reg).minus(before); d != want {
				t.Fatalf("measured chunks moved the counters by %+v, want %+v", d, want)
			}
		})
	}
}

// discardWriter is a ResponseWriter that keeps nothing, so what a request
// allocates is the server's doing alone.
type discardWriter struct {
	h      http.Header
	status int
	n      int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { w.n += len(b); return len(b), nil }
func (w *discardWriter) WriteHeader(code int)        { w.status = code }

// TestWarmRequestAllocatesNothingChunkSized pins the per-request path the
// per-chunk tests stop short of: a whole request through the handler —
// admission, span, params, body read, codec or cache, response write — on
// a warm server allocates only request-sized bookkeeping (headers, ids, the
// span's strings), never a buffer that scales with the body. Four bodies
// of 256 KiB each must stay under 16 KiB of heap per request.
func TestWarmRequestAllocatesNothingChunkSized(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const elems = 64 << 10
	raw := rawBytes(testData(elems, 7))
	var framed bytes.Buffer
	sw := ceresz.NewStreamWriter(&framed, ceresz.ABS(1e-3), ceresz.Options{Workers: 1})
	for at := 0; at < elems; at += 16 << 10 {
		if _, err := sw.WriteChunk(testData(elems, 7)[at : at+16<<10]); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name       string
		cacheBytes int64
		url        string
		body       []byte
	}{
		{"compress", 0, "/v1/compress?eps=1e-3&chunk=16384", raw},
		{"compress-cached", 8 << 20, "/v1/compress?eps=1e-3&chunk=16384", raw},
		{"decompress", 0, "/v1/decompress", framed.Bytes()},
		{"decompress-cached", 8 << 20, "/v1/decompress", framed.Bytes()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(Config{Workers: 1, CacheBytes: tc.cacheBytes, Registry: telemetry.NewRegistry()})
			h := s.Handler()
			body := bytes.NewReader(nil)
			req := httptest.NewRequest(http.MethodPost, tc.url, body)
			w := &discardWriter{h: http.Header{}}
			runOnce := func() {
				body.Reset(tc.body)
				req.Body = io.NopCloser(body)
				clear(w.h)
				w.status, w.n = 0, 0
				h.ServeHTTP(w, req)
				if (w.status != 0 && w.status != http.StatusOK) || w.n == 0 {
					t.Fatalf("status %d, %d response bytes", w.status, w.n)
				}
			}
			runOnce() // warm: codec buffers, encoder pool, cache entries
			runOnce()
			const runs = 16
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				runOnce()
			}
			runtime.ReadMemStats(&after)
			perReq := (after.TotalAlloc - before.TotalAlloc) / runs
			t.Logf("%d bytes allocated per request", perReq)
			if perReq > 16<<10 {
				t.Fatalf("warm %s request of %d body bytes allocates %d bytes, want ≤ 16 KiB", tc.name, len(tc.body), perReq)
			}
		})
	}
}
