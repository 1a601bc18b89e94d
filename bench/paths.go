package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"time"

	"ceresz"
	"ceresz/client"
	"ceresz/internal/cluster"
	"ceresz/internal/quant"
	"ceresz/internal/server"
	"ceresz/internal/telemetry"
)

// path is one way of getting an item compressed and decompressed: one
// rung of the ladder core → stream → handler → loopback → proxy (plus the
// simulator). Every worker owns its own path value, so implementations
// keep reusable buffers without locking; returned slices are valid until
// the next call on the same path.
type path interface {
	compress(it *item) ([]byte, error)
	decompress(it *item, comp []byte) (decoded, error)
}

var frameMagic = [4]byte{'C', 'S', 'Z', 'F'}

const frameHeaderSize = 8

// corePath calls the codec entry points directly. chunk == 0 compresses
// the item as one container (the library's one-shot form); chunk > 0
// compresses it chunk by chunk behind 8-byte CSZF headers written here,
// so the output is byte-comparable with StreamWriter's and the stream
// rung's extra cost over this one is StreamWriter's own.
type corePath struct {
	chunk   int
	workers int
	buf     []byte
	dec     decoded
	stats   ceresz.Stats
}

func (p *corePath) opts() ceresz.Options { return ceresz.Options{Workers: p.workers} }

func (p *corePath) compressInto(dst []byte, it *item, lo, hi int) ([]byte, error) {
	if it.f64 != nil {
		return ceresz.Compress64Into(dst, it.f64[lo:hi], it.bound, p.opts(), &p.stats)
	}
	return ceresz.CompressInto(dst, it.f32[lo:hi], it.bound, p.opts(), &p.stats)
}

func (p *corePath) compress(it *item) ([]byte, error) {
	n := it.elems()
	if p.chunk == 0 {
		var err error
		p.buf, err = p.compressInto(p.buf[:0], it, 0, n)
		return p.buf, err
	}
	p.buf = p.buf[:0]
	for lo := 0; lo < n; lo += p.chunk {
		hdr := len(p.buf)
		p.buf = append(p.buf, frameMagic[0], frameMagic[1], frameMagic[2], frameMagic[3], 0, 0, 0, 0)
		var err error
		p.buf, err = p.compressInto(p.buf, it, lo, min(lo+p.chunk, n))
		if err != nil {
			return nil, err
		}
		binary.LittleEndian.PutUint32(p.buf[hdr+4:], uint32(len(p.buf)-hdr-frameHeaderSize))
	}
	return p.buf, nil
}

func (p *corePath) decompressInto(it *item, comp []byte) error {
	var err error
	if it.f64 != nil {
		p.dec.f64, err = ceresz.Decompress64With(p.dec.f64, comp, p.opts())
	} else {
		p.dec.f32, err = ceresz.DecompressWith(p.dec.f32, comp, p.opts())
	}
	return err
}

func (p *corePath) decompress(it *item, comp []byte) (decoded, error) {
	p.dec.f32, p.dec.f64 = p.dec.f32[:0], p.dec.f64[:0]
	if p.chunk == 0 {
		return p.dec, p.decompressInto(it, comp)
	}
	for len(comp) > 0 {
		if len(comp) < frameHeaderSize || !bytes.Equal(comp[:4], frameMagic[:]) {
			return decoded{}, errors.New("core rung: bad frame header")
		}
		n := int(binary.LittleEndian.Uint32(comp[4:]))
		if n > len(comp)-frameHeaderSize {
			return decoded{}, errors.New("core rung: truncated frame")
		}
		if err := p.decompressInto(it, comp[frameHeaderSize:frameHeaderSize+n]); err != nil {
			return decoded{}, err
		}
		comp = comp[frameHeaderSize+n:]
	}
	return p.dec, nil
}

// streamPath is the root package's framed streaming API: one StreamWriter
// per item into a reused buffer, one StreamReader over it.
type streamPath struct {
	chunk int
	buf   bytes.Buffer
	sr    *ceresz.StreamReader
	dec   decoded
}

func (p *streamPath) compress(it *item) ([]byte, error) {
	p.buf.Reset()
	sw := ceresz.NewStreamWriter(&p.buf, it.bound, ceresz.Options{})
	n := it.elems()
	for lo := 0; lo < n; lo += p.chunk {
		hi := min(lo+p.chunk, n)
		var err error
		if it.f64 != nil {
			_, err = sw.WriteChunk64(it.f64[lo:hi])
		} else {
			_, err = sw.WriteChunk(it.f32[lo:hi])
		}
		if err != nil {
			return nil, err
		}
	}
	return p.buf.Bytes(), sw.Close()
}

func (p *streamPath) decompress(it *item, comp []byte) (decoded, error) {
	if p.sr == nil {
		p.sr = ceresz.NewStreamReader(nil)
	}
	p.sr.Reset(bytes.NewReader(comp))
	p.dec.f32, p.dec.f64 = p.dec.f32[:0], p.dec.f64[:0]
	for {
		var err error
		if it.f64 != nil {
			p.dec.f64, err = p.sr.Next64Into(p.dec.f64)
		} else {
			p.dec.f32, err = p.sr.NextInto(p.dec.f32)
		}
		if err == io.EOF {
			return p.dec, nil
		}
		if err != nil {
			return decoded{}, err
		}
	}
}

// Wire encoding, as client/ does it: raw little-endian floats up, CSZF
// frames back (and the reverse for decompress).

func encodeBody(dst []byte, it *item) []byte {
	if it.f64 != nil {
		dst = slices.Grow(dst[:0], 8*len(it.f64))[:8*len(it.f64)]
		for i, v := range it.f64 {
			binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(v))
		}
		return dst
	}
	dst = slices.Grow(dst[:0], 4*len(it.f32))[:4*len(it.f32)]
	for i, v := range it.f32 {
		binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(v))
	}
	return dst
}

func decodeBody(dec *decoded, raw []byte, f64 bool) error {
	if f64 {
		if len(raw)%8 != 0 {
			return fmt.Errorf("response length %d is not a multiple of 8", len(raw))
		}
		dec.f64 = slices.Grow(dec.f64[:0], len(raw)/8)[:len(raw)/8]
		for i := range dec.f64 {
			dec.f64[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		return nil
	}
	if len(raw)%4 != 0 {
		return fmt.Errorf("response length %d is not a multiple of 4", len(raw))
	}
	dec.f32 = slices.Grow(dec.f32[:0], len(raw)/4)[:len(raw)/4]
	for i := range dec.f32 {
		dec.f32[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	return nil
}

func elemName(it *item) string {
	if it.f64 != nil {
		return "f64"
	}
	return "f32"
}

func boundQuery(b ceresz.Bound) string {
	mode := "abs"
	if b.Mode == quant.Rel {
		mode = "rel"
	}
	return "mode=" + mode + "&eps=" + strconv.FormatFloat(b.Value, 'g', -1, 64)
}

// handlerPath drives server.Handler() with in-memory requests: the whole
// daemon minus the socket and net/http's connection handling.
type handlerPath struct {
	h     http.Handler
	chunk int
	body  []byte
	dec   decoded
}

func (p *handlerPath) post(url string, body []byte) ([]byte, error) {
	req := httptest.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	p.h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("handler returned %d: %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	return rec.Body.Bytes(), nil
}

func (p *handlerPath) compress(it *item) ([]byte, error) {
	p.body = encodeBody(p.body, it)
	return p.post(fmt.Sprintf("/v1/compress?%s&elem=%s&chunk=%d", boundQuery(it.bound), elemName(it), p.chunk), p.body)
}

func (p *handlerPath) decompress(it *item, comp []byte) (decoded, error) {
	raw, err := p.post("/v1/decompress?elem="+elemName(it), comp)
	if err != nil {
		return decoded{}, err
	}
	err = decodeBody(&p.dec, raw, it.f64 != nil)
	return p.dec, err
}

// serverSample is one compress request's server-side attribution: the
// Server-Timing trailer plus the client-observed latency of that request.
type serverSample struct {
	timing  client.ServerTiming
	elapsed time.Duration
}

// httpPath is the public client against a base URL — the daemon on
// loopback, or the proxy in front of two of them. With samples set it
// uses the *Traced calls and keeps each compress request's trailer.
type httpPath struct {
	c       *client.Client
	samples *[]serverSample
}

func clientBound(b ceresz.Bound) client.Bound {
	if b.Mode == quant.Rel {
		return client.REL(b.Value)
	}
	return client.ABS(b.Value)
}

func (p *httpPath) compress(it *item) ([]byte, error) {
	ctx := context.Background()
	if p.samples == nil {
		if it.f64 != nil {
			return p.c.Compress64(ctx, it.f64, clientBound(it.bound))
		}
		return p.c.Compress(ctx, it.f32, clientBound(it.bound))
	}
	var out []byte
	var tr *client.Trace
	var err error
	t0 := time.Now()
	if it.f64 != nil {
		out, tr, err = p.c.Compress64Traced(ctx, it.f64, clientBound(it.bound))
	} else {
		out, tr, err = p.c.CompressTraced(ctx, it.f32, clientBound(it.bound))
	}
	if err == nil && tr.Server.Valid {
		*p.samples = append(*p.samples, serverSample{tr.Server, time.Since(t0)})
	}
	return out, err
}

func (p *httpPath) decompress(it *item, comp []byte) (decoded, error) {
	ctx := context.Background()
	if it.f64 != nil {
		v, err := p.c.Decompress64(ctx, comp)
		return decoded{f64: v}, err
	}
	v, err := p.c.Decompress(ctx, comp)
	return decoded{f32: v}, err
}

// simMeshes are the three simulated geometries of the wse-sim workload.
var simMeshes = []ceresz.MeshConfig{
	{Rows: 64, Cols: 8},
	{Rows: 64, Cols: 64},
	{Rows: 128, Cols: 16, PipelineLen: 2},
}

func meshName(m ceresz.MeshConfig) string { return fmt.Sprintf("%dx%d", m.Rows, m.Cols) }

// simTotals accumulates what the simulator reports about itself.
type simTotals struct {
	cyclesC, cyclesD [3]int64 // last run's cycles per mesh
	itemBytes        int64    // raw size of the item those runs moved
	events           int64    // all runs, both directions
	blocks           int64
}

// simPath runs the discrete-event WSE simulator, cycling through
// simMeshes: call i compresses on mesh i mod 3 and the following
// decompress uses the same mesh.
type simPath struct {
	next int
	cur  int
	tot  simTotals
}

func (p *simPath) account(it *item, res *ceresz.SimResult) {
	p.tot.itemBytes = it.rawBytes()
	p.tot.events += res.Telemetry.Counters["sim.events"]
	p.tot.blocks += int64((it.elems() + 31) / 32)
}

func (p *simPath) compress(it *item) ([]byte, error) {
	p.cur = p.next % len(simMeshes)
	p.next++
	res, err := ceresz.SimulateCompress(it.f32, it.bound, simMeshes[p.cur])
	if err != nil {
		return nil, err
	}
	p.tot.cyclesC[p.cur] = res.Cycles
	p.account(it, res)
	return res.Bytes, nil
}

func (p *simPath) decompress(it *item, comp []byte) (decoded, error) {
	res, err := ceresz.SimulateDecompress(comp, simMeshes[p.cur])
	if err != nil {
		return decoded{}, err
	}
	p.tot.cyclesD[p.cur] = res.Cycles
	p.account(it, res)
	return decoded{f32: res.Data}, nil
}

// daemon is one in-process cereszd: server.Handler() behind a real
// loopback listener, with a private registry.
type daemon struct {
	srv *server.Server
	hs  *http.Server
	url string
	reg *telemetry.Registry
	err chan error
}

func startDaemon(cacheBytes int64) (*daemon, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	reg := telemetry.NewRegistry()
	srv := server.New(server.Config{CacheBytes: cacheBytes, Registry: reg})
	return serve(l, &daemon{srv: srv, reg: reg}, srv.Handler()), nil
}

// serve starts d on l; d.stop ends it.
func serve(l net.Listener, d *daemon, h http.Handler) *daemon {
	d.hs, d.url, d.err = &http.Server{Handler: h}, "http://"+l.Addr().String(), make(chan error, 1)
	go func() { d.err <- d.hs.Serve(l) }()
	return d
}

// stop closes the listener and every connection and waits for Serve to
// return.
func (d *daemon) stop() {
	_ = d.hs.Close() // in-flight work is over; an error here changes nothing
	<-d.err
	if d.srv != nil {
		d.srv.Close()
	}
}

// proxyStack is cluster.Proxy in front of two cache-enabled backends.
type proxyStack struct {
	backends []*daemon
	proxy    *cluster.Proxy
	front    *daemon
}

func startProxy(cacheBytes int64, chunk, replayBytes int) (*proxyStack, error) {
	ps := &proxyStack{}
	var urls []string
	for i := 0; i < 2; i++ {
		b, err := startDaemon(cacheBytes)
		if err != nil {
			ps.stop()
			return nil, err
		}
		ps.backends = append(ps.backends, b)
		urls = append(urls, b.url)
	}
	reg := telemetry.NewRegistry()
	p, err := cluster.New(cluster.Config{
		Backends:    urls,
		ChunkElems:  chunk,
		ReplayBytes: replayBytes,
		Registry:    reg,
		Health:      cluster.HealthConfig{Interval: 250 * time.Millisecond},
	})
	if err != nil {
		ps.stop()
		return nil, err
	}
	ps.proxy = p
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		ps.stop()
		return nil, err
	}
	p.Start()
	p.SetReady(true)
	ps.front = serve(l, &daemon{reg: reg}, p.Handler())
	if err := ps.waitHealthy(5 * time.Second); err != nil {
		ps.stop()
		return nil, err
	}
	return ps, nil
}

// waitHealthy polls /debug/ring until every backend has been probed and
// is healthy: backends start out presumed healthy, so the probe count is
// what shows the state is a measurement.
func (ps *proxyStack) waitHealthy(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		var view struct {
			Probes   int64 `json:"probes"`
			Backends []struct {
				State string `json:"state"`
			} `json:"backends"`
		}
		resp, err := http.Get(ps.front.url + "/debug/ring")
		if err == nil {
			err = json.NewDecoder(resp.Body).Decode(&view)
			resp.Body.Close()
		}
		if err == nil && view.Probes >= int64(len(ps.backends)) {
			healthy := 0
			for _, b := range view.Backends {
				if b.State == "healthy" {
					healthy++
				}
			}
			if healthy == len(ps.backends) {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("proxy backends not healthy within %v (last error: %v)", limit, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func (ps *proxyStack) stop() {
	if ps.front != nil {
		ps.front.stop()
	}
	if ps.proxy != nil {
		ps.proxy.Close()
	}
	for _, b := range ps.backends {
		b.stop()
	}
}

// newClient returns a client with its own single-connection pool: one
// closed-loop worker, one keep-alive connection. Retries are off so a
// refused or failed request is a failed operation, not a slow one.
func newClient(baseURL string, chunk int, tenant string) (*client.Client, *http.Transport) {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConnsPerHost = 1
	return client.New(client.Config{
		BaseURL:    baseURL,
		HTTPClient: &http.Client{Transport: t},
		MaxRetries: -1,
		ChunkElems: chunk,
		Tenant:     tenant,
	}), t
}
