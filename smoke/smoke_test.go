// Package smoke holds the daemons to the codec's contract end to end: every
// element a cereszd or cereszproxy round trip decodes lands within ε, and
// the compressed stream is byte-identical to the library's StreamWriter
// whichever backend, cache path or failover served it.
//
// The process tests build cmd/cereszd and cmd/cereszproxy once into a temp
// dir, boot them on 127.0.0.1:0, read each port from the "listening on" log
// line, drive them with the client package and drain them with SIGTERM.
// They skip under -short; TestSmokeCachePaths runs in process and does not.
//
//	go test -count=1 ./smoke/
package smoke

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"ceresz"
	"ceresz/client"
)

const (
	chunk    = 16 << 10 // elements per frame, on every request
	eps      = 1e-3     // the default absolute bound
	cacheMiB = "268435456"
	clients  = 4 // concurrent clients per traffic run
)

var (
	buildOnce sync.Once
	binDir    string
	buildErr  error
)

func TestMain(m *testing.M) {
	code := m.Run()
	if binDir != "" {
		os.RemoveAll(binDir)
	}
	os.Exit(code)
}

// binary returns the path of the named daemon, building both on first use.
// It skips the calling test under -short.
func binary(t *testing.T, name string) string {
	t.Helper()
	if testing.Short() {
		t.Skip("boots daemon processes")
	}
	buildOnce.Do(func() {
		if binDir, buildErr = os.MkdirTemp("", "ceresz-smoke-"); buildErr != nil {
			return
		}
		out, err := exec.Command("go", "build", "-o", binDir, "ceresz/cmd/cereszd", "ceresz/cmd/cereszproxy").CombinedOutput()
		if err != nil {
			buildErr = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return filepath.Join(binDir, name)
}

// logBuf collects a daemon's stderr and hands over the address of its
// "listening on" line once.
type logBuf struct {
	mu     sync.Mutex
	b      bytes.Buffer
	addr   chan string // buffered, receives one address
	listen bool        // the address has been sent
}

func (l *logBuf) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.b.Write(p)
	if !l.listen {
		if _, rest, ok := strings.Cut(l.b.String(), " listening on "); ok {
			if line, _, ok := strings.Cut(rest, "\n"); ok {
				addr, _, _ := strings.Cut(line, ",") // the proxy's banner follows
				l.addr <- addr
				l.listen = true
			}
		}
	}
	return len(p), nil
}

func (l *logBuf) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// daemon is one running cereszd or cereszproxy process.
type daemon struct {
	name string
	URL  string
	cmd  *exec.Cmd
	log  *logBuf
	done chan struct{} // closed once the process has exited
	err  error         // its exit, valid after done
}

// start boots the named daemon on a free loopback port and returns once it
// is listening (and so ready). The test's cleanup kills it if it is still
// running.
func start(t *testing.T, name string, args ...string) *daemon {
	t.Helper()
	lb := &logBuf{addr: make(chan string, 1)}
	d := &daemon{name: name, log: lb, done: make(chan struct{})}
	d.cmd = exec.Command(binary(t, name), append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	d.cmd.Stderr = lb
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() { d.err = d.cmd.Wait(); close(d.done) }()
	t.Cleanup(d.kill)
	select {
	case addr := <-lb.addr:
		d.URL = "http://" + addr
	case <-d.done:
		t.Fatalf("%s exited before listening (%v):\n%s", name, d.err, lb)
	case <-time.After(30 * time.Second):
		t.Fatalf("%s did not listen within 30s:\n%s", name, lb)
	}
	return d
}

// kill ends the process with SIGKILL: a crash, not a drain.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // fails only once the process has exited
	<-d.done
}

// drain sends SIGTERM and holds the daemon to a clean drain: exit status 0
// and its "drained" log line. It first closes the test's idle connections:
// http.Server.Shutdown waits up to 5s on a connection that never carried a
// request, which the transport leaves behind when a request it dialed for
// went out on another.
func (d *daemon) drain(t *testing.T) {
	t.Helper()
	http.DefaultClient.CloseIdleConnections()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-d.done:
	case <-time.After(15 * time.Second):
		t.Fatalf("%s did not exit within 15s of SIGTERM:\n%s", d.name, d.log)
	}
	if d.err != nil {
		t.Errorf("%s exited with %v after SIGTERM:\n%s", d.name, d.err, d.log)
	}
	if !strings.Contains(d.log.String(), d.name+": drained\n") {
		t.Errorf("%s never logged drained:\n%s", d.name, d.log)
	}
}

// newClient returns a client of base, tagged with tenant, that shares
// http.DefaultClient's connections.
func newClient(base, tenant string) *client.Client {
	return client.New(client.Config{BaseURL: base, ChunkElems: chunk, Tenant: tenant, HTTPClient: http.DefaultClient})
}

// get fetches base+path and fails the test unless it answers 200.
func get(t *testing.T, base, path string) []byte {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s%s: %d %s", base, path, resp.StatusCode, body)
	}
	return body
}

// getJSON decodes base+path's JSON answer into v.
func getJSON(t *testing.T, base, path string, v any) {
	t.Helper()
	if err := json.Unmarshal(get(t, base, path), v); err != nil {
		t.Fatalf("GET %s%s: %v", base, path, err)
	}
}

// metrics scrapes base's /debug/metrics into its label-free samples by
// name: server.compress.requests reads as ceresz_server_compress_requests.
func metrics(t *testing.T, base string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	for _, line := range strings.Split(string(get(t, base, "/debug/metrics")), "\n") {
		fields := strings.Fields(line)
		if len(fields) != 2 || strings.HasPrefix(line, "#") || strings.Contains(fields[0], "{") {
			continue
		}
		if v, err := strconv.ParseFloat(fields[1], 64); err == nil {
			out[fields[0]] = v
		}
	}
	return out
}

// synthData is a smooth multi-scale wave, the shape the codec is built for.
func synthData[F float32 | float64](n int, seed int64) []F {
	out := make([]F, n)
	phase := float64(seed)
	for i := range out {
		x := float64(i)
		out[i] = F(3*math.Sin(0.01*x+phase) + 0.5*math.Sin(0.17*x) + 0.02*math.Sin(2.1*x))
	}
	return out
}

// checkBound holds a decode to the error-bound contract exactly:
// |v − v′| ≤ eps for every element, with no tolerance.
func checkBound[F float32 | float64](t *testing.T, name string, got, want []F) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: decoded %d elements, want %d", name, len(got), len(want))
	}
	for i, v := range got {
		if math.Abs(float64(v)-float64(want[i])) > eps {
			t.Fatalf("%s element %d: |%g - %g| exceeds eps %g", name, i, v, want[i], eps)
		}
	}
}

// roundTrip sends data through the compress and decompress endpoints. The
// stream must be byte-identical to the library's StreamWriter with the
// same chunking, the response must carry its request id and a Server-Timing
// trailer whose stages sum to no more than its total, and the decode must
// hold the bound.
func roundTrip[F float32 | float64](t *testing.T, name string, data []F,
	compress func(context.Context, []F, client.Bound) ([]byte, *client.Trace, error),
	writeChunk func(*ceresz.StreamWriter, []F) (*ceresz.Stats, error),
	decompress func(context.Context, []byte) ([]F, error)) {
	t.Helper()
	ctx := context.Background()
	comp, tr, err := compress(ctx, data, client.ABS(eps))
	if err != nil {
		t.Fatalf("%s compress: %v", name, err)
	}
	st := tr.Server
	switch {
	case tr.RequestID == "":
		t.Fatalf("%s compress response carried no X-Ceresz-Request-Id", name)
	case !st.Valid:
		t.Fatalf("%s compress response carried no Server-Timing trailer", name)
	case st.Total < st.Stages():
		t.Fatalf("%s: server total %v below stage sum %v", name, st.Total, st.Stages())
	}
	var local bytes.Buffer
	sw := ceresz.NewStreamWriter(&local, ceresz.ABS(eps), ceresz.Options{Workers: 1})
	for start := 0; start < len(data); start += chunk {
		if _, err := writeChunk(sw, data[start:min(start+chunk, len(data))]); err != nil {
			t.Fatalf("%s local stream: %v", name, err)
		}
	}
	if !bytes.Equal(comp, local.Bytes()) {
		t.Fatalf("%s served stream (%d bytes) differs from library StreamWriter (%d bytes)", name, len(comp), local.Len())
	}
	vals, err := decompress(ctx, comp)
	if err != nil {
		t.Fatalf("%s decompress: %v", name, err)
	}
	checkBound(t, name, vals, data)
}

// roundTrips is one smoke pass: a float32 and a float64 round trip of
// several frames plus a partial trailing one, and a bundle packed by the
// service and decoded by the library.
func roundTrips(t *testing.T, c *client.Client) {
	t.Helper()
	const n = 200_000
	roundTrip(t, "f32", synthData[float32](n, 7), c.CompressTraced, (*ceresz.StreamWriter).WriteChunk, c.Decompress)
	roundTrip(t, "f64", synthData[float64](n, 7), c.Compress64Traced, (*ceresz.StreamWriter).WriteChunk64, c.Decompress64)

	const bn = 10_000
	bdata := synthData[float32](bn, 11)
	bundle, err := c.Bundle(context.Background(), []client.BundleField{
		{Name: "field", Dims: [3]int{bn, 1, 1}, Bound: client.ABS(eps), F32: bdata},
	})
	if err != nil {
		t.Fatalf("bundle: %v", err)
	}
	br, err := ceresz.OpenBundle(bundle)
	if err != nil {
		t.Fatalf("bundle open: %v", err)
	}
	bvals, _, err := br.ReadField("field")
	if err != nil {
		t.Fatalf("bundle read: %v", err)
	}
	checkBound(t, "bundle", bvals, bdata)
}

// smokePasses runs three smoke passes against caching backends that have
// seen none of its chunks. A chunk is cached on its second sighting, so the
// first pass computes uncached, the second computes and caches, and the
// third is served from the cache; counters (the backends' summed samples)
// must show each pass taking its path.
func smokePasses(t *testing.T, c *client.Client, counters func() map[string]float64) {
	t.Helper()
	var prev map[string]float64
	for pass, moved := range []string{"ceresz_cache_first_sightings", "ceresz_cache_misses", "ceresz_cache_hits"} {
		roundTrips(t, c)
		cur := counters()
		if cur[moved] <= prev[moved] {
			t.Errorf("pass %d: %s did not move (%v → %v)", pass+1, moved, prev[moved], cur[moved])
		}
		if pass < 2 && cur["ceresz_cache_hits"] != 0 {
			t.Errorf("pass %d: %v cache hits before any chunk was seen twice", pass+1, cur["ceresz_cache_hits"])
		}
		prev = cur
	}
}

// stamp hands out chunk markers no payload has carried before.
var stamp atomic.Int64

// stampUnique overwrites the first element of every chunk with a fresh
// value far outside synthData's range, so no chunk of data matches one any
// backend has seen.
func stampUnique(data []float32) {
	s := float32(1000 + stamp.Add(1))
	for off := 0; off < len(data); off += chunk {
		data[off] = s
	}
}

// fanOut has each of clients goroutines w make requests calls of call(w)
// and fails the test if any call fails after the client's retries. midway,
// when non-nil, runs once after half the calls have completed, with the
// others still in flight.
func fanOut(t *testing.T, requests int, midway func(), call func(w int) error) {
	t.Helper()
	var completed atomic.Int64
	half := int64(clients * requests / 2)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for w := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range requests {
				if err := call(w); err != nil {
					errs[w] = fmt.Errorf("client %d request %d: %w", w, i, err)
					return
				}
				if completed.Add(1) == half && midway != nil {
					midway()
				}
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
}

// load sends clients×requests compress calls of elems never-seen float32
// elements through c (see fanOut for midway).
func load(t *testing.T, c *client.Client, elems, requests int, bound float64, midway func()) {
	t.Helper()
	mine := make([][]float32, clients)
	for w := range mine {
		mine[w] = synthData[float32](elems, int64(w))
	}
	fanOut(t, requests, midway, func(w int) error {
		stampUnique(mine[w])
		_, err := c.Compress(context.Background(), mine[w], client.ABS(bound))
		return err
	})
}

// shared is the framed stream of elems shared float32 elements under
// bound, compressed through c: the payload warmDecompress repeats.
func shared(t *testing.T, c *client.Client, elems int, bound float64) []byte {
	t.Helper()
	framed, err := c.Compress(context.Background(), synthData[float32](elems, 1), client.ABS(bound))
	if err != nil {
		t.Fatal(err)
	}
	return framed
}

// warmDecompress has every client decompress framed requests times: warm
// traffic, which a caching backend answers from memory once it has seen
// each frame twice.
func warmDecompress(t *testing.T, c *client.Client, framed []byte, requests int) {
	t.Helper()
	fanOut(t, requests, nil, func(int) error {
		_, err := c.Decompress(context.Background(), framed)
		return err
	})
}
