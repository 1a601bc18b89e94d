package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"ceresz/client"
	"ceresz/internal/server"
	"ceresz/internal/telemetry"
)

// recordingBackend is a real backend that keeps every /v1/compress body
// it was sent.
type recordingBackend struct {
	h      http.Handler
	mu     sync.Mutex
	bodies [][]byte
}

func (b *recordingBackend) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost && r.URL.Path == "/v1/compress" {
		body, _ := io.ReadAll(r.Body)
		b.mu.Lock()
		b.bodies = append(b.bodies, body)
		b.mu.Unlock()
		r.Body = io.NopCloser(bytes.NewReader(body))
	}
	b.h.ServeHTTP(w, r)
}

// TestClientBodyThroughProxyReplay: the Go client posts the caller's
// floats in place, with no byte copy of its own. What reaches a backend
// through the proxy must still be the plain wire image — on the direct
// forward and again when the proxy replays its buffered copy onto the
// next owner after the first one died.
func TestClientBodyThroughProxyReplay(t *testing.T) {
	var backends [2]*recordingBackend
	var servers [2]*httptest.Server
	for i := range backends {
		srv := server.New(server.Config{Workers: 2, Registry: telemetry.NewRegistry()})
		t.Cleanup(srv.Close)
		backends[i] = &recordingBackend{h: srv.Handler()}
		servers[i] = httptest.NewServer(backends[i])
		t.Cleanup(servers[i].Close)
	}
	_, pts, reg := newTestProxy(t, Config{Backends: []string{servers[0].URL, servers[1].URL}})

	data := make([]float32, 48<<10)
	want := make([]byte, 4*len(data))
	for i := range data {
		data[i] = 2 + float32(math.Sin(0.01*float64(i)))
		binary.LittleEndian.PutUint32(want[4*i:], math.Float32bits(data[i]))
	}
	c := client.New(client.Config{BaseURL: pts.URL, MaxRetries: -1, ChunkElems: 16384})
	first, err := c.Compress(context.Background(), data, client.ABS(1e-3))
	if err != nil {
		t.Fatal(err)
	}

	owner := 0
	if len(backends[1].bodies) > 0 {
		owner = 1
	}
	servers[owner].Close()
	second, err := c.Compress(context.Background(), data, client.ABS(1e-3))
	if err != nil {
		t.Fatalf("compress after the owner died: %v", err)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("failover answer differs from the first compressed stream")
	}
	if got := reg.Counter("proxy.failover").Value(); got != 1 {
		t.Fatalf("proxy.failover = %d, want 1", got)
	}
	for i, b := range backends {
		if len(b.bodies) != 1 {
			t.Fatalf("backend %d received %d compress bodies, want 1", i, len(b.bodies))
		}
		if !bytes.Equal(b.bodies[0], want) {
			t.Fatalf("backend %d received %d bytes that are not the wire image of the floats", i, len(b.bodies[0]))
		}
	}
}
