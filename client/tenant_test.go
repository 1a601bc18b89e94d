package client

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// tenantRecorder captures the X-Ceresz-Tenant header of every request.
type tenantRecorder struct {
	mu      sync.Mutex
	headers []string
	present []bool
}

func (tr *tenantRecorder) record(r *http.Request) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	v, ok := r.Header["X-Ceresz-Tenant"]
	if ok {
		tr.headers = append(tr.headers, v[0])
	} else {
		tr.headers = append(tr.headers, "")
	}
	tr.present = append(tr.present, ok)
}

func TestTenantHeaderOnEveryRequest(t *testing.T) {
	rec := &tenantRecorder{}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec.record(r)
		if r.URL.Path == "/healthz/ready" || r.URL.Path == "/healthz" {
			w.Header().Set("Content-Type", "application/json")
			w.Write([]byte(`{"status":"ok"}`))
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()

	c := New(Config{BaseURL: ts.URL, Tenant: "acme", MaxRetries: -1})
	if _, err := c.Compress(context.Background(), []float32{1}, ABS(1e-3)); err != nil {
		t.Fatal(err)
	}
	if err := c.Health(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Ready(context.Background()); err != nil {
		t.Fatal(err)
	}

	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.headers) != 3 {
		t.Fatalf("saw %d requests, want 3", len(rec.headers))
	}
	for i, h := range rec.headers {
		if h != "acme" {
			t.Fatalf("request %d carried tenant %q, want \"acme\"", i, h)
		}
	}
}

func TestNoTenantHeaderByDefault(t *testing.T) {
	rec := &tenantRecorder{}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec.record(r)
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()

	c := New(Config{BaseURL: ts.URL, MaxRetries: -1})
	if _, err := c.Compress(context.Background(), []float32{1}, ABS(1e-3)); err != nil {
		t.Fatal(err)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.present) != 1 || rec.present[0] {
		t.Fatalf("untenanted client sent an X-Ceresz-Tenant header (%v)", rec.headers)
	}
}

// A 429 + Retry-After from whichever tier answered (a saturated
// cereszproxy or cereszd) is retried: honor the hint, keep the tenant
// header on the retry, succeed on the next attempt.
func TestProxyTenantThrottleRetried(t *testing.T) {
	attempts := 0
	var retryTenant string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts++
		if attempts == 1 {
			// A 429 with a Retry-After hint; the client never parses the
			// body text.
			w.Header().Set("Retry-After", "0")
			http.Error(w, "proxy: tenant acme rate limited, retry later", http.StatusTooManyRequests)
			return
		}
		retryTenant = r.Header.Get("X-Ceresz-Tenant")
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()

	c := New(Config{
		BaseURL: ts.URL, Tenant: "acme",
		MaxRetries: 2, BaseBackoff: time.Millisecond, MaxBackoff: time.Millisecond,
	})
	_, trc, err := c.CompressTraced(context.Background(), []float32{1}, ABS(1e-3))
	if err != nil {
		t.Fatal(err)
	}
	if attempts != 2 {
		t.Fatalf("server saw %d attempts, want 2 (one throttle, one retry)", attempts)
	}
	if trc.Rejected429 != 1 {
		t.Fatalf("trace counted %d 429s, want 1", trc.Rejected429)
	}
	if retryTenant != "acme" {
		t.Fatalf("retry carried tenant %q, want \"acme\"", retryTenant)
	}
}
