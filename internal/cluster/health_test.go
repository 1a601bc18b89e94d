package cluster

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// readyStub is a controllable /healthz/ready endpoint.
type readyStub struct {
	status atomic.Int32 // HTTP status to answer
	body   atomic.Value // string JSON body
}

func newReadyStub(status int, body string) *readyStub {
	s := &readyStub{}
	s.status.Store(int32(status))
	s.body.Store(body)
	return s
}

func (s *readyStub) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/healthz/ready" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(int(s.status.Load()))
	_, _ = w.Write([]byte(s.body.Load().(string)))
}

// changeRecorder counts onChange callbacks and lets tests wait for them.
type changeRecorder struct {
	mu sync.Mutex
	n  int
	ch chan struct{}
}

func newChangeRecorder() *changeRecorder {
	return &changeRecorder{ch: make(chan struct{}, 64)}
}

func (c *changeRecorder) fire() {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
	select {
	case c.ch <- struct{}{}:
	default:
	}
}

func (c *changeRecorder) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// waitFor polls cond until true or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestCheckerProbeTransitions(t *testing.T) {
	stub := newReadyStub(http.StatusOK, `{"status":"ok"}`)
	ts := httptest.NewServer(stub)
	defer ts.Close()

	rec := newChangeRecorder()
	c := newChecker([]string{ts.URL}, HealthConfig{Interval: 10 * time.Millisecond, FailAfter: 2}, http.DefaultClient, rec.fire)
	c.Start()
	defer c.Stop()

	waitFor(t, "first probe", func() bool { return c.probes.Load() >= 1 })
	if got := c.State(0); got != StateHealthy {
		t.Fatalf("state after ok probe = %v, want healthy", got)
	}

	// The backend starts reporting degraded (an SLO is burning): the
	// checker parses the PR-10 detail and weights it down, not out.
	stub.body.Store(`{"status":"degraded","slo":[{"spec":"compress:p99<1ms:99.9"}]}`)
	waitFor(t, "degraded", func() bool { return c.State(0) == StateDegraded })

	// Draining: 503 means off the ring immediately.
	stub.status.Store(http.StatusServiceUnavailable)
	stub.body.Store(`{"status":"draining"}`)
	waitFor(t, "unready", func() bool { return c.State(0) == StateUnready })

	// Recovery back to healthy.
	stub.status.Store(http.StatusOK)
	stub.body.Store(`{"status":"ok"}`)
	waitFor(t, "healthy again", func() bool { return c.State(0) == StateHealthy })
	if rec.count() < 3 {
		t.Fatalf("onChange fired %d times, want >= 3", rec.count())
	}
}

func TestCheckerDeadAfterConsecutiveFailures(t *testing.T) {
	stub := newReadyStub(http.StatusOK, `{"status":"ok"}`)
	ts := httptest.NewServer(stub)

	rec := newChangeRecorder()
	c := newChecker([]string{ts.URL}, HealthConfig{Interval: 10 * time.Millisecond, FailAfter: 2}, http.DefaultClient, rec.fire)
	c.Start()
	defer c.Stop()
	waitFor(t, "healthy", func() bool { return c.probes.Load() >= 1 && c.State(0) == StateHealthy })

	// Kill the backend: probes now fail at the transport level, and after
	// FailAfter consecutive failures the backend is dead.
	ts.Close()
	waitFor(t, "dead", func() bool { return c.State(0) == StateDead })
	if snap := c.snapshot(0); snap.LastErr == "" {
		t.Fatal("dead backend carries no last error")
	}
}

func TestCheckerTrafficPathReports(t *testing.T) {
	// No poll loop at all: the traffic path alone must be able to kill
	// and revive a backend.
	rec := newChangeRecorder()
	c := newChecker([]string{"http://127.0.0.1:1"}, HealthConfig{FailAfter: 3}, http.DefaultClient, rec.fire)

	err := errors.New("connection refused")
	c.ReportFailure(0, err)
	c.ReportFailure(0, err)
	if c.State(0) != StateHealthy {
		t.Fatal("backend died before FailAfter failures")
	}
	c.ReportFailure(0, err)
	if c.State(0) != StateDead {
		t.Fatal("backend not dead after FailAfter forwarding failures")
	}
	if rec.count() != 1 {
		t.Fatalf("onChange fired %d times, want exactly 1", rec.count())
	}

	// A successful forward revives it — answering traffic is not dead.
	c.ReportSuccess(0)
	if c.State(0) != StateHealthy {
		t.Fatal("backend not revived by a successful forward")
	}
	if rec.count() != 2 {
		t.Fatalf("onChange fired %d times after revival, want 2", rec.count())
	}
}

func TestCheckerSuccessDoesNotUpgradeUnready(t *testing.T) {
	rec := newChangeRecorder()
	c := newChecker([]string{"http://127.0.0.1:1"}, HealthConfig{FailAfter: 1}, http.DefaultClient, rec.fire)
	c.setState(0, StateUnready)
	// A draining backend still answers in-flight requests; success must
	// not override its own "stop routing to me" declaration.
	c.ReportSuccess(0)
	if c.State(0) != StateUnready {
		t.Fatal("ReportSuccess overrode the backend's unready declaration")
	}
}
