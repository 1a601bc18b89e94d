package telemetry

import (
	"expvar"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"sync"
)

// Shared debug/observability mux: every binary that exposes runtime
// introspection (cereszbench -debug-addr, cereszd, cereszproxy) serves the
// same four endpoint families, so dashboards and smoke tests work
// unchanged across them:
//
//	/debug/pprof/*    net/http/pprof profiles
//	/debug/vars       expvar JSON (includes the registry snapshot)
//	/debug/telemetry  the registry snapshot as indented JSON
//	/debug/metrics    Prometheus/OpenMetrics text exposition

// publishOnce guards expvar.Publish, which panics on duplicate names —
// tests and multi-server processes may build several debug muxes over the
// same registry.
var (
	publishMu   sync.Mutex
	publishedBy = map[string]*Registry{}
)

// PublishExpvarOnce publishes the registry under name unless that name is
// already taken; republishing the same registry is a no-op, a different
// registry under the same name returns an error instead of panicking.
func (r *Registry) PublishExpvarOnce(name string) error {
	publishMu.Lock()
	defer publishMu.Unlock()
	if prev, ok := publishedBy[name]; ok {
		if prev == r {
			return nil
		}
		return fmt.Errorf("telemetry: expvar name %q already published by another registry", name)
	}
	r.PublishExpvar(name)
	publishedBy[name] = r
	return nil
}

// DebugMux returns a mux serving the standard debug endpoints for r. The
// registry is also published to expvar under expvarName (skipped when the
// name is already owned by another registry). Mount it on its own listener
// or merge selected routes into an application mux with Handle.
func DebugMux(r *Registry, expvarName string) *http.ServeMux {
	_ = r.PublishExpvarOnce(expvarName)
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.Handle("/debug/telemetry", r.Handler())
	mux.Handle("/debug/metrics", r.MetricsHandler())
	return mux
}

// ServeDebug enables r and serves DebugMux(r, expvarName) on addr in a
// background goroutine, logging listen failures to errw (stderr in the
// CLIs). It returns immediately; the server runs for the process lifetime.
func ServeDebug(addr string, r *Registry, expvarName string, errw io.Writer) {
	r.SetEnabled(true)
	mux := DebugMux(r, expvarName)
	go func() {
		if err := http.ListenAndServe(addr, mux); err != nil {
			fmt.Fprintln(errw, "debug server:", err)
		}
	}()
	fmt.Fprintf(errw, "debug server on http://%s/debug/pprof/ (also /debug/vars, /debug/telemetry, /debug/metrics)\n", addr)
}
