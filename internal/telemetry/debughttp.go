package telemetry

import (
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
)

// Shared debug/observability mux: every binary that exposes runtime
// introspection (cereszbench -debug-addr, cereszd, cereszproxy) serves the
// same two endpoint families, so dashboards and smoke tests work
// unchanged across them:
//
//	/debug/pprof/*    net/http/pprof profiles
//	/debug/metrics    Prometheus/OpenMetrics text exposition of the registry

// DebugMux returns a mux serving the standard debug endpoints for r. Mount
// it on its own listener or merge selected routes into an application mux
// with Handle.
func DebugMux(r *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/metrics", r.MetricsHandler())
	return mux
}

// ServeDebug enables r and serves DebugMux(r) on addr in a background
// goroutine, logging listen failures to errw (stderr in the CLIs). It
// returns immediately; the server runs for the process lifetime.
func ServeDebug(addr string, r *Registry, errw io.Writer) {
	r.SetEnabled(true)
	mux := DebugMux(r)
	go func() {
		if err := http.ListenAndServe(addr, mux); err != nil {
			fmt.Fprintln(errw, "debug server:", err)
		}
	}()
	fmt.Fprintf(errw, "debug server on http://%s/debug/pprof/ (also /debug/metrics)\n", addr)
}
