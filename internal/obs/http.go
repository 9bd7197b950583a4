package obs

import (
	"fmt"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
)

// Handler serves the registry snapshot as JSON — an expvar-style
// endpoint for live inspection of a running crawl.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = r.WriteJSON(w)
	})
}

// Route is one endpoint on the debug/ops mux. Extras passed to NewMux
// are registered alongside the built-in endpoints and listed on the
// root index page, so subpackages (prom exposition, windowed RED
// views, /statusz) can extend the surface without obs importing them.
type Route struct {
	// Pattern is the mux pattern ("/metrics.prom").
	Pattern string
	// Desc is the one-line description the index page shows.
	Desc string
	// Handler answers the route.
	Handler http.Handler
}

// NewMux builds the debug mux for a telemetry bundle: a root index
// listing every endpoint, /metrics (registry JSON), /metrics.txt
// (terminal rendering), /spans (JSONL), /events (decision-event
// JSONL), /healthz, /readyz, any extra routes, and, when withPprof is
// set, the standard net/http/pprof endpoints under /debug/pprof/. The
// pprof handlers are registered explicitly so importing this package
// never pollutes http.DefaultServeMux.
func NewMux(tel *Telemetry, withPprof bool, extras ...Route) *http.ServeMux {
	routes := []Route{
		{Pattern: "/metrics", Desc: "metrics registry snapshot (JSON)", Handler: tel.Metrics.Handler()},
		{Pattern: "/metrics.txt", Desc: "metrics registry snapshot (terminal rendering)",
			Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
				w.Header().Set("Content-Type", "text/plain; charset=utf-8")
				_, _ = w.Write([]byte(tel.Metrics.RenderText()))
			})},
		{Pattern: "/spans", Desc: "finished phase span trees, one per line (trace.jsonl format)",
			Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
				w.Header().Set("Content-Type", "application/x-ndjson")
				_ = tel.Phases.WriteJSONL(w)
			})},
		{Pattern: "/events", Desc: "decision-evidence event log (JSON lines)",
			Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
				w.Header().Set("Content-Type", "application/x-ndjson")
				_ = tel.Events.WriteJSONL(w)
			})},
		{Pattern: "/healthz", Desc: "liveness probe (always 200 while the process serves)",
			Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
				w.Header().Set("Content-Type", "text/plain; charset=utf-8")
				fmt.Fprintln(w, "ok")
			})},
		{Pattern: "/readyz", Desc: "readiness probe (200 once the study is constructed)",
			Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
				w.Header().Set("Content-Type", "text/plain; charset=utf-8")
				if tel.Status.Ready() {
					fmt.Fprintln(w, "ready")
					return
				}
				w.WriteHeader(http.StatusServiceUnavailable)
				fmt.Fprintf(w, "not ready: %s\n", tel.Status.State())
			})},
	}
	routes = append(routes, extras...)

	mux := http.NewServeMux()
	for _, r := range routes {
		mux.Handle(r.Pattern, r.Handler)
	}
	if withPprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		routes = append(routes, Route{Pattern: "/debug/pprof/", Desc: "net/http/pprof profiling endpoints"})
	}
	mux.Handle("/", indexHandler(routes))
	return mux
}

// indexHandler serves the root discovery page: every registered
// endpoint with its description, as HTML (or plain text for curl-ish
// clients that don't ask for HTML). Unknown paths still 404.
func indexHandler(routes []Route) http.Handler {
	sorted := append([]Route(nil), routes...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Pattern < sorted[j].Pattern })
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		if !WantsHTML(r) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			for _, rt := range sorted {
				fmt.Fprintf(w, "%-16s %s\n", rt.Pattern, rt.Desc)
			}
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		fmt.Fprint(w, "<!DOCTYPE html><html><head><title>canvassing ops plane</title></head><body>")
		fmt.Fprint(w, "<h1>canvassing ops plane</h1><ul>")
		for _, rt := range sorted {
			fmt.Fprintf(w, `<li><a href="%s"><code>%s</code></a> — %s</li>`, rt.Pattern, rt.Pattern, rt.Desc)
		}
		fmt.Fprint(w, "</ul></body></html>")
	})
}

// WantsHTML sniffs the Accept header (browsers ask for text/html;
// curl and probes do not). Exported for subpackage handlers that offer
// the same dual rendering.
func WantsHTML(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), "text/html")
}
