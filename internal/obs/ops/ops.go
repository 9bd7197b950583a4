// Package ops assembles the production ops plane: it wires the obs
// debug mux together with the Prometheus exposition endpoint
// (internal/obs/prom), the sliding-window RED views
// (internal/obs/window), the live /statusz run-status page fed by the
// obs.Status tracker and the phase recorder, and the /tracez view over
// the phase forest and the exemplar reservoir.
//
// The split exists to keep import edges acyclic: obs knows nothing of
// prom or window (both import obs), so this package is where they
// meet. Binaries call Start with their parsed obs.CLI and get the
// whole surface — or nothing, when no serving flag was given.
//
// Endpoints added on top of the obs mux:
//
//	/metrics.prom  registry in Prometheus text exposition format
//	/red           sliding-window RED view (rates, ratios, latencies)
//	/statusz       live run status: phases, frontier, ETA (JSON or HTML)
//	/tracez        trace analytics: critical path + slowest-visit exemplars
package ops

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"time"

	"canvassing/internal/obs"
	"canvassing/internal/obs/prom"
	"canvassing/internal/obs/tracez"
	"canvassing/internal/obs/window"
)

// Statusz is the /statusz JSON payload: the status tracker's snapshot
// plus what is computed at serve time (the phase ledger derived from
// the phase forest, windowed visit rate, ETA for the active crawl,
// open spans).
type Statusz struct {
	obs.StatusSnapshot
	// Phases is the phase ledger, derived from the root phase spans.
	Phases []obs.PhaseStatus `json:"phases,omitempty"`
	// VisitRatePerSec is the windowed page visit rate (ok + failed).
	VisitRatePerSec float64 `json:"visit_rate_per_sec"`
	// ETACondition / ETASeconds estimate completion of the first
	// unfinished crawl from the windowed visit rate. Omitted when no
	// crawl is active or the rate is zero.
	ETACondition string  `json:"eta_condition,omitempty"`
	ETASeconds   float64 `json:"eta_seconds,omitempty"`
	// ActiveSpans lists currently-open phase spans in start order,
	// each with its wall time so far.
	ActiveSpans []tracez.Span `json:"active_spans,omitempty"`
}

// BuildStatusz assembles the payload from the telemetry bundle and
// windowed view (view may be nil: rate and ETA stay zero).
func BuildStatusz(tel *obs.Telemetry, view *window.View) Statusz {
	st := Statusz{StatusSnapshot: tel.Status.Snapshot(), Phases: tel.Phases.Ledger(), ActiveSpans: tel.Phases.Active()}
	if view != nil {
		st.VisitRatePerSec = view.VisitRate()
	}
	if crawl, ok := tel.Status.ActiveCrawl(); ok && st.VisitRatePerSec > 0 {
		st.ETACondition = crawl.Condition
		st.ETASeconds = float64(crawl.Total-crawl.Frontier) / st.VisitRatePerSec
	}
	return st
}

// Routes returns the ops-plane extras to layer onto the obs mux. The
// reservoir may be nil (visit tracing off): /tracez then answers 404.
func Routes(tel *obs.Telemetry, view *window.View, visits *tracez.Reservoir) []obs.Route {
	return []obs.Route{
		{Pattern: "/metrics.prom", Desc: "metrics registry (Prometheus text exposition)",
			Handler: prom.Handler(tel.Metrics)},
		{Pattern: "/red", Desc: "sliding-window RED view (rates, error ratios, latency percentiles)",
			Handler: redHandler(view)},
		{Pattern: "/statusz", Desc: "live run status: phases, crawl frontier, ETA (JSON; HTML for browsers)",
			Handler: statuszHandler(tel, view)},
		{Pattern: "/tracez", Desc: "trace analytics: critical path, phase attribution, slowest-visit exemplars (JSON; HTML for browsers)",
			Handler: tracezHandler(tel, visits)},
	}
}

// NewMux builds the full ops-plane mux: every obs debug endpoint plus
// the exposition, RED, status, and trace-analytics routes.
func NewMux(tel *obs.Telemetry, withPprof bool, view *window.View, visits *tracez.Reservoir) *http.ServeMux {
	return obs.NewMux(tel, withPprof, Routes(tel, view, visits)...)
}

// redHandler serves the windowed RED snapshot as JSON. A nil view
// (sampler disabled) answers 404 so probes can tell it apart from an
// idle window.
func redHandler(view *window.View) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if view == nil {
			http.Error(w, "windowed view disabled", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		writeJSON(w, view.RED())
	})
}

// statuszHandler serves the live run status — JSON by default, a small
// HTML dashboard when the client asks for text/html.
func statuszHandler(tel *obs.Telemetry, view *window.View) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		st := BuildStatusz(tel, view)
		if obs.WantsHTML(r) {
			w.Header().Set("Content-Type", "text/html; charset=utf-8")
			writeStatuszHTML(w, st)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		writeJSON(w, st)
	})
}

// tracezHandler serves the live trace-analytics view — JSON by
// default, an HTML slowest-visits dashboard for browsers. A nil
// reservoir (visit tracing disabled) answers 404 so probes can tell
// the feature is off, matching the /red convention.
func tracezHandler(tel *obs.Telemetry, visits *tracez.Reservoir) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if visits == nil {
			http.Error(w, "visit tracing disabled (run with -tracez)", http.StatusNotFound)
			return
		}
		p := tracez.Payload{
			CriticalPath: tracez.Analyze(tel.Phases.Forest()),
			Conditions:   visits.Snapshot(),
		}
		if obs.WantsHTML(r) {
			w.Header().Set("Content-Type", "text/html; charset=utf-8")
			tracez.WriteHTML(w, p)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		writeJSON(w, p)
	})
}

func writeStatuszHTML(w http.ResponseWriter, st Statusz) {
	fmt.Fprint(w, "<!DOCTYPE html><html><head><title>canvassing /statusz</title></head><body>")
	fmt.Fprintf(w, "<h1>run status: %s</h1>", st.State)
	fmt.Fprintf(w, "<p>uptime %.1fs", st.UptimeSeconds)
	if st.VisitRatePerSec > 0 {
		fmt.Fprintf(w, " · %.1f visits/s", st.VisitRatePerSec)
	}
	if st.ETASeconds > 0 {
		fmt.Fprintf(w, " · ETA %s for %s",
			(time.Duration(st.ETASeconds * float64(time.Second))).Round(time.Second), st.ETACondition)
	}
	fmt.Fprint(w, "</p>")
	if len(st.Crawls) > 0 {
		fmt.Fprint(w, "<h2>crawls</h2><table border=1 cellpadding=4><tr><th>condition</th><th>frontier</th><th>total</th><th>done</th></tr>")
		for _, c := range st.Crawls {
			fmt.Fprintf(w, "<tr><td>%s</td><td>%d</td><td>%d</td><td>%v</td></tr>",
				c.Condition, c.Frontier, c.Total, c.Done)
		}
		fmt.Fprint(w, "</table>")
	}
	if len(st.Phases) > 0 {
		fmt.Fprint(w, "<h2>phases</h2><table border=1 cellpadding=4><tr><th>phase</th><th>state</th><th>runs</th><th>seconds</th></tr>")
		for _, p := range st.Phases {
			fmt.Fprintf(w, "<tr><td>%s</td><td>%s</td><td>%d</td><td>%.3f</td></tr>",
				p.Name, p.State, p.Runs, p.Seconds)
		}
		fmt.Fprint(w, "</table>")
	}
	if len(st.ActiveSpans) > 0 {
		fmt.Fprint(w, "<h2>active spans</h2><ul>")
		for _, sp := range st.ActiveSpans {
			fmt.Fprintf(w, "<li><code>%s</code> %.3fs</li>", sp.Name, sp.Wall.Seconds())
		}
		fmt.Fprint(w, "</ul>")
	}
	if st.Checkpoint != nil {
		fmt.Fprintf(w, "<h2>checkpoint</h2><p>%s · %d writes</p>", st.Checkpoint.Dir, st.Checkpoint.Writes)
	}
	fmt.Fprint(w, "</body></html>")
}

// Plane is a running ops plane: the HTTP server plus its window
// sampler. All methods are nil-safe so callers can unconditionally
// defer Close after a Start that may decline to serve.
type Plane struct {
	Server *obs.Server
	View   *window.View
}

// Addr reports the bound listen address ("" for a nil plane).
func (p *Plane) Addr() string {
	if p == nil || p.Server == nil {
		return ""
	}
	return p.Server.Addr()
}

// URL reports the http:// base URL ("" for a nil plane).
func (p *Plane) URL() string {
	if p == nil || p.Server == nil {
		return ""
	}
	return p.Server.URL()
}

// Shutdown gracefully stops the server and sampler.
func (p *Plane) Shutdown(ctx context.Context) error {
	if p == nil {
		return nil
	}
	if p.View != nil {
		p.View.Stop()
	}
	if p.Server != nil {
		return p.Server.Shutdown(ctx)
	}
	return nil
}

// Close stops the server and sampler immediately.
func (p *Plane) Close() error {
	if p == nil {
		return nil
	}
	if p.View != nil {
		p.View.Stop()
	}
	if p.Server != nil {
		return p.Server.Close()
	}
	return nil
}

// Serve builds a windowed view over tel's registry, starts its
// sampler, and serves the full ops plane on addr (":0" picks a port).
// visits may be nil when the run captures no exemplars.
func Serve(addr string, tel *obs.Telemetry, withPprof bool, win time.Duration, visits *tracez.Reservoir) (*Plane, error) {
	view := window.New(tel.Metrics, win)
	srv, err := obs.StartServer(addr, NewMux(tel, withPprof, view, visits))
	if err != nil {
		return nil, err
	}
	view.Start(0)
	return &Plane{Server: srv, View: view}, nil
}

// Start serves the ops plane when the parsed CLI asked for one
// (-status or -pprof) and reports the bound address on stderr. With
// neither flag set it returns (nil, nil); the nil Plane's methods are
// all no-ops. visits feeds /tracez and may be nil.
func Start(cli *obs.CLI, tel *obs.Telemetry, visits *tracez.Reservoir) (*Plane, error) {
	addr, withPprof := cli.OpsAddr()
	if addr == "" {
		return nil, nil
	}
	p, err := Serve(addr, tel, withPprof, cli.Window, visits)
	if err != nil {
		return nil, err
	}
	label := "ops plane"
	if withPprof {
		label = "ops plane (with pprof)"
	}
	fmt.Fprintf(os.Stderr, "telemetry: serving %s on %s\n", label, p.URL())
	return p, nil
}

// writeJSON marshals v indented (map keys come out sorted, so the
// payload is stable for a given state).
func writeJSON(w http.ResponseWriter, v any) {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
