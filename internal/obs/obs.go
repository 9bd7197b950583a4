// Package obs is the crawl telemetry layer: a concurrency-safe metrics
// registry (atomic counters, gauges, and fixed-bucket latency
// histograms), a phase recorder that keeps pipeline phases as
// internal/obs/tracez span trees, and snapshot/render APIs for
// terminal tables, JSON dumps, and live HTTP inspection.
//
// There is one span model. Phase spans and the crawler's per-visit
// exemplar trees are both *tracez.Span trees: the recorder's forest is
// what the phase-timing table, the /statusz phase ledger, /spans,
// -trace, the bundle's trace.jsonl and /tracez all read.
//
// The paper's crawler ran for weeks over 40k sites; its §3.2
// limitations hinge on knowing what the crawler actually did
// (timeouts, blocked scripts, failed visits). Everything here exists
// so the reproduction pipeline is never blind in the same way: the
// crawler reports visit latency, queue wait, parse time, and jsvm
// step budgets; the study wraps every phase
// in a span so a run ends with a phase-timing table.
//
// All types are safe for concurrent use. A nil *Telemetry disables
// instrumentation at the call sites that accept one; the registry and
// phase recorder themselves never need nil checks once constructed.
package obs

import "canvassing/internal/obs/event"

// Telemetry bundles the three halves of the observability layer: the
// metrics registry (counters, gauges, histograms), the phase recorder
// (span trees of the pipeline phases), and the decision-event sink
// (per-canvas / per-script provenance). One Telemetry is shared by a
// whole pipeline run so every crawl and analysis phase accumulates into
// it.
type Telemetry struct {
	Metrics *Registry
	Phases  *Phases
	Events  *event.Sink
	// Status is the live run-progress tracker behind /healthz, /readyz,
	// and /statusz. It is deliberately NOT part of the registry: nothing
	// in it reaches a bundle or checkpoint, so the ops plane never
	// perturbs deterministic artifacts. Nil on bare Telemetry literals;
	// every consumer nil-checks (Status methods are nil-safe).
	Status *Status
}

// NewTelemetry returns an empty telemetry bundle.
func NewTelemetry() *Telemetry {
	return &Telemetry{Metrics: NewRegistry(), Phases: NewPhases(), Events: event.NewSink(0), Status: NewStatus()}
}
