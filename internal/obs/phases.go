package obs

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"time"

	"canvassing/internal/obs/tracez"
	"canvassing/internal/report"
)

// Phases records a run's pipeline phases as tracez span trees: a span
// started from Phases is a root, a span started from a span nests under
// it, and offsets are wall offsets from the root's start — the frame
// visit exemplar trees use, so tracez reads both alike. A study opens
// tens of phase spans, so all are kept. Safe for concurrent use.
type Phases struct {
	mu    sync.Mutex
	roots []*tracez.Span
	open  []*Span          // started but not ended, in start order
	now   func() time.Time // test seam
}

// Span is an open phase span. End it exactly once.
type Span struct {
	p    *Phases
	node *tracez.Span
	base time.Time // start of the tree's root
}

// PhaseStatus is one /statusz phase-ledger entry: the root spans of one
// name. State is "running" while any is open, else "done"; Runs and
// Seconds count the finished ones.
type PhaseStatus struct {
	Name    string  `json:"name"`
	State   string  `json:"state"`
	Runs    int     `json:"runs"`
	Seconds float64 `json:"seconds"`
}

// NewPhases returns an empty recorder.
func NewPhases() *Phases { return &Phases{now: time.Now} }

// Start opens a root span (a pipeline phase). Labels are alternating
// key/value pairs; a trailing odd key is dropped.
func (p *Phases) Start(name string, labels ...string) *Span { return p.start(nil, name, labels) }

// StartChild opens a span nested under sp.
func (sp *Span) StartChild(name string, labels ...string) *Span { return sp.p.start(sp, name, labels) }

func (p *Phases) start(parent *Span, name string, labels []string) *Span {
	node := &tracez.Span{Name: name}
	for i := 0; i+1 < len(labels); i += 2 {
		node.SetLabel(labels[i], labels[i+1])
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	now := p.now()
	sp := &Span{p: p, node: node, base: now}
	if parent == nil {
		p.roots = append(p.roots, node)
	} else {
		sp.base = parent.base
		node.Off = now.Sub(sp.base)
		parent.node.Children = append(parent.node.Children, node)
	}
	p.open = append(p.open, sp)
	return sp
}

// End closes the span and returns its wall duration; later calls are
// no-ops returning 0.
func (sp *Span) End() time.Duration {
	p := sp.p
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.isOpen(sp.node) {
		return 0
	}
	p.open = slices.DeleteFunc(p.open, func(o *Span) bool { return o == sp })
	sp.node.Wall = p.now().Sub(sp.base) - sp.node.Off
	return sp.node.Wall
}

// isOpen reports whether node's span has not ended. Callers hold p.mu.
func (p *Phases) isOpen(node *tracez.Span) bool {
	return slices.ContainsFunc(p.open, func(o *Span) bool { return o.node == node })
}

// Forest returns a copy of the finished phase trees, roots in start
// order. An open span and everything under it are left out.
func (p *Phases) Forest() []*tracez.Span {
	p.mu.Lock()
	defer p.mu.Unlock()
	var finished func(spans []*tracez.Span) []*tracez.Span
	finished = func(spans []*tracez.Span) []*tracez.Span {
		var out []*tracez.Span
		for _, s := range spans {
			if !p.isOpen(s) {
				cp := *s
				cp.Children = finished(s.Children)
				out = append(out, &cp)
			}
		}
		return out
	}
	return finished(p.roots)
}

// Active returns the open spans in start order, Wall set to the time
// elapsed so far. One still listed after its phase finished is a leak.
func (p *Phases) Active() []tracez.Span {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]tracez.Span, len(p.open))
	for i, sp := range p.open {
		out[i] = *sp.node
		out[i].Wall = p.now().Sub(sp.base) - sp.node.Off
		out[i].Children = nil
	}
	return out
}

// Ledger derives the /statusz phase ledger from the root spans, one
// entry per name in first-start order.
func (p *Phases) Ledger() []PhaseStatus {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []PhaseStatus
	for _, g := range byName(p.roots) {
		st := PhaseStatus{Name: g[0].Name, State: "done"}
		for _, r := range g {
			if p.isOpen(r) {
				st.State = "running"
			} else {
				st.Runs++
				st.Seconds += r.Wall.Seconds()
			}
		}
		out = append(out, st)
	}
	return out
}

// WriteJSONL writes the finished phase trees in the trace.jsonl format:
// one JSON tracez.Span tree per root, in start order.
func (p *Phases) WriteJSONL(w io.Writer) error { return tracez.WriteForest(w, p.Forest()) }

// Table renders the phase-timing table: one row per phase name at each
// level (same-named siblings summed), children indented, and each root
// phase's share of the summed root wall time.
func (p *Phases) Table() string {
	forest := p.Forest()
	var total time.Duration
	for _, r := range forest {
		total += r.Wall
	}
	t := report.NewTable("Phase timings", "phase", "wall", "share")
	var walk func(spans []*tracez.Span, depth int)
	walk = func(spans []*tracez.Span, depth int) {
		for _, g := range byName(spans) {
			var wall time.Duration
			var kids []*tracez.Span
			for _, s := range g {
				wall += s.Wall
				kids = append(kids, s.Children...)
			}
			share := ""
			if depth == 0 && total > 0 {
				share = fmt.Sprintf("%.1f%%", 100*float64(wall)/float64(total))
			}
			t.AddRow(strings.Repeat("  ", depth)+g[0].Name, wall.Round(time.Microsecond).String(), share)
			walk(kids, depth+1)
		}
	}
	walk(forest, 0)
	t.AddRow("total", total.Round(time.Microsecond).String(), "100.0%")
	return t.String()
}

// byName groups spans by name, groups in first-seen order.
func byName(spans []*tracez.Span) [][]*tracez.Span {
	var out [][]*tracez.Span
	idx := map[string]int{}
	for _, s := range spans {
		i, ok := idx[s.Name]
		if !ok {
			i = len(out)
			idx[s.Name] = i
			out = append(out, nil)
		}
		out[i] = append(out[i], s)
	}
	return out
}
