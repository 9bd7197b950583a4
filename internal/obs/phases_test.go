package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// fakeClock advances a deterministic amount on every read so span
// durations are predictable in tests.
func fakeClock(step time.Duration) func() time.Time {
	t0 := time.Unix(1_700_000_000, 0)
	n := 0
	return func() time.Time {
		n++
		return t0.Add(time.Duration(n) * step)
	}
}

// TestSpanHierarchyAndSummary pins the tree shape (roots in start
// order, children nested, offsets from the root's start, labels kept)
// and the phase table that summarises it: same-named siblings merge
// into one row and each root gets its share of the total.
func TestSpanHierarchyAndSummary(t *testing.T) {
	const ms = time.Millisecond
	p := NewPhases()
	p.now = fakeClock(ms)
	run := p.Start("run")                                 // t=1
	crawl := run.StartChild("crawl", "cohort", "popular") // t=2
	crawl.End()                                           // t=3
	run.StartChild("detect").End()                        // t=4, 5
	run.StartChild("detect").End()                        // t=6, 7
	run.End()                                             // t=8
	p.Start("report").End()

	forest := p.Forest()
	if len(forest) != 2 || forest[0].Name != "run" || forest[1].Name != "report" {
		t.Fatalf("roots wrong: %+v", forest)
	}
	kids := forest[0].Children
	if forest[0].Off != 0 || forest[0].Wall != 7*ms || len(kids) != 3 || kids[0].Name != "crawl" {
		t.Fatalf("run tree wrong: %+v", forest[0])
	}
	if kids[0].Off != ms || kids[0].Wall != ms || kids[2].Off != 5*ms || kids[0].Labels["cohort"] != "popular" {
		t.Fatalf("children wrong: crawl %+v, second detect %+v", kids[0], kids[2])
	}

	text := p.Table()
	for _, want := range []string{"Phase timings", "run ", "  crawl", "  detect  2ms", "report", "100.0%", "total"} {
		if !strings.Contains(text, want) {
			t.Fatalf("table missing %q:\n%s", want, text)
		}
	}
	if strings.Count(text, "detect") != 1 {
		t.Fatalf("same-named siblings must share one row:\n%s", text)
	}
}

func TestSpanDoubleEnd(t *testing.T) {
	p := NewPhases()
	sp := p.Start("once")
	if d := sp.End(); d < 0 {
		t.Fatal("duration must be non-negative")
	}
	if d := sp.End(); d != 0 {
		t.Fatal("second End must be a no-op")
	}
	if len(p.Forest()) != 1 {
		t.Fatal("double End must not duplicate spans")
	}
}

// TestPhaseSummaryAggregatesRepeats: a phase run three times is one
// ledger entry with three runs and one table row.
func TestPhaseSummaryAggregatesRepeats(t *testing.T) {
	p := NewPhases()
	p.now = fakeClock(time.Millisecond)
	for i := 0; i < 3; i++ {
		p.Start("crawl").End()
	}
	led := p.Ledger()
	if len(led) != 1 || led[0].Runs != 3 || led[0].State != "done" || led[0].Seconds != 0.003 {
		t.Fatalf("repeat phases must aggregate: %+v", led)
	}
	if text := p.Table(); strings.Count(text, "crawl") != 1 || !strings.Contains(text, "crawl  3ms") {
		t.Fatalf("repeat phases must share one 3ms row:\n%s", text)
	}
}

// TestWriteJSONL: one tracez.Span tree per finished root, which is what
// tracez.LoadRunDir reads back.
func TestWriteJSONL(t *testing.T) {
	p := NewPhases()
	p.Start("a").End()
	b := p.Start("b", "k", "v")
	b.StartChild("c").End()
	b.End()
	p.Start("open") // unfinished: not exported
	var buf bytes.Buffer
	if err := p.WriteJSONL(&buf); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	if n := strings.Count(buf.String(), "\n"); n != 2 {
		t.Fatalf("lines = %d, want 2:\n%s", n, buf.String())
	}
	if !strings.Contains(buf.String(), `"labels":{"k":"v"},"children":[{"name":"c"`) {
		t.Fatalf("tree not written whole:\n%s", buf.String())
	}
}

func TestActiveTracksUnendedSpans(t *testing.T) {
	p := NewPhases()
	p.now = fakeClock(time.Millisecond)
	leaked := p.Start("leaky", "where", "crawl")
	p.Start("done").End()

	act := p.Active()
	if len(act) != 1 || act[0].Name != "leaky" || act[0].Labels["where"] != "crawl" || act[0].Wall <= 0 {
		t.Fatalf("active = %+v, want leaky with its elapsed time", act)
	}
	// A leaked span must not be in the finished forest it would
	// otherwise silently vanish from.
	if f := p.Forest(); len(f) != 1 || f[0].Name != "done" {
		t.Fatalf("forest = %+v, want only the finished span", f)
	}
	leaked.End()
	if len(p.Active()) != 0 || len(p.Forest()) != 2 {
		t.Fatal("ended span must leave the open set and join the forest")
	}
}

func TestRenderPhases(t *testing.T) {
	p := NewPhases()
	p.now = fakeClock(time.Millisecond)
	run := p.Start("crawl.control")
	run.StartChild("visit").End()
	run.End()
	text := p.Table()
	if !strings.Contains(text, "crawl.control") || !strings.Contains(text, "  visit") {
		t.Fatalf("phases missing from render:\n%s", text)
	}
	if !strings.Contains(text, "%") {
		t.Fatalf("root share missing:\n%s", text)
	}
}
