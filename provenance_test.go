package canvassing

import (
	"strings"
	"sync"
	"testing"

	"canvassing/internal/bundle"
	"canvassing/internal/obs/event"
	"canvassing/internal/web"
)

// The decision-provenance acceptance fixture: two same-seed runs, one
// control-only, one with the ad-blocker re-crawls, shared across the
// tests below (the crawls dominate the suite's budget).
var (
	provOnce sync.Once
	provA    *Study // control only
	provB    *Study // WithAdblock
)

func provSetup(t *testing.T) (*Study, *Study) {
	t.Helper()
	provOnce.Do(func() {
		provA = Run(Options{Seed: 1, Scale: 0.02})
		provB = Run(Options{Seed: 1, Scale: 0.02, WithAdblock: true})
	})
	return provA, provB
}

// TestBundleDiffExplainsTable2 is the PR's acceptance criterion: diff
// the control bundle against the adblock bundle and the per-site
// verdict flips must sum exactly to Table 2's prevalence delta —
// the evidence log explains the aggregate, not approximates it.
func TestBundleDiffExplainsTable2(t *testing.T) {
	sA, sB := provSetup(t)
	dirA, dirB := t.TempDir(), t.TempDir()
	if err := sA.WriteBundle(dirA); err != nil {
		t.Fatal(err)
	}
	if err := sB.WriteBundle(dirB); err != nil {
		t.Fatal(err)
	}
	a, err := bundle.Load(dirA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := bundle.Load(dirB)
	if err != nil {
		t.Fatal(err)
	}
	if a.Manifest.Seed != 1 || a.Manifest.Scale != 0.02 {
		t.Fatalf("manifest params wrong: %+v", a.Manifest)
	}

	t2, err := sB.Table2()
	if err != nil {
		t.Fatal(err)
	}
	control, abp := t2.Rows[0], t2.Rows[1]

	for _, cmp := range []struct {
		cond string
		row  Table2Row
	}{
		{CondControl, control},
		{CondABP, abp},
	} {
		d := bundle.Compute(a, b, CondControl, cmp.cond)
		wantA := control.SitesPop + control.SitesTail
		wantB := cmp.row.SitesPop + cmp.row.SitesTail
		if d.FPSitesA != wantA || d.FPSitesB != wantB {
			t.Fatalf("cond %s: fp sites %d/%d, Table 2 says %d/%d",
				cmp.cond, d.FPSitesA, d.FPSitesB, wantA, wantB)
		}
		// The acceptance identity: flips sum exactly to the prevalence
		// delta.
		if got, want := d.Lost()-d.Gained(), wantA-wantB; got != want {
			t.Fatalf("cond %s: flips sum to %d, Table 2 delta is %d", cmp.cond, got, want)
		}
	}

	// Same seed → identical control crawls: control-vs-control must be
	// a clean zero-flip diff, and attribution must not drift.
	d := bundle.Compute(a, b, CondControl, CondControl)
	if len(d.Flips) != 0 {
		t.Fatalf("same-seed control diff has %d flips: %+v", len(d.Flips), d.Flips)
	}
	if len(d.AttribChanges) != 0 {
		t.Fatalf("same-seed attribution drifted: %+v", d.AttribChanges)
	}

	// The adblock run blocked scripts; the counter delta must surface.
	found := false
	for _, m := range d.CounterDeltas {
		if m.Name == "crawl.scripts.blocked" && m.B > m.A {
			found = true
		}
	}
	if !found {
		t.Fatalf("blocked-scripts counter delta missing: %+v", d.CounterDeltas)
	}
}

// TestEventLogCoversDecisionKinds asserts every decision layer records
// evidence: detection, clustering, attribution, blocklist matches, and
// (after an E8 run) randomization verdicts.
func TestEventLogCoversDecisionKinds(t *testing.T) {
	_, sB := provSetup(t)
	sB.Randomization(5) // emits randomize.verdict events (cached after)
	counts := sB.Telemetry().Events.CountByKind()
	for _, kind := range []event.Kind{
		event.DetectClassify,
		event.ClusterAssign,
		event.AttribEvidence,
		event.BlocklistMatch,
		event.RandomizeVerdict,
	} {
		if counts[kind] == 0 {
			t.Fatalf("no %s events recorded; counts=%v", kind, counts)
		}
	}

	// Blocklist events must carry the matching rule and list.
	foundRule := false
	for _, e := range sB.Telemetry().Events.Events() {
		if e.Kind == event.BlocklistMatch {
			if e.Crawl != CondABP && e.Crawl != CondUBO {
				t.Fatalf("blocklist event with wrong condition: %+v", e)
			}
			if e.Evidence != "" && e.Detail != "" {
				foundRule = true
				break
			}
		}
	}
	if !foundRule {
		t.Fatal("no blocklist.match event names its rule and list")
	}

	// Detection events label site and failing heuristic.
	for _, e := range sB.Telemetry().Events.Events() {
		if e.Kind == event.DetectClassify && e.Verdict == "excluded" {
			if e.Evidence == "" || e.Site == "" {
				t.Fatalf("excluded verdict without heuristic evidence: %+v", e)
			}
			break
		}
	}

	// Attribution evidence names a mechanism on site-level events.
	for _, e := range sB.Telemetry().Events.Events() {
		if e.Kind == event.AttribEvidence && e.Site != "" {
			if e.Evidence == "" {
				t.Fatalf("attribution without mechanism: %+v", e)
			}
			break
		}
	}

	// Conditions cover all crawls the study ran.
	conds := map[string]bool{}
	for _, c := range sB.Telemetry().Events.Conditions() {
		conds[c] = true
	}
	for _, want := range []string{CondControl, CondABP, CondUBO, CondDemo} {
		if !conds[want] {
			t.Fatalf("condition %q missing from event log: %v", want, conds)
		}
	}
}

// TestClusterEventsMatchClustering cross-checks the event log against
// the clustering aggregate it narrates: one member event per (group,
// site) pair.
func TestClusterEventsMatchClustering(t *testing.T) {
	sA, _ := provSetup(t)
	want := 0
	for _, g := range sA.Clustering.Groups {
		for _, cohort := range []web.Cohort{web.Popular, web.Tail, web.Demo} {
			want += g.SiteCount(cohort)
		}
	}
	got := sA.Telemetry().Events.CountByKind()[event.ClusterAssign]
	if got != want {
		t.Fatalf("cluster.assign events = %d, clustering has %d memberships", got, want)
	}
}

// TestTelemetryReportFlagsLeakedSpans asserts the report surfaces spans
// that were started but never ended.
func TestTelemetryReportFlagsLeakedSpans(t *testing.T) {
	s := New(Options{Seed: 9, Scale: 0.005})
	clean := s.TelemetryReport()
	if strings.Contains(clean, "leaked") {
		t.Fatalf("clean run reports leaked spans:\n%s", clean)
	}
	sp := s.Telemetry().Phases.Start("leaky.phase")
	text := s.TelemetryReport()
	if !strings.Contains(text, "leaked") || !strings.Contains(text, "leaky.phase") {
		t.Fatalf("leaked span not flagged:\n%s", text)
	}
	sp.End()
	if strings.Contains(s.TelemetryReport(), "leaked") {
		t.Fatal("ended span still reported leaked")
	}
}
