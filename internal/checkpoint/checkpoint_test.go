package checkpoint

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"canvassing/internal/crawler"
	"canvassing/internal/netsim"
	"canvassing/internal/obs"
	"canvassing/internal/obs/event"
	"canvassing/internal/snapshot"
)

// testWriter builds a writer with live telemetry sources and a few
// recorded observations, so checkpoints carry real state.
func testWriter(t *testing.T, dir string) (*Writer, *obs.Telemetry) {
	t.Helper()
	tel := obs.NewTelemetry()
	tel.Metrics.Counter("crawl.visits.ok").Add(7)
	tel.Metrics.Histogram("crawl.visit.seconds", obs.LatencyBuckets()).Observe(0.25)
	tel.Events.Record(event.Event{Kind: event.VisitOutcome, Crawl: "control", Site: "a.example", Verdict: "ok"})
	w := NewWriter(dir, 64)
	w.Metrics = tel.Metrics
	w.Events = tel.Events
	return w, tel
}

// commitState fabricates a crawler commit at the given frontier.
func commitState(frontier, total int, final bool) crawler.CommitState {
	pages := make([]*crawler.PageResult, frontier)
	for i := range pages {
		pages[i] = &crawler.PageResult{Domain: "site.example", OK: true}
	}
	return crawler.CommitState{
		Condition: "control",
		Frontier:  frontier,
		Total:     total,
		Pages:     pages,
		Final:     final,
	}
}

func TestWriteLoadRoundtrip(t *testing.T) {
	dir := t.TempDir()
	w, tel := testWriter(t, dir)
	w.Faults = netsim.NewFaultModel(9, 0.2)
	w.Faults.Force("down.example", netsim.FaultPlan{Kind: netsim.FaultOutage, Truncate: 1})
	if err := w.SetOpts(map[string]any{"seed": 9, "scale": 0.05}); err != nil {
		t.Fatal(err)
	}

	hook := w.Commit
	for _, frontier := range []int{64, 128} {
		if hook(commitState(frontier, 600, false)) {
			t.Fatal("hook with StopAfter=0 requested a stop")
		}
	}

	cp, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Schema != SchemaVersion {
		t.Fatalf("schema = %d, want %d", cp.Schema, SchemaVersion)
	}
	if cp.Sequence != 2 {
		t.Fatalf("sequence = %d after two writes, want 2", cp.Sequence)
	}
	cs := cp.Crawl
	if cs == nil || cs.Condition != "control" {
		t.Fatal("control crawl state missing")
	}
	if cs.Frontier != 128 || cs.Total != 600 {
		t.Fatalf("crawl state = %+v", cs)
	}
	if len(cs.Pages) != 128 {
		t.Fatalf("pages = %d, want 128", len(cs.Pages))
	}
	if cp.Metrics.Counters["crawl.visits.ok"] != 7 {
		t.Fatalf("metrics snapshot lost counters: %v", cp.Metrics.Counters)
	}
	if len(cp.Events) != 1 || cp.EventsSeq != tel.Events.Total() {
		t.Fatalf("events = %d seq = %d", len(cp.Events), cp.EventsSeq)
	}
	if cp.Faults == nil || cp.Faults.Seed != 9 || cp.Faults.Rate != 0.2 {
		t.Fatalf("fault cursor = %+v", cp.Faults)
	}
	restored := netsim.RestoreFaultModel(*cp.Faults)
	if restored.PlanFor("down.example").Kind != netsim.FaultOutage {
		t.Fatal("forced fault plan lost in the cursor roundtrip")
	}
}

// TestHookStopAfter: the interruption lever. The stopping write must
// land on disk BEFORE the stop is requested, and a Final commit is
// never stopped (there is nothing left to interrupt).
func TestHookStopAfter(t *testing.T) {
	dir := t.TempDir()
	w, _ := testWriter(t, dir)
	w.StopAfter = 2
	hook := w.Commit
	if hook(commitState(64, 600, false)) {
		t.Fatal("stopped before StopAfter writes")
	}
	if !hook(commitState(128, 600, false)) {
		t.Fatal("did not stop at StopAfter writes")
	}
	if !w.Stopped() {
		t.Fatal("Stopped() false after a stop")
	}
	// The checkpoint on disk reflects the stopping commit.
	cp, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if cs := cp.Crawl; cs == nil || cs.Frontier != 128 {
		t.Fatalf("stopping write not on disk: %+v", cs)
	}

	w2, _ := testWriter(t, t.TempDir())
	w2.StopAfter = 1
	if w2.Commit(commitState(600, 600, true)) {
		t.Fatal("a Final commit must never be stopped")
	}
}

// TestAdoptContinuesSequence: a resumed run's writer inherits the
// loaded document, so sequence numbers and crawl state continue instead
// of restarting.
func TestAdoptContinuesSequence(t *testing.T) {
	dir := t.TempDir()
	w, _ := testWriter(t, dir)
	w.Commit(commitState(64, 600, false))
	cp, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}

	w2, _ := testWriter(t, dir)
	w2.Adopt(cp)
	wantSeq := cp.Sequence + 1 // Adopt shares the document, so read before writing
	w2.Commit(commitState(128, 600, false))
	cp2, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if cp2.Sequence != wantSeq {
		t.Fatalf("sequence = %d, want %d (continuation, not restart)", cp2.Sequence, wantSeq)
	}
	if cs := cp2.Crawl; cs == nil || cs.Frontier != 128 {
		t.Fatalf("crawl state across Adopt = %+v", cs)
	}
}

// TestUnitWritesCountTowardParent: a Unit writer keeps its own sidecar
// and its own StopAfter, while the parent counts every unit's writes,
// reports them to its Status, and stops any unit once its own StopAfter
// is reached — the study-wide interruption lever.
func TestUnitWritesCountTowardParent(t *testing.T) {
	root := t.TempDir()
	study := NewWriter(root, 64)
	study.Status = obs.NewStatus()
	study.StopAfter = 3

	a := study.Unit(filepath.Join(root, "a"))
	b := study.Unit(filepath.Join(root, "b"))
	if a.Every() != 64 {
		t.Fatalf("unit cadence = %d, want the parent's 64", a.Every())
	}
	if a.Commit(commitState(64, 600, false)) {
		t.Fatal("write 1 stopped")
	}
	if b.Commit(commitState(600, 600, true)) {
		t.Fatal("a final commit must never be stopped")
	}
	if !a.Commit(commitState(128, 600, false)) {
		t.Fatal("study-wide write 3 did not stop the unit")
	}
	if study.Writes() != 3 || a.Writes() != 2 || b.Writes() != 1 {
		t.Fatalf("writes: study %d, a %d, b %d; want 3, 2, 1", study.Writes(), a.Writes(), b.Writes())
	}
	if !study.Stopped() || a.Stopped() {
		t.Fatalf("stopped: study %v, unit %v; the parent's lever fired, not the unit's", study.Stopped(), a.Stopped())
	}
	if st := study.Status.Snapshot().Checkpoint; st == nil || st.Dir != root || st.Writes != 3 || !st.Stopped {
		t.Fatalf("status = %+v, want 3 writes under %s, stopped", st, root)
	}
	if _, err := Load(root); err == nil {
		t.Fatal("the study writer itself wrote a sidecar")
	}
	cp, err := Load(filepath.Join(root, "a"))
	if err != nil {
		t.Fatal(err)
	}
	if cs := cp.Crawl; cs == nil || cs.Frontier != 128 {
		t.Fatalf("unit sidecar = %+v", cs)
	}

	// Units of one condition commit concurrently; every write counts.
	par := NewWriter(root, 64)
	var wg sync.WaitGroup
	for k := 0; k < 4; k++ {
		u := par.Unit(filepath.Join(root, "par", fmt.Sprint(k)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= 5; i++ {
				u.Commit(commitState(i*64, 600, false))
			}
		}()
	}
	wg.Wait()
	if par.Writes() != 20 {
		t.Fatalf("concurrent units: study counted %d writes, want 20", par.Writes())
	}
}

// TestAtomicSidecar: the sidecar is replaced via temp-file + rename, so
// no write ever leaves a torn file and no temp files linger.
func TestAtomicSidecar(t *testing.T) {
	dir := t.TempDir()
	w, _ := testWriter(t, dir)
	hook := w.Commit
	for i := 1; i <= 5; i++ {
		hook(commitState(i*64, 600, false))
		if _, err := Load(dir); err != nil {
			t.Fatalf("write %d left an unreadable sidecar: %v", i, err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("leftover temp file %s", e.Name())
		}
	}
	if len(entries) != 1 || entries[0].Name() != FileName {
		t.Fatalf("dir contents = %v, want just %s", entries, FileName)
	}
}

// TestSnapshotSidecar: a writer with a snapshot store saves it next to
// the sidecar and flags it, and LoadSnapshots gets it back.
func TestSnapshotSidecar(t *testing.T) {
	dir := t.TempDir()
	w, _ := testWriter(t, dir)
	w.Snapshots = snapshot.New()
	u, err := netsim.ParseURL("https://cdn.example/fp.js")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Snapshots.Fetch(u, func() (string, error) { return "var x;", nil }); err != nil {
		t.Fatal(err)
	}
	w.Snapshots.Account([]string{u.String()})
	w.Commit(commitState(64, 600, false))

	cp, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !cp.HasSnapshots {
		t.Fatal("HasSnapshots not flagged")
	}
	snaps, err := LoadSnapshots(dir)
	if err != nil {
		t.Fatal(err)
	}
	if snaps.Len() != 1 {
		t.Fatalf("loaded snapshot store has %d blobs, want 1", snaps.Len())
	}
	hits, misses := snaps.Counts()
	if hits != 0 || misses != 1 {
		t.Fatalf("accounting cursor = %d/%d, want 0/1", hits, misses)
	}
	if _, err := os.Stat(filepath.Join(dir, SnapshotDirName, "index.json")); err != nil {
		t.Fatal(err)
	}
}

func TestLoadRejectsNewerSchema(t *testing.T) {
	dir := t.TempDir()
	data := []byte(fmt.Sprintf(`{"schema": %d, "seq": 1, "metrics": {}}`, SchemaVersion+1))
	if err := os.WriteFile(filepath.Join(dir, FileName), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err == nil {
		t.Fatal("Load accepted a newer-schema checkpoint")
	}
	if _, err := Load(t.TempDir()); err == nil {
		t.Fatal("Load invented a checkpoint in an empty directory")
	}
}

// TestLoadRejectsV1Checkpoint: a v1 sidecar carries a parse-cache
// cursor and a metrics snapshot with the retired parse-cache hit/miss
// counters, which a resume would restore into bundles no fresh run
// writes. Load refuses it and names both schema versions.
func TestLoadRejectsV1Checkpoint(t *testing.T) {
	dir := t.TempDir()
	data := []byte(`{"schema": 1, "seq": 3, "crawls": [{"condition": "control", "total": 10, "frontier": 4, "pages": [], "parse_seen": [11, 22]}],
  "metrics": {"counters": {"crawl.visits.ok": 4}}}`)
	if err := os.WriteFile(filepath.Join(dir, FileName), data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Load(dir)
	if err == nil {
		t.Fatal("Load accepted a v1 checkpoint")
	}
	if msg := err.Error(); !strings.Contains(msg, "v1") || !strings.Contains(msg, fmt.Sprintf("v%d", SchemaVersion)) {
		t.Fatalf("error %q must name both the found and the supported schema", msg)
	}
}

// TestLoadRejectsV2Checkpoint: a v2 sidecar is a whole study's, with
// a phase ledger and every condition's pages; nothing reads that shape
// any more. Load refuses it and names both schema versions.
func TestLoadRejectsV2Checkpoint(t *testing.T) {
	dir := t.TempDir()
	data := []byte(`{"schema": 2, "seq": 9, "phases": ["crawl.control", "analyze"],
  "crawls": [{"condition": "control", "total": 10, "frontier": 10, "done": true, "pages": []}],
  "metrics": {"counters": {"crawl.visits.ok": 10}}}`)
	if err := os.WriteFile(filepath.Join(dir, FileName), data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Load(dir)
	if err == nil {
		t.Fatal("Load accepted a v2 checkpoint")
	}
	if msg := err.Error(); !strings.Contains(msg, "v2") || !strings.Contains(msg, "v3") {
		t.Fatalf("error %q must name both the found and the supported schema", msg)
	}
}

// TestCheckpointJSONSafe guards the marshal path against the +Inf
// histogram-bound hazard: a registry with populated histograms (whose
// top bucket bound is +Inf) must checkpoint and reload cleanly.
func TestCheckpointJSONSafe(t *testing.T) {
	dir := t.TempDir()
	tel := obs.NewTelemetry()
	h := tel.Metrics.Histogram("crawl.visit.seconds", obs.LatencyBuckets())
	h.Observe(0.1)
	h.Observe(1e9) // lands in the +Inf bucket
	tel.Metrics.Histogram("empty.histogram", obs.LatencyBuckets())
	w := NewWriter(dir, 0)
	if w.Every() != 256 {
		t.Fatalf("default cadence = %d, want 256", w.Every())
	}
	w.Metrics = tel.Metrics
	w.Events = tel.Events
	w.Commit(commitState(64, 600, false))
	cp, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Metrics.Histograms["crawl.visit.seconds"].Count != 2 {
		t.Fatal("histogram lost in roundtrip")
	}
	reg := obs.NewRegistry()
	reg.Restore(cp.Metrics)
	if got := reg.Snapshot().Histograms["crawl.visit.seconds"].Count; got != 2 {
		t.Fatalf("restored histogram count = %d, want 2", got)
	}
}
