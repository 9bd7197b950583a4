// Package checkpoint persists crawl/study progress so a killed run
// resumes instead of restarting. A checkpoint is a versioned JSON
// sidecar (checkpoint.json) written atomically next to the run bundle;
// it captures, at a committed crawl frontier:
//
//   - the completed page prefix per crawl condition (the PageResults
//     themselves — replayable verbatim);
//   - the full metrics-registry snapshot and evidence-event log with
//     their high-water marks (event seq, dropped count);
//   - the fault model's cursor (seed + rate + forced plans — PlanFor
//     is a pure function of those, so nothing else is needed);
//   - the list of pipeline phases already finished.
//
// The crawler's ordered-commit pipeline guarantees the cut is exact:
// when Config.OnCommit runs, the registry and sink contain writes for
// pages [0, Frontier) — all of them, and nothing beyond — so the
// checkpoint equals the state a fresh run would have after crawling
// exactly that prefix. That equality is what makes interrupted-then-
// resumed bundles byte-identical to uninterrupted ones (the resume
// oracle in resume_test.go enforces it at several widths and cut
// points).
package checkpoint

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"canvassing/internal/crawler"
	"canvassing/internal/netsim"
	"canvassing/internal/obs"
	"canvassing/internal/obs/event"
	"canvassing/internal/snapshot"
)

// SchemaVersion is the checkpoint.json format version. Bump on any
// shape change; Load rejects every other schema rather than misreading
// (a v1 sidecar would restore counters no fresh run writes).
const SchemaVersion = 2

// FileName is the sidecar file a Writer maintains under its directory.
const FileName = "checkpoint.json"

// SnapshotDirName is the snapshot-store subdirectory Save uses.
const SnapshotDirName = "snapshots"

// CrawlState is one crawl condition's committed progress.
type CrawlState struct {
	// Condition labels the crawl ("control", "abp", ...).
	Condition string `json:"condition"`
	// Total is the site count; Frontier the committed prefix length.
	Total    int `json:"total"`
	Frontier int `json:"frontier"`
	// Done marks a crawl that ran to completion.
	Done bool `json:"done,omitempty"`
	// Machine and Extension mirror crawler.Result for reconstruction.
	Machine   string `json:"machine,omitempty"`
	Extension string `json:"extension,omitempty"`
	// Pages is the committed page prefix, verbatim.
	Pages []*crawler.PageResult `json:"pages"`
}

// Checkpoint is the whole sidecar document.
type Checkpoint struct {
	Schema int `json:"schema"`
	// Sequence counts checkpoint writes, monotonically across resumes.
	Sequence int `json:"seq"`
	// Opts is the run configuration as the caller serialized it; Resume
	// uses it to verify it is continuing the same study.
	Opts json.RawMessage `json:"opts,omitempty"`
	// Phases lists pipeline phases that finished, in completion order.
	Phases []string `json:"phases,omitempty"`
	// Crawls holds per-condition progress, in start order.
	Crawls []*CrawlState `json:"crawls,omitempty"`
	// Metrics is the full registry snapshot at the cut.
	Metrics obs.Snapshot `json:"metrics"`
	// Events is the retained evidence log with its high-water marks.
	Events        []event.Event `json:"events,omitempty"`
	EventsSeq     uint64        `json:"events_seq"`
	EventsDropped uint64        `json:"events_dropped,omitempty"`
	// Faults is the fault model's cursor (nil for fault-free runs).
	Faults *netsim.FaultState `json:"faults,omitempty"`
	// HasSnapshots marks a saved snapshot store under SnapshotDirName.
	HasSnapshots bool `json:"has_snapshots,omitempty"`
}

// Crawl returns the state recorded for condition (nil if none).
func (cp *Checkpoint) Crawl(condition string) *CrawlState {
	for _, c := range cp.Crawls {
		if c.Condition == condition {
			return c
		}
	}
	return nil
}

// PhaseDone reports whether name is in the finished-phase list.
func (cp *Checkpoint) PhaseDone(name string) bool {
	for _, p := range cp.Phases {
		if p == name {
			return true
		}
	}
	return false
}

// Writer maintains the checkpoint sidecar for one run. It is driven
// from two places: the crawler's committer goroutine (via Hook) and
// the study's phase boundaries (via FinishPhase). A mutex serializes
// them; in practice they never overlap, since phases and crawls are
// sequential.
type Writer struct {
	// Metrics, Events, Faults, Snapshots are the live state sources the
	// writer captures at each cut. Set them before the first write.
	Metrics   *obs.Registry
	Events    *event.Sink
	Faults    *netsim.FaultModel
	Snapshots *snapshot.Store
	// StopAfter, when positive, makes the Hook request a crawl stop
	// after that many checkpoint writes — the interruption lever the
	// resume oracle and `make resume-smoke` pull. 0 never stops.
	StopAfter int
	// Status, when set, is told about every successful sidecar write so
	// /statusz can report live checkpoint state. It is an observer only:
	// nothing from it enters the checkpoint document.
	Status *obs.Status

	dir   string
	every int

	mu      sync.Mutex
	cp      *Checkpoint
	writes  int
	stopped bool
}

// NewWriter returns a writer that checkpoints into dir every `every`
// committed pages (<=0 selects 256). Pass Every() as the crawl
// config's CommitEvery.
func NewWriter(dir string, every int) *Writer {
	if every <= 0 {
		every = 256
	}
	return &Writer{
		dir:   dir,
		every: every,
		cp:    &Checkpoint{Schema: SchemaVersion},
	}
}

// Every returns the checkpoint cadence in committed pages.
func (w *Writer) Every() int { return w.every }

// Dir returns the checkpoint directory.
func (w *Writer) Dir() string { return w.dir }

// Writes returns how many checkpoints this writer has written.
func (w *Writer) Writes() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.writes
}

// Stopped reports whether the Hook requested a stop (StopAfter hit).
func (w *Writer) Stopped() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stopped
}

// SetOpts records the run configuration in the sidecar.
func (w *Writer) SetOpts(v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("checkpoint: opts: %w", err)
	}
	w.mu.Lock()
	w.cp.Opts = data
	w.mu.Unlock()
	return nil
}

// Adopt continues a loaded checkpoint: sequence numbering and finished
// phases carry over, so a resumed run's sidecar is a continuation, not
// a restart.
func (w *Writer) Adopt(cp *Checkpoint) {
	w.mu.Lock()
	w.cp = cp
	w.mu.Unlock()
}

// Hook returns the crawler OnCommit callback for one crawl. Each
// invocation snapshots the live sources, updates the condition's
// CrawlState, and rewrites the sidecar atomically.
func (w *Writer) Hook(machine, extension string) func(crawler.CommitState) bool {
	return func(st crawler.CommitState) bool {
		return w.commit(st, machine, extension)
	}
}

func (w *Writer) commit(st crawler.CommitState, machine, extension string) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	cs := w.cp.Crawl(st.Condition)
	if cs == nil {
		cs = &CrawlState{Condition: st.Condition}
		w.cp.Crawls = append(w.cp.Crawls, cs)
	}
	cs.Total = st.Total
	cs.Frontier = st.Frontier
	cs.Done = st.Final
	cs.Machine = machine
	cs.Extension = extension
	cs.Pages = append(cs.Pages[:0], st.Pages...)
	if err := w.writeLocked(); err != nil {
		// A failed checkpoint write must not corrupt the crawl; the run
		// continues and the next cut retries. Surface it on stderr —
		// there is no error channel through the crawler hook.
		fmt.Fprintf(os.Stderr, "checkpoint: %v\n", err)
		return false
	}
	if w.StopAfter > 0 && w.writes >= w.StopAfter && !st.Final {
		w.stopped = true
		return true
	}
	return false
}

// FinishPhase records a completed pipeline phase and checkpoints.
func (w *Writer) FinishPhase(name string) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.cp.PhaseDone(name) {
		w.cp.Phases = append(w.cp.Phases, name)
	}
	return w.writeLocked()
}

// writeLocked captures the live sources into the document and writes
// the sidecar. Callers hold w.mu.
func (w *Writer) writeLocked() error {
	if w.Metrics != nil {
		w.cp.Metrics = w.Metrics.Snapshot()
	}
	if w.Events != nil {
		w.cp.Events = w.Events.Events()
		w.cp.EventsSeq = w.Events.Total()
		w.cp.EventsDropped = w.Events.Dropped()
	}
	if w.Faults != nil {
		st := w.Faults.Export()
		w.cp.Faults = &st
	}
	w.cp.HasSnapshots = w.Snapshots != nil
	if err := os.MkdirAll(w.dir, 0o755); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if w.Snapshots != nil {
		if err := w.Snapshots.Save(filepath.Join(w.dir, SnapshotDirName)); err != nil {
			return err
		}
	}
	w.cp.Sequence++
	data, err := json.MarshalIndent(w.cp, "", "  ")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := atomicWrite(filepath.Join(w.dir, FileName), append(data, '\n')); err != nil {
		return err
	}
	w.writes++
	w.Status.CheckpointWrite(w.dir, w.writes, w.stopped)
	return nil
}

// Load reads and validates a checkpoint sidecar from dir.
func Load(dir string) (*Checkpoint, error) {
	data, err := os.ReadFile(filepath.Join(dir, FileName))
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	var cp Checkpoint
	if err := json.Unmarshal(data, &cp); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	if cp.Schema != SchemaVersion {
		return nil, fmt.Errorf("checkpoint: schema v%d is not the supported v%d", cp.Schema, SchemaVersion)
	}
	return &cp, nil
}

// LoadSnapshots reads the snapshot store saved next to a checkpoint.
func LoadSnapshots(dir string) (*snapshot.Store, error) {
	return snapshot.Load(filepath.Join(dir, SnapshotDirName))
}

// atomicWrite writes data to path via a same-directory temp file and
// rename, so a crash mid-checkpoint leaves the previous sidecar valid.
func atomicWrite(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(name)
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}
