// Package checkpoint persists crawl progress so a killed run resumes
// instead of restarting. A checkpoint is a versioned JSON sidecar
// (checkpoint.json) written atomically into the directory of the crawl
// it belongs to — a work-unit directory of a study (internal/distrib),
// or the -checkpoint directory of a standalone cmd/crawl run. It
// captures, at a committed crawl frontier:
//
//   - the completed page prefix of the crawl (the PageResults
//     themselves — replayable verbatim);
//   - the full metrics-registry snapshot and evidence-event log with
//     their high-water marks (event seq, dropped count);
//   - the fault model's cursor (seed + rate + forced plans — PlanFor
//     is a pure function of those, so nothing else is needed).
//
// The crawler's ordered-commit pipeline guarantees the cut is exact:
// when Config.OnCommit runs, the registry and sink contain writes for
// pages [0, Frontier) — all of them, and nothing beyond — so the
// checkpoint equals the state a fresh run would have after crawling
// exactly that prefix. That equality is what makes interrupted-then-
// resumed bundles byte-identical to uninterrupted ones (the resume
// oracle in resume_test.go enforces it at several widths, partition
// counts and cut points).
//
// A study holds one Writer for its whole run and hands each work-unit
// a Unit writer: the study's writer counts every unit's sidecar
// writes and owns the StopAfter interruption lever.
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
// (a v1 sidecar would restore counters no fresh run writes; a v2
// sidecar carries a study phase ledger and a list of crawls, where v3
// holds one crawl).
const SchemaVersion = 3

// FileName is the sidecar file a Writer maintains under its directory.
const FileName = "checkpoint.json"

// SnapshotDirName is the snapshot-store subdirectory Save uses.
const SnapshotDirName = "snapshots"

// CrawlState is a crawl's committed progress.
type CrawlState struct {
	// Condition labels the crawl ("control", "abp", ...).
	Condition string `json:"condition"`
	// Total is the site count; Frontier the committed prefix length.
	Total    int `json:"total"`
	Frontier int `json:"frontier"`
	// Pages is the committed page prefix, verbatim.
	Pages []*crawler.PageResult `json:"pages"`
}

// Checkpoint is the whole sidecar document.
type Checkpoint struct {
	Schema int `json:"schema"`
	// Sequence counts checkpoint writes, monotonically across resumes.
	Sequence int `json:"seq"`
	// Opts is the run configuration as the caller serialized it; a
	// resuming caller uses it to verify it is continuing the same crawl.
	Opts json.RawMessage `json:"opts,omitempty"`
	// Crawl is the crawl's progress (nil before its first commit).
	Crawl *CrawlState `json:"crawl,omitempty"`
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

// Writer maintains the checkpoint sidecar for one crawl, driven from
// the crawler's committer goroutine (via Commit).
type Writer struct {
	// Metrics, Events, Faults, Snapshots are the live state sources the
	// writer captures at each cut. Set them before the first write.
	Metrics   *obs.Registry
	Events    *event.Sink
	Faults    *netsim.FaultModel
	Snapshots *snapshot.Store
	// StopAfter, when positive, makes Commit request a crawl stop
	// after that many checkpoint writes — counted over this writer and
	// every Unit writer under it. It is the interruption lever the
	// resume oracle and `make resume-smoke` pull. 0 never stops.
	StopAfter int
	// Status, when set, is told about every successful sidecar write
	// (this writer's or a unit's) so /statusz can report live
	// checkpoint state. It is an observer only: nothing from it enters
	// the checkpoint document.
	Status *obs.Status

	dir    string
	every  int
	parent *Writer // the study writer a Unit writer reports to

	mu      sync.Mutex
	cp      *Checkpoint
	writes  int
	stopped bool
}

// NewWriter returns a writer that checkpoints into dir every `every`
// committed pages (<=0 selects 256). Pass Every() as the crawl
// config's CommitEvery and Commit as its OnCommit.
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

// Unit returns a writer for the sidecar in dir (a work-unit's
// directory) with w's cadence. Its writes count toward w: w.Writes
// includes them, w.StopAfter stops them, and w.Status hears of them.
func (w *Writer) Unit(dir string) *Writer {
	u := NewWriter(dir, w.every)
	u.parent = w
	return u
}

// Every returns the checkpoint cadence in committed pages.
func (w *Writer) Every() int { return w.every }

// Dir returns the checkpoint directory.
func (w *Writer) Dir() string { return w.dir }

// Writes returns how many checkpoints this writer and its Unit writers
// have written.
func (w *Writer) Writes() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.writes
}

// Stopped reports whether this writer's StopAfter lever fired.
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

// Adopt continues a loaded checkpoint: sequence numbering and crawl
// state carry over, so a resumed run's sidecar is a continuation, not a
// restart.
func (w *Writer) Adopt(cp *Checkpoint) {
	w.mu.Lock()
	w.cp = cp
	w.mu.Unlock()
}

// Commit is the crawler's OnCommit callback for the writer's crawl: it
// snapshots the live sources, updates the CrawlState, rewrites the
// sidecar atomically, and reports whether a StopAfter lever asks the
// crawl to stop.
func (w *Writer) Commit(st crawler.CommitState) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	cs := w.cp.Crawl
	if cs == nil {
		cs = &CrawlState{}
		w.cp.Crawl = cs
	}
	cs.Condition = st.Condition
	cs.Total = st.Total
	cs.Frontier = st.Frontier
	cs.Pages = append(cs.Pages[:0], st.Pages...)
	if err := w.writeLocked(); err != nil {
		// A failed checkpoint write must not corrupt the crawl; the run
		// continues and the next cut retries. Surface it on stderr —
		// there is no error channel through the crawler hook.
		fmt.Fprintf(os.Stderr, "checkpoint: %v\n", err)
		return false
	}
	stop := w.tallyLocked(st.Final)
	if p := w.parent; p != nil {
		p.mu.Lock()
		if p.tallyLocked(st.Final) {
			stop = true
		}
		p.mu.Unlock()
	}
	return stop
}

// tallyLocked counts one sidecar write at w and reports whether w's
// StopAfter lever has fired. A final commit is never stopped: there is
// nothing left to interrupt. Callers hold w.mu.
func (w *Writer) tallyLocked(final bool) bool {
	w.writes++
	if w.StopAfter > 0 && w.writes >= w.StopAfter && !final {
		w.stopped = true
	}
	w.Status.CheckpointWrite(w.dir, w.writes, w.stopped)
	return w.stopped && !final
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
	return atomicWrite(filepath.Join(w.dir, FileName), append(data, '\n'))
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
