package distrib

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// UnitStatus is a work-unit's lifecycle state in the ledger.
type UnitStatus string

const (
	// UnitPending: not yet assigned, or released for reassignment after
	// a worker died mid-unit.
	UnitPending UnitStatus = "pending"
	// UnitRunning: assigned to a worker.
	UnitRunning UnitStatus = "running"
	// UnitDone: partial bundle written, checkpoint sidecar removed.
	UnitDone UnitStatus = "done"
	// UnitFailed: exhausted its attempt budget; the run aborts.
	UnitFailed UnitStatus = "failed"
)

// UnitRecord is one ledger row. Wall time is cumulative across
// attempts and measured in milliseconds so the JSON form stays flat.
type UnitRecord struct {
	ID        string     `json:"id"`
	Condition string     `json:"condition"`
	Start     int        `json:"start"`
	End       int        `json:"end"`
	Status    UnitStatus `json:"status"`
	// Worker is the most recent assignee.
	Worker   string `json:"worker,omitempty"`
	Attempts int    `json:"attempts"`
	// Resumed reports that some attempt picked the unit up from its
	// checkpoint sidecar rather than starting fresh.
	Resumed bool  `json:"resumed,omitempty"`
	WallMS  int64 `json:"wall_ms"`
	// Failures holds one note per failed or interrupted attempt.
	Failures []string `json:"failures,omitempty"`
}

// ledgerState is the ledger.json wire form.
type ledgerState struct {
	Schema int          `json:"schema"`
	Units  []UnitRecord `json:"units"`
}

// Ledger tracks every work-unit's assignment, retries, and outcome. It
// is safe for concurrent use by the coordinator's worker slots; every
// mutation atomically rewrites ledger.json (when the ledger is backed
// by a directory), so an outside observer — or a post-mortem — always
// sees a consistent snapshot.
type Ledger struct {
	mu      sync.Mutex
	path    string // "" for in-memory ledgers (tests, fuzzing)
	records []*UnitRecord
	index   map[string]*UnitRecord
}

// NewLedger builds a ledger over units, in order. A non-empty dir
// makes the ledger durable as dir/ledger.json.
func NewLedger(dir string, units []UnitSpec) (*Ledger, error) {
	l := &Ledger{index: make(map[string]*UnitRecord, len(units))}
	if dir != "" {
		l.path = filepath.Join(dir, LedgerFile)
	}
	for _, u := range units {
		if _, dup := l.index[u.ID]; dup {
			return nil, fmt.Errorf("distrib: duplicate unit id %s", u.ID)
		}
		rec := &UnitRecord{ID: u.ID, Condition: u.Condition, Start: u.Start, End: u.End, Status: UnitPending}
		l.records = append(l.records, rec)
		l.index[u.ID] = rec
	}
	if err := l.saveLocked(); err != nil {
		return nil, err
	}
	return l, nil
}

// Plan starts a run in dir: it writes every unit's spec into its unit
// directory, so process workers are self-contained, and a fresh ledger
// over units.
func Plan(dir string, units []UnitSpec) (*Ledger, error) {
	for _, u := range units {
		if err := WriteUnitSpec(UnitDir(dir, u.ID), u); err != nil {
			return nil, err
		}
	}
	return NewLedger(dir, units)
}

// Reopen continues the run Plan started in dir: it loads the ledger
// and every unit spec, in partition order. A unit the ledger holds as
// running belonged to a process that died; it becomes pending again,
// and its next attempt resumes from its checkpoint sidecar.
func Reopen(dir string) (*Ledger, []UnitSpec, error) {
	recs, err := LoadLedgerRecords(dir)
	if err != nil {
		return nil, nil, err
	}
	if len(recs) == 0 {
		return nil, nil, fmt.Errorf("distrib: ledger in %s lists no units", dir)
	}
	l := &Ledger{path: filepath.Join(dir, LedgerFile), index: make(map[string]*UnitRecord, len(recs))}
	units := make([]UnitSpec, 0, len(recs))
	for i := range recs {
		rec := &recs[i]
		spec, err := ReadUnitSpec(UnitDir(dir, rec.ID))
		if err != nil {
			return nil, nil, err
		}
		if spec.ID != rec.ID || spec.Condition != rec.Condition || spec.Start != rec.Start || spec.End != rec.End {
			return nil, nil, fmt.Errorf("distrib: unit %s spec does not match its ledger row", rec.ID)
		}
		if _, dup := l.index[rec.ID]; dup {
			return nil, nil, fmt.Errorf("distrib: duplicate unit id %s", rec.ID)
		}
		if rec.Status == UnitRunning {
			rec.Status = UnitPending
		}
		l.records = append(l.records, rec)
		l.index[rec.ID] = rec
		units = append(units, spec)
	}
	if err := l.saveLocked(); err != nil {
		return nil, nil, err
	}
	return l, units, nil
}

// Assign marks a pending unit as running on worker and returns the
// attempt number (1 for the first try).
func (l *Ledger) Assign(id, worker string) (int, error) {
	attempt := 0
	err := l.update(id, func(r *UnitRecord) error {
		if r.Status != UnitPending {
			return fmt.Errorf("distrib: assign %s: unit is %s", id, r.Status)
		}
		r.Status = UnitRunning
		r.Worker = worker
		r.Attempts++
		attempt = r.Attempts
		return nil
	})
	return attempt, err
}

// Done marks a running unit complete. resumed reports whether this
// attempt restarted from a checkpoint sidecar.
func (l *Ledger) Done(id string, wall time.Duration, resumed bool) error {
	return l.update(id, func(r *UnitRecord) error {
		if r.Status != UnitRunning {
			return fmt.Errorf("distrib: done %s: unit is %s", id, r.Status)
		}
		r.Status = UnitDone
		r.WallMS += wall.Milliseconds()
		r.Resumed = r.Resumed || resumed
		return nil
	})
}

// Release returns a running unit to the pending queue after a failed
// or killed attempt, recording the failure note. The next assignment —
// on any worker slot — resumes from the unit's checkpoint sidecar.
func (l *Ledger) Release(id, note string, wall time.Duration) error {
	return l.update(id, func(r *UnitRecord) error {
		if r.Status != UnitRunning {
			return fmt.Errorf("distrib: release %s: unit is %s", id, r.Status)
		}
		r.Status = UnitPending
		r.WallMS += wall.Milliseconds()
		r.Failures = append(r.Failures, note)
		return nil
	})
}

// Abort marks a unit permanently failed (attempt budget exhausted).
func (l *Ledger) Abort(id, note string) error {
	return l.update(id, func(r *UnitRecord) error {
		r.Status = UnitFailed
		if note != "" {
			r.Failures = append(r.Failures, note)
		}
		return nil
	})
}

// Records returns a copy of every ledger row, in partition order.
func (l *Ledger) Records() []UnitRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]UnitRecord, len(l.records))
	for i, r := range l.records {
		out[i] = *r
		out[i].Failures = append([]string(nil), r.Failures...)
	}
	return out
}

// update applies fn to the record for id under the lock and persists.
func (l *Ledger) update(id string, fn func(*UnitRecord) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	r, ok := l.index[id]
	if !ok {
		return fmt.Errorf("distrib: unknown unit %s", id)
	}
	if err := fn(r); err != nil {
		return err
	}
	return l.saveLocked()
}

// saveLocked persists the ledger if it is directory-backed.
func (l *Ledger) saveLocked() error {
	if l.path == "" {
		return nil
	}
	st := ledgerState{Schema: SchemaVersion, Units: make([]UnitRecord, len(l.records))}
	for i, r := range l.records {
		st.Units[i] = *r
	}
	data, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return fmt.Errorf("distrib: ledger: %w", err)
	}
	return atomicWrite(l.path, append(data, '\n'))
}

// LoadLedgerRecords reads dir/ledger.json — the post-mortem entry
// point; the live coordinator never reloads its own ledger.
func LoadLedgerRecords(dir string) ([]UnitRecord, error) {
	data, err := os.ReadFile(filepath.Join(dir, LedgerFile))
	if err != nil {
		return nil, fmt.Errorf("distrib: %w", err)
	}
	var st ledgerState
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("distrib: ledger: %w", err)
	}
	if st.Schema != SchemaVersion {
		return nil, fmt.Errorf("distrib: ledger schema v%d is not the supported v%d", st.Schema, SchemaVersion)
	}
	return st.Units, nil
}
