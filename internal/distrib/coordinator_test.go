package distrib

import (
	"errors"
	"reflect"
	"sync"
	"testing"
)

// fakeSpawner completes every unit at once, except that the unit named
// halt reports a run-wide halt.
type fakeSpawner struct {
	halt string
	mu   sync.Mutex
	ran  []string
}

func (f *fakeSpawner) Run(dir string, spec UnitSpec, stopAfter int) (bool, bool, error) {
	f.mu.Lock()
	f.ran = append(f.ran, spec.ID)
	f.mu.Unlock()
	if spec.ID == f.halt {
		return false, false, ErrHalted
	}
	return false, false, nil
}

// TestCoordinatorHaltThenReopen: a spawner's ErrHalted stops all
// further dispatch and leaves the halted unit pending; Reopen reloads
// the run (a unit left running by a dead process becomes pending), and
// the next Run dispatches exactly the units not yet done.
func TestCoordinatorHaltThenReopen(t *testing.T) {
	dir := t.TempDir()
	units := testUnits(6)
	ledger, err := Plan(dir, units)
	if err != nil {
		t.Fatal(err)
	}
	first := &fakeSpawner{halt: "control-03"}
	c := &Coordinator{Dir: dir, Units: units, Spawn: first, Slots: 1}
	if err := c.Run(ledger); !errors.Is(err, ErrHalted) {
		t.Fatalf("Run = %v, want ErrHalted", err)
	}
	if last := first.ran[len(first.ran)-1]; last != "control-03" || len(first.ran) == len(units) {
		t.Fatalf("dispatch went on past the halt: ran %v", first.ran)
	}
	done := map[string]bool{}
	for _, r := range ledger.Records() {
		switch {
		case r.ID == "control-03":
			if r.Status != UnitPending || r.Attempts != 1 || len(r.Failures) != 1 {
				t.Errorf("halted unit: %+v, want pending after one attempt", r)
			}
		case r.Status == UnitDone:
			done[r.ID] = true
		case r.Status != UnitPending || r.Attempts != 0:
			t.Errorf("unit %s: %+v, want untouched", r.ID, r)
		}
	}

	// A process that died mid-unit leaves it running in the ledger.
	var stale string
	for _, u := range units {
		if !done[u.ID] && u.ID != "control-03" {
			stale = u.ID
			break
		}
	}
	if _, err := ledger.Assign(stale, "dead"); err != nil {
		t.Fatal(err)
	}

	reopened, specs, err := Reopen(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(specs, units) {
		t.Fatalf("Reopen specs = %+v, want %+v", specs, units)
	}
	second := &fakeSpawner{}
	c.Spawn = second
	if err := c.Run(reopened); err != nil {
		t.Fatal(err)
	}
	if len(second.ran) != len(units)-len(done) {
		t.Fatalf("resumed run dispatched %v; %d units were already done", second.ran, len(done))
	}
	for _, id := range second.ran {
		if done[id] {
			t.Errorf("done unit %s ran again", id)
		}
	}
	for _, r := range reopened.Records() {
		if r.Status != UnitDone {
			t.Errorf("unit %s ended %s", r.ID, r.Status)
		}
	}
	recs, err := LoadLedgerRecords(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(recs, reopened.Records()) {
		t.Fatal("ledger.json does not match the reopened ledger")
	}
}
