package canvassing

import (
	"testing"

	"canvassing/internal/distrib"
)

func renderIfAny(l *distrib.Ledger) string {
	if l == nil {
		return "(no ledger)"
	}
	return distrib.RenderLedger(l.Records())
}

// A unit whose attempts keep dying must exhaust its budget and abort
// the run with the ledger telling the story — never a silent
// half-merged study.
func TestDistribAttemptBudgetAborts(t *testing.T) {
	opts := Options{Seed: 3, Scale: 0.02, Workers: 2}
	_, ledger, err := RunDistributed(opts, DistribOptions{
		Dir:        t.TempDir(),
		Partitions: 2,
		Slots:      2,
		// The arm kills the unit's only permitted attempt, so the budget
		// is exhausted immediately.
		MaxAttempts: 1,
		Arm:         map[string]int{"control-00": 1},
	})
	if err == nil {
		t.Fatal("an exhausted unit must abort the distributed run")
	}
	var failed int
	for _, r := range ledger.Records() {
		if r.ID == "control-00" {
			if r.Status != distrib.UnitFailed {
				t.Errorf("exhausted unit recorded as %s, want %s", r.Status, distrib.UnitFailed)
			}
			failed++
		}
	}
	if failed != 1 {
		t.Fatalf("ledger lost the failed unit: %v", ledger.Records())
	}
}
