package canvassing

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"

	"canvassing/internal/distrib"
)

// The resume oracle: how a durable study's crawls are laid out and
// interrupted must be invisible in every deterministic bundle artifact.
// A checkpointed study is a one-partition run of work-units; a
// distributed study the same with more partitions. Each row runs one
// layout — a partition count, a worker width, clean or fault-injected —
// optionally killing units mid-way (the coordinator resumes them) or
// halting the whole study (Resume(dir) finishes it), and the final
// bundle's manifest.json, events.jsonl, report.txt and deterministic
// metrics projection must equal the serial, uncheckpointed Run's byte
// for byte.
//
// This is the companion of TestAnalysisDeterminismOracle (analysis
// width axis) and TestCrawlTelemetryWidthInvariant (crawl width axis);
// together they cover every scheduling axis the pipeline has.
//
// Write numbering for StopAfter, which counts every unit's sidecar
// writes study-wide. With Scale 0.02 (800 sites) and CheckpointEvery
// 100, a one-partition condition writes at frontiers 100..700 plus a
// final write: control is writes 1..8, ABP 9..16, uBO 17..24. So
// StopAfter 2/4/6 cut the control crawl at 25/50/75%, and StopAfter 10
// cuts the ABP re-crawl at its second commit. At 4 partitions and
// CheckpointEvery 25 each 200-page unit writes 8 times (7 cuts plus a
// final write), so Arm 2/4/6 kill a unit at 25/50/75% of its range and
// control fills writes 1..32.
type resumeRow struct {
	name string
	// opts is the serial reference's run shape.
	opts Options
	// d lays the durable run out (Dir is filled in per row).
	d     DistribOptions
	every int
	// stopAfter > 0 halts the study after that many writes, inside the
	// haltIn condition's crawl; Resume then finishes it.
	stopAfter int
	haltIn    string
}

// resumeOpts is the run shape of the one-partition interruption rows.
func resumeOpts(seed uint64, workers int, fault float64) Options {
	return Options{
		Seed:            seed,
		Scale:           0.02,
		Workers:         workers,
		AnalysisWorkers: workers,
		WithAdblock:     true,
		FaultRate:       fault,
		SnapshotReuse:   true,
		// Per-visit tracing stays on: interruption, resume, and exemplar
		// capture must not perturb the bundle.
		TraceVisits: true,
	}
}

// partitionOpts is the run shape of the partitioned rows. The clean
// seed also turns on snapshot reuse and the M1 crawl so the store-delta
// merge and all four conditions are exercised; the faulted seed keeps
// the fault model as its axis.
func partitionOpts(seed uint64, workers int, fault float64) Options {
	return Options{
		Seed:          seed,
		Scale:         0.02,
		Workers:       workers,
		WithAdblock:   true,
		WithM1:        fault == 0,
		FaultRate:     fault,
		SnapshotReuse: fault == 0,
		TraceVisits:   true,
	}
}

// killArms kills one unit per condition at 25/50/75% of its range.
var killArms = map[string]int{"control-01": 2, "abp-02": 4, "ubo-03": 6}

var resumeRows = []resumeRow{
	{name: "clean serial, 25% of control", opts: resumeOpts(1, 1, 0), every: 100, stopAfter: 2, haltIn: CondControl},
	{name: "clean serial, 75% of control", opts: resumeOpts(1, 1, 0), every: 100, stopAfter: 6, haltIn: CondControl},
	{name: "clean wide, 50% of control", opts: resumeOpts(1, 8, 0), every: 100, stopAfter: 4, haltIn: CondControl},
	{name: "faulted wide, 25% of control", opts: resumeOpts(42, 8, 0.35), every: 100, stopAfter: 2, haltIn: CondControl},
	{name: "faulted wide, mid-ABP re-crawl", opts: resumeOpts(42, 8, 0.35), every: 100, stopAfter: 10, haltIn: CondABP},
	{name: "faulted serial, 50% of control", opts: resumeOpts(42, 1, 0.35), every: 100, stopAfter: 4, haltIn: CondControl},

	// Width 8 sweeps every partition count; width 1 pins one partitioned
	// point so the single-worker crawl is covered without doubling the
	// sweep.
	{name: "clean width 1, 4 partitions", opts: partitionOpts(1, 1, 0), d: DistribOptions{Partitions: 4, Slots: 3}},
	{name: "clean width 8, 1 partition", opts: partitionOpts(1, 8, 0), d: DistribOptions{Partitions: 1, Slots: 3}},
	{name: "clean width 8, 4 partitions", opts: partitionOpts(1, 8, 0), d: DistribOptions{Partitions: 4, Slots: 3}},
	{name: "clean width 8, 16 partitions", opts: partitionOpts(1, 8, 0), d: DistribOptions{Partitions: 16, Slots: 3}},
	{name: "faulted width 1, 4 partitions", opts: partitionOpts(7, 1, 0.5), d: DistribOptions{Partitions: 4, Slots: 3}},
	{name: "faulted width 8, 1 partition", opts: partitionOpts(7, 8, 0.5), d: DistribOptions{Partitions: 1, Slots: 3}},
	{name: "faulted width 8, 4 partitions", opts: partitionOpts(7, 8, 0.5), d: DistribOptions{Partitions: 4, Slots: 3}},
	{name: "faulted width 8, 16 partitions", opts: partitionOpts(7, 8, 0.5), d: DistribOptions{Partitions: 16, Slots: 3}},

	// Workers die; the coordinator reassigns each killed unit, which
	// resumes from its sidecar.
	{name: "faulted, 4 partitions, units killed at 25, 50 and 75%", opts: partitionOpts(7, 8, 0.5), every: 25,
		d: DistribOptions{Partitions: 4, Slots: 3, Arm: killArms}},
	// The whole partitioned study halts mid-ABP (control is writes
	// 1..32), and Resume finishes it from the run directory.
	{name: "faulted, 4 partitions, halted mid-ABP", opts: partitionOpts(7, 8, 0.5), every: 25,
		d: DistribOptions{Partitions: 4, Slots: 3}, stopAfter: 44, haltIn: CondABP},
}

// haltableRun is RunDistributed with the StopAfter lever armed between
// New and the first crawl — the window Run and RunDistributed do not
// expose. opts.CheckpointDir is the run root.
func haltableRun(opts Options, d DistribOptions, stopAfter int) *Study {
	s := New(opts)
	s.dist = d
	s.Checkpointer().StopAfter = stopAfter
	s.run()
	return s
}

// checkpointedRun is the one-partition haltableRun: a checkpointed Run.
func checkpointedRun(opts Options, stopAfter int) *Study {
	return haltableRun(opts, DistribOptions{}, stopAfter)
}

// writeBundleDir writes a study's bundle into a temp dir.
func writeBundleDir(t *testing.T, s *Study) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "bundle")
	if err := s.WriteBundle(dir); err != nil {
		t.Fatal(err)
	}
	return dir
}

// compareBundles requires the two bundles' deterministic artifacts to
// be byte-identical.
func compareBundles(t *testing.T, refDir, gotDir string) {
	t.Helper()
	for _, name := range []string{"manifest.json", "events.jsonl", "report.txt"} {
		ref, got := readFile(t, refDir, name), readFile(t, gotDir, name)
		if !bytes.Equal(got, ref) {
			t.Errorf("%s differs from serial (%d vs %d bytes); first divergence at byte %d",
				name, len(got), len(ref), firstDiff(got, ref))
		}
	}
	ref, got := deterministicMetrics(t, refDir), deterministicMetrics(t, gotDir)
	if !bytes.Equal(got, ref) {
		t.Errorf("deterministic metrics differ from serial\n got: %s\nwant: %s", got, ref)
	}
}

func TestResumeOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full pipeline per row")
	}
	// Serial references are shared by rows with the same run shape, so
	// they live in the parent test's directory.
	refRoot := t.TempDir()
	type reference struct {
		dir          string
		hits, misses int64
	}
	refs := map[Options]reference{}
	refFor := func(t *testing.T, opts Options) reference {
		if r, ok := refs[opts]; ok {
			return r
		}
		s := Run(opts)
		if opts.FaultRate > 0 {
			// A faulted shape must exercise degradation, or the resilience
			// half of the oracle is vacuous.
			if st := s.Control.Stats().Total; st.Degraded == 0 || st.Failed == 0 {
				t.Fatalf("seed %d rate %.2f: no degraded/failed pages (degraded=%d failed=%d)",
					opts.Seed, opts.FaultRate, st.Degraded, st.Failed)
			}
		}
		r := reference{dir: filepath.Join(refRoot, fmt.Sprint(len(refs)))}
		if err := s.WriteBundle(r.dir); err != nil {
			t.Fatal(err)
		}
		if len(readFile(t, r.dir, "events.jsonl")) == 0 {
			t.Fatalf("seed %d: serial reference recorded no events", opts.Seed)
		}
		if s.Snapshots != nil {
			r.hits, r.misses = s.Snapshots.Counts()
		}
		refs[opts] = r
		return r
	}

	for _, row := range resumeRows {
		t.Run(row.name, func(t *testing.T) {
			ref := refFor(t, row.opts)
			opts := row.opts
			opts.CheckpointDir = t.TempDir()
			opts.CheckpointEvery = row.every

			s := haltableRun(opts, row.d, row.stopAfter)
			if err := s.Err(); err != nil {
				t.Fatalf("durable run: %v\nledger:\n%s", err, renderIfAny(s.ledger))
			}
			if row.stopAfter > 0 {
				if !s.Halted {
					t.Fatalf("StopAfter %d did not halt the study", row.stopAfter)
				}
				checkHaltPoint(t, s.ledger.Records(), row.haltIn)
				var err error
				if s, err = Resume(opts.CheckpointDir); err != nil {
					t.Fatal(err)
				}
			}
			if s.Halted {
				t.Fatal("study halted without a StopAfter")
			}
			compareBundles(t, ref.dir, writeBundleDir(t, s))

			// The merged snapshot store must account exactly as the serial
			// run's shared store did, or reuse was never exercised.
			if s.Snapshots != nil {
				hits, misses := s.Snapshots.Counts()
				if hits == 0 || hits != ref.hits || misses != ref.misses {
					t.Errorf("snapshot store counts %d/%d, serial run %d/%d", hits, misses, ref.hits, ref.misses)
				}
			}
			for _, r := range s.ledger.Records() {
				_, armed := row.d.Arm[r.ID]
				switch {
				case r.Status != distrib.UnitDone:
					t.Errorf("unit %s ended %s", r.ID, r.Status)
				case armed && (r.Attempts != 2 || !r.Resumed || len(r.Failures) != 1):
					t.Errorf("armed unit %s: attempts=%d resumed=%v failures=%v; want done after one kill and one resume",
						r.ID, r.Attempts, r.Resumed, r.Failures)
				case !armed && row.stopAfter == 0 && (r.Attempts != 1 || r.Resumed):
					t.Errorf("unit %s: attempts=%d resumed=%v; an uninterrupted unit finishes first try", r.ID, r.Attempts, r.Resumed)
				}
			}
		})
	}
}

// checkHaltPoint pins the write numbering: at the halt, every unit of
// the conditions before haltIn is done, some unit of haltIn is not, and
// no later condition has started.
func checkHaltPoint(t *testing.T, recs []distrib.UnitRecord, haltIn string) {
	t.Helper()
	phase := "before"
	cut := false
	for _, r := range recs {
		if r.Condition == haltIn {
			phase = "in"
		} else if phase == "in" {
			phase = "after"
		}
		done := r.Status == distrib.UnitDone
		switch {
		case phase == "before" && !done:
			t.Errorf("halt in %s, but unit %s is %s", haltIn, r.ID, r.Status)
		case phase == "in" && !done:
			cut = true
		case phase == "after" && r.Attempts != 0:
			t.Errorf("halt in %s, but unit %s already ran", haltIn, r.ID)
		}
	}
	if !cut {
		t.Errorf("halt in %s, but every unit of it is done", haltIn)
	}
}

// TestSnapshotReuseInvisibleInArtifacts pins the acceptance criterion
// that routing the re-crawls through the snapshot store changes no
// deterministic bundle artifact: hit/miss counters live on the store,
// outside the metrics registry, precisely so the bundle stays
// byte-identical while the store demonstrably absorbs re-crawl
// fetches.
func TestSnapshotReuseInvisibleInArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full pipeline twice")
	}
	opts := Options{Seed: 7, Scale: 0.02, Workers: 4, WithAdblock: true, FaultRate: 0.2}
	plain := Run(opts)
	plainDir := writeBundleDir(t, plain)

	opts.SnapshotReuse = true
	reuse := Run(opts)
	reuseDir := writeBundleDir(t, reuse)

	hits, misses := reuse.Snapshots.Counts()
	if hits == 0 || misses == 0 {
		t.Fatalf("snapshot store counts %d/%d: reuse never exercised", hits, misses)
	}
	for _, name := range []string{"manifest.json", "events.jsonl", "report.txt", "metrics.deterministic.json"} {
		a, b := readFile(t, plainDir, name), readFile(t, reuseDir, name)
		if !bytes.Equal(a, b) {
			t.Errorf("%s differs under snapshot reuse; first divergence at byte %d", name, firstDiff(a, b))
		}
	}
}
