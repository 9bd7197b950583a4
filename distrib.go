package canvassing

import (
	"fmt"

	"canvassing/internal/checkpoint"
	"canvassing/internal/crawler"
	"canvassing/internal/distrib"
)

// DistribOptions lays out a durable study's crawls as work-units: each
// condition's frontier is split into Partitions contiguous units that
// run as independent checkpointed crawl slices (in worker goroutines
// by default, or worker processes via a custom Spawn), and the merged
// study is byte-identical to the single-process run — the contract
// TestResumeOracle enforces. A study with Options.CheckpointDir set is
// the one-partition case.
type DistribOptions struct {
	// Dir is the run root: unit specs, partial bundles, and the unit
	// ledger live under it.
	Dir string
	// Partitions is the number of work-units per condition (<=0
	// selects 1, which degenerates to a serial crawl per condition).
	Partitions int
	// Slots is the number of concurrent worker slots (<=0 selects 4).
	Slots int
	// MaxAttempts bounds attempts per unit (<=0 selects 3).
	MaxAttempts int
	// Arm maps unit ID → checkpoint writes before a forced mid-unit
	// stop on that unit's first attempt — the chaos-testing lever.
	Arm map[string]int
	// Spawn overrides the unit runner. Nil selects the in-process
	// runner; set a distrib.ProcessSpawner to run each attempt as a
	// spawned `crawl -distrib-unit` worker process.
	Spawn distrib.Spawner
}

// studySpec projects the study's normalized options into the wire form
// every unit spec carries.
func (s *Study) studySpec() distrib.StudySpec {
	return distrib.StudySpec{
		Seed:            s.Options.Seed,
		Scale:           s.Options.Scale,
		Workers:         s.Options.Workers,
		FaultRate:       s.Options.FaultRate,
		Retries:         s.Options.Retries,
		VisitTimeout:    s.Options.VisitTimeout,
		SnapshotReuse:   s.Options.SnapshotReuse,
		TraceVisits:     s.Options.TraceVisits,
		CheckpointEvery: s.Options.CheckpointEvery,
		Interact:        s.Options.Interact,
	}
}

// distribConditions lists the crawl conditions a distributed run
// partitions, in the serial pipeline's phase order.
func distribConditions(opts Options) []string {
	conds := []string{CondControl}
	if opts.WithAdblock {
		conds = append(conds, CondABP, CondUBO)
	}
	if opts.WithM1 {
		conds = append(conds, CondM1)
	}
	return conds
}

// unitEnv builds one work-unit's environment: the study's generated
// world plus the exact crawler configuration the serial pipeline would
// use for the unit's condition. The demo ground-truth harvest is not a
// distributable condition — it runs inside Analyze, exactly as in the
// serial pipeline.
func (s *Study) unitEnv(spec distrib.UnitSpec) (distrib.Env, error) {
	switch spec.Condition {
	case CondControl, CondABP, CondUBO, CondM1:
	default:
		return distrib.Env{}, fmt.Errorf("canvassing: condition %q is not distributable", spec.Condition)
	}
	return distrib.Env{Web: s.Web, Sites: s.crawlSites, Config: s.crawlConfig(spec.Condition)}, nil
}

// inprocSpawner runs unit attempts in-process against a shared study
// (web generation happens once), checkpointing through Unit writers of
// the study's writer. It is the default transport; cmd/coordinator
// swaps in a ProcessSpawner.
type inprocSpawner struct{ s *Study }

func (sp inprocSpawner) Run(dir string, spec distrib.UnitSpec, stopAfter int) (bool, bool, error) {
	env, err := sp.s.unitEnv(spec)
	if err != nil {
		return false, false, err
	}
	w := sp.s.ckpt.Unit(dir)
	w.StopAfter = stopAfter
	interrupted, resumed, err := distrib.RunUnit(w, spec, env)
	if interrupted && sp.s.ckpt.Stopped() {
		return false, resumed, distrib.ErrHalted
	}
	return interrupted, resumed, err
}

// RunWorkUnit is the worker-process entry point (`crawl -distrib-unit
// <dir>`): it reads the unit spec written by the coordinator, rebuilds
// the study world from it, and runs the unit. interrupted follows the
// distrib.Spawner contract — the worker should exit
// distrib.ExitInterrupted when it is true.
func RunWorkUnit(dir string, stopAfter int) (interrupted bool, err error) {
	spec, err := distrib.ReadUnitSpec(dir)
	if err != nil {
		return false, err
	}
	// Web, lists, and fault model are pure functions of (seed, scale,
	// fault rate), so the worker's world matches the coordinator's.
	s := New(specOptions(spec.Study))
	env, err := s.unitEnv(spec)
	if err != nil {
		return false, err
	}
	w := checkpoint.NewWriter(dir, spec.Study.CheckpointEvery)
	w.StopAfter = stopAfter
	interrupted, _, err = distrib.RunUnit(w, spec, env)
	return interrupted, err
}

// specOptions inverts studySpec: the crawl-shaping options a unit spec
// carries.
func specOptions(st distrib.StudySpec) Options {
	return Options{
		Seed: st.Seed, Scale: st.Scale, Workers: st.Workers,
		FaultRate: st.FaultRate, Retries: st.Retries, VisitTimeout: st.VisitTimeout,
		SnapshotReuse: st.SnapshotReuse, TraceVisits: st.TraceVisits,
		CheckpointEvery: st.CheckpointEvery, Interact: st.Interact,
	}
}

// crawlUnits runs one condition's work-units under the run root and
// adopts their merged result. The first call plans the run, writing
// every condition's unit specs and the ledger, so New itself does no
// disk I/O. Units the ledger holds as done are adopted without running.
func (s *Study) crawlUnits(cond string) (*crawler.Result, error) {
	dir := s.ckpt.Dir()
	if s.ledger == nil {
		s.units = distrib.Partition(distribConditions(s.Options), len(s.crawlSites), s.dist.Partitions, s.studySpec())
		l, err := distrib.Plan(dir, s.units)
		if err != nil {
			return nil, err
		}
		s.ledger = l
	}
	var units []distrib.UnitSpec
	for _, u := range s.units {
		if u.Condition == cond {
			units = append(units, u)
		}
	}
	spawn := s.dist.Spawn
	if spawn == nil {
		spawn = inprocSpawner{s}
	}
	coord := &distrib.Coordinator{
		Dir: dir, Units: units, Spawn: spawn,
		Slots: s.dist.Slots, MaxAttempts: s.dist.MaxAttempts, Arm: s.dist.Arm,
	}
	if err := coord.Run(s.ledger); err != nil {
		return nil, err
	}
	return s.adoptUnits(dir, units)
}

// adoptUnits loads and merges one condition's completed partials and
// replays them into the study's telemetry — metrics summed, events
// re-recorded in page order (which re-stamps the global sequence),
// exemplar views absorbed, snapshot deltas merged — and returns the
// recombined crawl result. The replay order equals the serial
// pipeline's, so the downstream bundle bytes are identical.
func (s *Study) adoptUnits(runDir string, units []distrib.UnitSpec) (*crawler.Result, error) {
	var parts []*distrib.Partial
	for _, u := range units {
		p, err := distrib.LoadPartial(distrib.UnitDir(runDir, u.ID))
		if err != nil {
			return nil, err
		}
		parts = append(parts, p)
	}
	m, err := distrib.MergeCrawl(parts)
	if err != nil {
		return nil, err
	}
	if err := s.tel.Metrics.Merge(m.Metrics); err != nil {
		return nil, err
	}
	for i := range m.Events {
		s.tel.Events.Record(m.Events[i])
	}
	s.visits.Absorb(m.Exemplars)
	if s.Snapshots != nil {
		for _, st := range m.Snapshots {
			s.Snapshots.Merge(st)
		}
	}
	return &crawler.Result{
		Pages:     m.Pages,
		Machine:   m.Machine,
		Extension: m.Extension,
		Frontier:  len(m.Pages),
	}, nil
}

// RunDistributed executes the full study pipeline with each crawl
// partitioned across d.Partitions work-units under d.Dir. Each crawl
// phase dispatches its condition's units to worker slots (reassigning
// and resuming any that die mid-unit), merges their partials, and the
// serial analysis pipeline runs in its usual order. It is the
// checkpointed study with more partitions: opts.CheckpointDir becomes
// d.Dir, and Resume(d.Dir) continues a halted run. The resulting
// study's bundle artifacts are byte-identical to Run(opts)'s.
//
// The returned ledger records every unit's assignments, retries, and
// wall time; it is returned even on error for post-mortems.
func RunDistributed(opts Options, d DistribOptions) (*Study, *distrib.Ledger, error) {
	if d.Dir == "" {
		return nil, nil, fmt.Errorf("canvassing: distributed run needs a directory")
	}
	opts.CheckpointDir = d.Dir
	s := New(opts)
	s.dist = d
	s.run()
	return s, s.ledger, s.err
}
