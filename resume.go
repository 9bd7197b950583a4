package canvassing

import "canvassing/internal/distrib"

// Resume continues a checkpointed study from its run root dir (the
// CheckpointDir of a halted Run, or the Dir of a halted
// RunDistributed). The run shape comes from the unit specs and the
// ledger there, and the web regenerates from the seed. Units the ledger
// holds as done are adopted from their partial bundles, an interrupted
// unit continues from its checkpoint sidecar, the rest run as usual,
// and every analysis runs live and counted: analysis is a pure function
// of the adopted pages, so a resumed study's bundle artifacts are
// byte-identical to an uninterrupted run's, at any worker width and
// partition count — TestResumeOracle enforces it. The analysis pool
// runs at the crawl width; analysis width never changes bundle bytes.
func Resume(dir string) (*Study, error) {
	ledger, units, err := distrib.Reopen(dir)
	if err != nil {
		return nil, err
	}
	opts := specOptions(units[0].Study)
	opts.CheckpointDir = dir
	for _, u := range units {
		switch u.Condition {
		case CondABP, CondUBO:
			opts.WithAdblock = true
		case CondM1:
			opts.WithM1 = true
		}
	}
	s := New(opts)
	s.units, s.ledger = units, ledger
	s.run()
	return s, s.err
}
