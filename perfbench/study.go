package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"canvassing"
	"canvassing/internal/bundle"
	"canvassing/internal/crawler"
	"canvassing/internal/detect"
	"canvassing/internal/imaging"
)

// studyOptions is the study each study workload runs. paper-study is
// the ROADMAP's headline compare study; durable-study adds the write
// path (checkpoint sidecar every 64 committed pages), snapshot
// read-through and netsim fault/retry on top of the same crawl.
func studyOptions(workload string, seed uint64, work string) canvassing.Options {
	o := canvassing.Options{Seed: seed, Scale: 0.02, Workers: 2, WithAdblock: true, WithM1: true}
	if workload == "durable-study" {
		o.CheckpointDir = filepath.Join(work, "checkpoint")
		o.CheckpointEvery = 64
		o.SnapshotReuse = true
		o.FaultRate = 0.1
	}
	return o
}

// studyReport is what one study process hands back to the parent.
type studyReport struct {
	// SetupCPU is the CPU time of canvassing.New.
	SetupCPU float64 `json:"setup_cpu_s"`
	// StudyS runs from the end of set-up until the bundle is written;
	// StudyCPU is the CPU time this process used over the same span.
	StudyS   float64 `json:"study_s"`
	StudyCPU float64 `json:"study_cpu_s"`
	// CrawlS is the summed wall time of the crawl phases (RunControl,
	// RunAdblock, RunM1). The re-crawl phases also analyze their own
	// pages, which is about 2% of their time.
	CrawlS float64 `json:"crawl_s"`
	// Pages counts page visits across the crawl conditions; Failed
	// those whose outcome is a failed visit (planted unreachable sites,
	// injected faults).
	Pages  int64 `json:"pages"`
	Failed int64 `json:"failed"`
	// Digest hashes the bundle's deterministic artifacts.
	Digest string `json:"digest"`
	// Counters are the exact work counters; runs of one seed and one
	// build must agree on every one.
	Counters map[string]int64 `json:"counters"`
	// Layers holds the per-layer metrics of a traced run, and Facts
	// its self-time summary.
	Layers map[string]float64 `json:"layers,omitempty"`
	Facts  []string           `json:"facts,omitempty"`

	// scale is set by the parent: the factor that scales this study's
	// CPU times to the reference host speed (calibrate.go).
	scale float64
}

// runStudy runs one study of the workload in this process and writes
// its bundle under work. A traced run also reports each crawl phase's
// time and the control crawl's allocation as crawler layer metrics,
// then replays the study's inputs through the other layers (see
// layers.go).
func runStudy(workload string, seed uint64, work string, traced bool) (*studyReport, error) {
	opts := studyOptions(workload, seed, work)
	bundleDir := filepath.Join(work, "bundle")
	rep := &studyReport{}
	if traced {
		rep.Layers = map[string]float64{}
	}

	var tr *tracer
	if traced {
		tr = newTracer()
	}
	c0 := cpuTime()
	s := canvassing.New(opts)
	rep.SetupCPU = cpuSince(c0).Seconds()

	t1, c1 := time.Now(), cpuTime()
	study := tr.open("study", 0)
	phase := func(name string, fn func()) {
		d := tr.time("study."+name, study, fn).Seconds()
		if name != "analyze" {
			rep.CrawlS += d
			if traced {
				rep.Layers["crawler."+name+"_s"] = d
			}
		}
	}
	var mem0, mem1 runtime.MemStats
	if traced {
		runtime.ReadMemStats(&mem0)
	}
	phase("control", s.RunControl)
	if traced {
		runtime.ReadMemStats(&mem1)
		rep.Layers["crawler.alloc_mb"] = float64(mem1.TotalAlloc-mem0.TotalAlloc) / (1 << 20)
	}
	phase("analyze", s.Analyze)
	if opts.WithAdblock {
		phase("adblock", s.RunAdblock)
	}
	if opts.WithM1 {
		phase("m1", s.RunM1)
	}
	if s.Halted {
		return nil, fmt.Errorf("study halted before completion")
	}
	// Everything recorded so far is what the bundle's metrics hold; the
	// report's defence re-crawls run after the metrics are written.
	rep.Counters = exactCounters(s)
	rep.Pages, rep.Failed = rep.Counters["crawler.visits"], rep.Counters["crawler.failed_visits"]

	if traced {
		if err := writeBundleTimed(s, bundleDir, tr, study, rep.Layers); err != nil {
			return nil, err
		}
	} else if err := s.WriteBundle(bundleDir); err != nil {
		return nil, err
	}
	rep.StudyS, rep.StudyCPU = time.Since(t1).Seconds(), cpuSince(c1).Seconds()
	tr.close(study)

	digest, err := digestFiles(bundleDir, deterministicArtifacts)
	if err != nil {
		return nil, err
	}
	rep.Digest = digest
	if traced {
		// The checkpoint holds the registry's wall-clock histograms, so
		// its size is a measurement, not an exact counter.
		rep.Layers["checkpoint.bytes"] = 0
		if w := s.Checkpointer(); w != nil {
			n, err := dirBytes(w.Dir())
			if err != nil {
				return nil, fmt.Errorf("checkpoint dir: %w", err)
			}
			rep.Layers["checkpoint.bytes"] = float64(n)
		}
		if err := measureLayers(s, bundleDir, seed, tr, rep); err != nil {
			return nil, err
		}
		rep.Facts = append(rep.Facts, tr.selfTimeFacts(12)...)
		path := filepath.Join(traceRoot, fmt.Sprintf("%s-seed%d-%d.jsonl", workload, seed, os.Getpid()))
		if err := tr.write(path); err != nil {
			return nil, err
		}
		rep.Facts = append(rep.Facts, "spans written to "+path)
	}
	return rep, nil
}

// writeBundleTimed writes the same bundle as Study.WriteBundle, by the
// same public calls in the same order, timing the metrics/event write
// and the report render apart. The digest check catches any drift
// from WriteBundle: a traced run must produce the untraced digest.
func writeBundleTimed(s *canvassing.Study, dir string, tr *tracer, parent int, layers map[string]float64) error {
	m := bundle.Manifest{
		Seed:    s.Options.Seed,
		Scale:   s.Options.Scale,
		Workers: s.Options.Workers,
		Notes:   fmt.Sprintf("canvassing study, adblock=%v m1=%v", s.Options.WithAdblock, s.Options.WithM1),
	}
	var err error
	write := tr.time("bundle.write", parent, func() { err = bundle.Write(dir, m, s.Telemetry()) })
	if err != nil {
		return err
	}
	var report string
	layers["report.render_s"] = tr.time("report.render", parent, func() { report = s.RenderAll() }).Seconds()
	write += tr.time("bundle.write", parent, func() {
		if err = bundle.WriteReport(dir, "report.txt", report); err == nil {
			err = bundle.WriteReport(dir, "telemetry.txt", s.TelemetryReport())
		}
	})
	if err != nil {
		return err
	}
	layers["bundle.write_s"] = write.Seconds()
	n, err := dirBytes(dir)
	if err != nil {
		return err
	}
	layers["bundle.bytes"] = float64(n)
	return nil
}

// crawls lists the study's cohort crawls with their analyzed pages.
func crawls(s *canvassing.Study) []struct {
	res   *crawler.Result
	sites []detect.SiteCanvases
} {
	type c = struct {
		res   *crawler.Result
		sites []detect.SiteCanvases
	}
	out := []c{{s.Control, s.Sites}}
	if s.ABP != nil {
		out = append(out, c{s.ABP, s.ABPSites}, c{s.UBO, s.UBOSites})
	}
	if s.M1 != nil {
		out = append(out, c{s.M1, s.M1Sites})
	}
	return out
}

// distinctCanvases returns every distinct PNG canvas the study's crawls
// extracted, in first-seen order.
func distinctCanvases(s *canvassing.Study) []detect.CanvasInfo {
	seen := map[string]bool{}
	var out []detect.CanvasInfo
	for _, c := range crawls(s) {
		for i := range c.sites {
			for _, ci := range c.sites[i].All {
				if ci.Format != imaging.PNG || ci.W == 0 || seen[ci.Hash] {
					continue
				}
				seen[ci.Hash] = true
				out = append(out, ci)
			}
		}
	}
	return out
}

// exactCounters reads the deterministic work counters: the program's
// own registry counters plus counts the benchmark derives from the
// crawl results. They depend on the seed and the code, never on
// timing, so two runs of one build must agree exactly.
func exactCounters(s *canvassing.Study) map[string]int64 {
	snap := s.Telemetry().Metrics.Snapshot()
	steps := snap.Histograms["jsvm.script.steps"]
	c := map[string]int64{
		"jsvm.steps":            int64(steps.Sum),
		"jsvm.scripts":          steps.Count,
		"analysis.cache_hits":   snap.Counters["analysis.cache.hits"],
		"analysis.cache_misses": snap.Counters["analysis.cache.misses"],
		"netsim.retries":        snap.Counters["crawl.retry"],
		"checkpoint.writes":     0,
		"snapshot.hits":         0,
		"snapshot.misses":       0,
	}
	for _, cr := range crawls(s) {
		for _, p := range cr.res.Pages {
			c["crawler.visits"]++
			if !p.OK {
				c["crawler.failed_visits"]++
			}
		}
	}
	for _, ci := range distinctCanvases(s) {
		c["imaging.pixels"] += int64(ci.W * ci.H)
	}
	if w := s.Checkpointer(); w != nil {
		c["checkpoint.writes"] = int64(w.Writes())
	}
	if s.Snapshots != nil {
		c["snapshot.hits"], c["snapshot.misses"] = s.Snapshots.Counts()
	}
	return c
}
