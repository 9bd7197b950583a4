// Package canvassing reproduces "Canvassing the Fingerprinters:
// Characterizing Canvas Fingerprinting Use Across the Web" (IMC 2025) as
// a self-contained simulation study.
//
// A Study bundles the full pipeline: synthetic-web generation, the
// instrumented control crawl, fingerprintability detection, canvas
// clustering, vendor attribution, blocklist analyses, ad-blocker
// re-crawls, and the cross-machine validation crawl. Each experiment of
// the paper (tables, figures, and headline statistics) is exposed as a
// method returning a typed result with a Render() string form.
//
// Minimal use:
//
//	study := canvassing.Run(canvassing.Options{Seed: 1, Scale: 0.05})
//	fmt.Println(study.Prevalence().Render())
package canvassing

import (
	"errors"
	"fmt"
	"time"

	"canvassing/internal/analysis"
	"canvassing/internal/attrib"
	"canvassing/internal/blocklist"
	"canvassing/internal/checkpoint"
	"canvassing/internal/cluster"
	"canvassing/internal/crawler"
	"canvassing/internal/detect"
	"canvassing/internal/distrib"
	"canvassing/internal/machine"
	"canvassing/internal/netsim"
	"canvassing/internal/obs"
	"canvassing/internal/obs/event"
	"canvassing/internal/obs/tracez"
	"canvassing/internal/snapshot"
	"canvassing/internal/stats"
	"canvassing/internal/web"
)

// Options configures a study run.
type Options struct {
	// Seed drives every random choice; equal seeds reproduce the study
	// bit for bit.
	Seed uint64
	// Scale shrinks the web: 1.0 is the paper's 20k+20k crawl, 0.05 a
	// laptop-quick 1k+1k run. Values <=0 select 1.0.
	Scale float64
	// Workers is the crawler pool width (<=0 selects 8).
	Workers int
	// AnalysisWorkers is the post-crawl analysis pool width (<=0
	// selects Workers). Any width produces byte-identical bundles —
	// the determinism oracle in determinism_test.go enforces it.
	AnalysisWorkers int
	// WithAdblock adds the Adblock Plus and uBlock Origin re-crawls
	// (Table 2 / E5).
	WithAdblock bool
	// WithM1 adds the Apple-silicon validation crawl (§3.1 / E9).
	WithM1 bool
	// FaultRate enables deterministic fault injection on every cohort
	// crawl: the fraction of sites given a seeded fault plan (0
	// disables, reproducing the pre-resilience pipeline exactly). The
	// demo ground-truth crawl is exempt — harvesting vendor demo pages
	// is the researcher's controlled environment, not the open Web.
	FaultRate float64
	// Retries and VisitTimeout tune the crawler's resilience engine
	// under FaultRate (zero selects the crawler defaults).
	Retries      int
	VisitTimeout time.Duration
	// CheckpointDir makes the study durable: each cohort crawl runs as a
	// one-partition work-unit under <dir>/units/ (internal/distrib),
	// whose sidecar checkpoints every CheckpointEvery committed pages,
	// and Resume(dir) continues an interrupted study from there. Empty
	// crawls in-process without checkpoints.
	CheckpointDir string
	// CheckpointEvery is the checkpoint cadence in committed pages
	// (<=0 selects 256).
	CheckpointEvery int
	// SnapshotReuse routes cohort-crawl page fetches through a shared
	// content-addressed snapshot store, so the ABP/uBO/M1 re-crawls
	// reuse bodies the control crawl already fetched instead of
	// re-generating them. The store's hit/miss counters live outside
	// the metrics registry, so enabling reuse leaves deterministic
	// bundle artifacts byte-identical.
	SnapshotReuse bool
	// TraceVisits captures per-visit span trees from every crawl and
	// per-shard batch spans from the analysis executor into a bounded
	// deterministic exemplar reservoir (internal/obs/tracez). The
	// reservoir lives outside the metrics registry and event sink, so
	// enabling it changes zero bundle bytes; WriteBundle adds a
	// trace_exemplars.jsonl sidecar next to the bundle, and the ops
	// plane serves the live view at /tracez.
	TraceVisits bool
	// Interact enables the interaction-triggered fingerprinting
	// workload ("Beyond the Crawl"): the generated web additionally
	// carries interaction-gated vendor deployments, and the EX3
	// crawl-vs-interaction experiment re-crawls it with the crawler's
	// interaction engine driving seeded per-site behaviour profiles.
	// The load-time cohort crawls themselves stay interaction-free, so
	// the paper-faithful numbers keep their meaning; with Interact off
	// the study is byte-identical to builds without the engine.
	Interact bool
}

// Crawl condition labels used in the evidence event log. Bundle diffs
// align events across runs by (condition, site), so the labels are part
// of the bundle contract.
const (
	CondControl  = "control"
	CondABP      = "abp"
	CondUBO      = "ubo"
	CondM1       = "m1"
	CondDemo     = "demo"
	CondInner    = "inner"
	CondInteract = "interact"
)

// Study holds all crawl and analysis artifacts.
type Study struct {
	Options Options
	// Web is the generated world.
	Web *web.Web
	// Lists are the synthetic EasyList/EasyPrivacy/Disconnect lists.
	Lists *blocklist.StandardLists
	// Control is the extension-free crawl over both cohorts.
	Control *crawler.Result
	// Sites are the analyzed (detection-classified) control pages.
	Sites []detect.SiteCanvases
	// Clustering groups identical canvases across sites.
	Clustering *cluster.Clustering
	// GroundTruth holds per-vendor canvas hashes from demo/customer
	// crawls.
	GroundTruth *attrib.GroundTruth
	// Attribution is the Table 1 attribution result.
	Attribution *attrib.Result
	// ABP and UBO are the ad-blocker re-crawls (nil unless WithAdblock).
	ABP, UBO *crawler.Result
	// ABPSites and UBOSites are the analyzed re-crawl pages (cached so
	// Table 2 and run bundles share one evented analysis).
	ABPSites, UBOSites []detect.SiteCanvases
	// M1 is the validation crawl (nil unless WithM1).
	M1 *crawler.Result
	// M1Sites are the analyzed validation pages (cached like ABPSites).
	M1Sites []detect.SiteCanvases
	// Faults is the study's fault model (nil unless Options.FaultRate
	// is positive); every cohort crawl shares it so conditions see the
	// same per-site fault plans and stay comparable.
	Faults *netsim.FaultModel
	// Snapshots is the content-addressed body store shared by every
	// cohort crawl (nil unless Options.SnapshotReuse).
	Snapshots *snapshot.Store
	// Halted reports that a checkpointed run stopped before completing,
	// and later phases were skipped: either the checkpoint writer's
	// StopAfter fired, and the run directory holds the progress for
	// Resume, or a work-unit failed (Err says why).
	Halted bool

	crawlSites []*web.Site // cohort sites in crawl order
	tel        *obs.Telemetry
	analyzer   *analysis.Executor
	visits     *tracez.Reservoir // exemplar reservoir (nil unless TraceVisits)

	// The work-unit layout of a checkpointed run: ckpt counts every
	// unit's sidecar writes, and units and ledger are planned on disk
	// by the first crawl (or reopened by Resume).
	ckpt   *checkpoint.Writer
	dist   DistribOptions
	units  []distrib.UnitSpec
	ledger *distrib.Ledger
	err    error

	randCache map[int]RandomizationResult
	// interactCache memoizes the EX3 interaction re-crawl (randCache
	// pattern): the report and the repro CLI share one re-crawl.
	interactCache *InteractionGapResult
}

// Checkpointer exposes the study's checkpoint writer (nil unless
// Options.CheckpointDir is set). Its Dir is the run root and its Writes
// count every work-unit's sidecar writes; tests and binaries arm its
// StopAfter before the first crawl to halt the study after that many
// writes.
func (s *Study) Checkpointer() *checkpoint.Writer { return s.ckpt }

// Err reports why a halted study stopped when a work-unit failed
// rather than being interrupted; nil otherwise.
func (s *Study) Err() error { return s.err }

// Telemetry exposes the study's metrics registry and phase recorder.
// Every crawl and analysis phase accumulates into it; inspect it with
// Telemetry().Metrics.RenderText(), the PhaseTimings table, or the
// obs HTTP mux.
func (s *Study) Telemetry() *obs.Telemetry { return s.tel }

// Visits exposes the study's exemplar reservoir (nil unless
// Options.TraceVisits) — the /tracez payload and the
// trace_exemplars.jsonl source.
func (s *Study) Visits() *tracez.Reservoir { return s.visits }

// New generates the web and lists without crawling. Use Run for the
// whole pipeline.
func New(opts Options) *Study {
	if opts.Scale <= 0 {
		opts.Scale = 1
	}
	tel := obs.NewTelemetry()
	sp := tel.Phases.Start("webgen")
	w := web.Generate(web.Config{Seed: opts.Seed, Scale: opts.Scale, TrancoMax: 1_000_000, Interact: opts.Interact})
	sp.End()
	s := &Study{
		Options: opts,
		Web:     w,
		Lists:   ListsForSeed(opts.Seed),
		tel:     tel,
	}
	if opts.FaultRate > 0 {
		s.Faults = netsim.NewFaultModel(opts.Seed, opts.FaultRate)
	}
	if opts.SnapshotReuse {
		s.Snapshots = snapshot.New()
	}
	if opts.CheckpointDir != "" {
		s.ckpt = checkpoint.NewWriter(opts.CheckpointDir, opts.CheckpointEvery)
		s.ckpt.Status = tel.Status
	}
	if opts.TraceVisits {
		s.visits = tracez.NewReservoir(opts.Seed, 0, 0)
	}
	aw := opts.AnalysisWorkers
	if aw <= 0 {
		aw = opts.Workers
	}
	// One executor for the whole study: the memo cache spans the
	// control analysis and every re-analysis, which is where the
	// cross-condition verdict reuse comes from.
	s.analyzer = analysis.NewExecutor(aw, analysis.NewCache(tel.Metrics), tel)
	s.analyzer.SetVisits(s.visits)
	s.crawlSites = append(s.crawlSites, w.CohortSites(web.Popular)...)
	s.crawlSites = append(s.crawlSites, w.CohortSites(web.Tail)...)
	tel.Status.MarkRunning()
	return s
}

// Run executes the full pipeline for opts. If the checkpoint writer
// halts a crawl, the remaining phases are skipped (Study.Halted).
func Run(opts Options) *Study {
	s := New(opts)
	s.run()
	return s
}

// run executes the phases Options selects, in pipeline order. Every
// phase is a no-op once the study has halted.
func (s *Study) run() {
	s.RunControl()
	s.Analyze()
	if s.Options.WithAdblock {
		s.RunAdblock()
	}
	if s.Options.WithM1 {
		s.RunM1()
	}
}

// crawlConfig builds the shared crawler configuration. Every crawl a
// study launches (control, ground truth, re-crawls, defenses) feeds
// the same telemetry registry; condition labels the crawl's decisions
// in the evidence event log, and the ABP, uBO and M1 conditions bring
// their extension or machine profile.
func (s *Study) crawlConfig(condition string) crawler.Config {
	cfg := crawler.DefaultConfig()
	cfg.Workers = s.Options.Workers
	cfg.Seed = s.Options.Seed
	cfg.Telemetry = s.tel
	cfg.Condition = condition
	switch condition {
	case CondABP:
		cfg.Extension = newABP(s.Lists)
	case CondUBO:
		cfg.Extension = newUBO(s.Lists)
	case CondM1:
		cfg.Profile = machine.AppleM1()
	}
	// Every cohort crawl contends with the same fault plans; the demo
	// ground-truth harvest runs fault-free (see Options.FaultRate).
	if condition != CondDemo {
		cfg.Faults = s.Faults
		cfg.Retries = s.Options.Retries
		cfg.VisitTimeout = s.Options.VisitTimeout
		// Typed-nil guard: only assign the interface when a store exists.
		if s.Snapshots != nil {
			cfg.Snapshots = s.Snapshots
		}
	}
	// Every crawl — including the demo harvest — feeds the exemplar
	// reservoir; it lives outside the registry, so this is invisible
	// to bundles.
	cfg.Visits = s.visits
	return cfg
}

// crawl runs one cohort condition over both cohorts. An uncheckpointed
// study crawls in-process; that crawl is the reference the resume and
// partition oracles compare against. A checkpointed study runs the
// condition as work-units and adopts their merged result; when a unit
// is interrupted or fails, crawl returns nil and the study halts.
func (s *Study) crawl(cond string) *crawler.Result {
	if s.ckpt == nil {
		return crawler.Crawl(s.Web, s.crawlSites, s.crawlConfig(cond))
	}
	res, err := s.crawlUnits(cond)
	if err != nil {
		s.Halted = true
		if !errors.Is(err, distrib.ErrHalted) {
			s.err = err
		}
		return nil
	}
	return res
}

// events returns the study's evidence event sink (nil-safe for
// analyses that run without telemetry).
func (s *Study) events() *event.Sink {
	if s.tel == nil {
		return nil
	}
	return s.tel.Events
}

// Analysis exposes the study's parallel analysis executor (pool
// width, memo-cache stats, per-condition run breakdown).
func (s *Study) Analysis() *analysis.Executor { return s.analyzer }

// analyzeAll routes one crawl's pages through the parallel analysis
// executor under the given condition label. The executor guarantees
// the evidence log and metrics are identical to a serial
// detect.AnalyzeAllEvents call.
func (s *Study) analyzeAll(pages []*crawler.PageResult, cond string) []detect.SiteCanvases {
	return s.analyzer.AnalyzeAll(pages, s.events(), cond)
}

// RunControl performs the control crawl over both cohorts.
func (s *Study) RunControl() {
	if s.Halted {
		return
	}
	defer s.tel.Phases.Start("crawl.control", "sites", fmt.Sprint(len(s.crawlSites))).End()
	s.Control = s.crawl(CondControl)
}

// Analyze runs detection, clustering, ground truth and attribution over
// the control crawl, recording every verdict to the evidence log.
// RunControl must have been called.
func (s *Study) Analyze() {
	if s.Halted {
		return
	}
	evs := s.events()
	s.Sites = s.analyzeAll(s.Control.Pages, CondControl)
	sp := s.tel.Phases.Start("cluster")
	s.Clustering = cluster.BuildEvents(s.Sites, evs)
	sp.End()
	sp = s.tel.Phases.Start("attrib")
	gt := sp.StartChild("groundtruth")
	s.GroundTruth = attrib.BuildGroundTruthEvents(s.Web, s.Sites, s.crawlConfig(CondDemo), evs)
	gt.End()
	s.Attribution = attrib.AttributeEvents(s.Clustering, s.GroundTruth, s.Sites, evs)
	sp.End()
}

// RunAdblock performs the two ad-blocker re-crawls (Table 2) and
// analyzes their pages under the "abp"/"ubo" condition labels.
func (s *Study) RunAdblock() {
	if s.Halted {
		return
	}
	sp := s.tel.Phases.Start("crawl.adblock")
	defer sp.End()
	abp := sp.StartChild("abp")
	s.ABP, s.ABPSites = s.crawlAndAnalyze(CondABP)
	abp.End()
	if s.Halted {
		return
	}
	ubo := sp.StartChild("ubo")
	s.UBO, s.UBOSites = s.crawlAndAnalyze(CondUBO)
	ubo.End()
}

// RunM1 performs the Apple-silicon validation crawl (§3.1).
func (s *Study) RunM1() {
	if s.Halted {
		return
	}
	defer s.tel.Phases.Start("crawl.m1").End()
	s.M1, s.M1Sites = s.crawlAndAnalyze(CondM1)
}

// crawlAndAnalyze crawls one re-crawl condition and analyzes its pages
// under the condition's label.
func (s *Study) crawlAndAnalyze(cond string) (*crawler.Result, []detect.SiteCanvases) {
	res := s.crawl(cond)
	if s.Halted {
		return nil, nil
	}
	return res, s.analyzeAll(res.Pages, cond)
}

// ListsForSeed reconstructs the exact blocklists a study with the
// given seed used — standard lists plus the longtail tracker coverage.
// The verdict service uses it to answer /v1/block queries for a loaded
// bundle with the same rules the original run matched against.
func ListsForSeed(seed uint64) *blocklist.StandardLists {
	return blocklist.NewStandardListsWithTrackers(seed, longtailTrackerCoverage())
}

// longtailTrackerCoverage decides which boutique fingerprinting hosts the
// crowdsourced lists know about. Coverage is nested the way real lists
// correlate: the notorious 15% sit in all three lists, a further slice in
// EasyPrivacy+Disconnect, and EasyPrivacy alone catches most of the rest.
func longtailTrackerCoverage() []blocklist.TrackerHost {
	var out []blocklist.TrackerHost
	for _, id := range web.LongtailActorIDs() {
		host := web.ActorHost(id)
		r := stats.HashString("coverage:"+host) % 100
		t := blocklist.TrackerHost{Host: host}
		switch {
		case r < 10:
			t.EL, t.EP, t.Disc = true, true, true
		case r < 35:
			t.EP, t.Disc = true, true
		case r < 50:
			t.EP = true
		default:
			// ~15% of boutique trackers fly under every list's radar.
			continue
		}
		out = append(out, t)
	}
	return out
}

// cohortSites filters the analyzed sites of one cohort.
func (s *Study) cohortSites(c web.Cohort) []detect.SiteCanvases {
	var out []detect.SiteCanvases
	for i := range s.Sites {
		if s.Sites[i].Cohort == c {
			out = append(out, s.Sites[i])
		}
	}
	return out
}
