package main

import (
	"bytes"
	"fmt"
	"image"
	"image/draw"
	"image/png"
	"time"

	"canvassing"
	"canvassing/internal/adblock"
	"canvassing/internal/analysis"
	"canvassing/internal/attrib"
	"canvassing/internal/blocklist"
	"canvassing/internal/canvas"
	"canvassing/internal/cluster"
	"canvassing/internal/crawler"
	"canvassing/internal/detect"
	"canvassing/internal/dom"
	"canvassing/internal/imaging"
	"canvassing/internal/jsvm"
	"canvassing/internal/machine"
	"canvassing/internal/netsim"
	"canvassing/internal/obs"
	"canvassing/internal/raster"
	"canvassing/internal/snapshot"
	"canvassing/internal/stats"
	"canvassing/internal/web"
)

// layerPasses is how many times a cheap layer replay is repeated; the
// layer reports the median pass.
const layerPasses = 3

// measureLayers fills rep.Layers with the per-layer metrics of a
// finished study. The crawl phases were timed in the study itself
// (runStudy); visit latency comes from the study's own per-visit
// histogram. Every other in-crawl layer is reached only inside
// crawler.Crawl, so each is measured by replaying the study's own
// inputs (its web, lists, crawl results and bundle) through the
// layer's public functions, with a span around every call. Nothing is
// recorded inside the program; its existing counters are read from
// the study's telemetry (exactCounters). Replays that encode canvases
// start with the encode cache cleared, as the study's crawl did.
func measureLayers(s *canvassing.Study, bundleDir string, seed uint64, tr *tracer, rep *studyReport) error {
	L := rep.Layers
	sites := append(s.Web.CohortSites(web.Popular), s.Web.CohortSites(web.Tail)...)
	root := tr.open("layers", 0)
	defer tr.close(root)

	// crawler: every visit of the study's crawls, from the crawler's
	// own wall-clock histogram (quantiles interpolated within its
	// factor-2 buckets).
	visits := s.Telemetry().Metrics.Snapshot().Histograms["crawl.visit.seconds"]
	L["crawler.visit_p50_ms"] = visits.Quantile(0.50) * 1e3
	L["crawler.visit_p99_ms"] = visits.Quantile(0.99) * 1e3
	rep.Facts = append(rep.Facts, "crawler visit "+latencyFact(int(visits.Count), func(p float64) float64 { return visits.Quantile(p/100) * 1e3 }))
	measureParseCache(s, sites, tr, root, L)

	measureJSVM(s, sites, tr, root, L)
	if err := measureImaging(s, tr, root, L); err != nil {
		return err
	}
	measureAnalysis(s, tr, root, L)
	measureBlocklist(s, sites, tr, root, L)

	c := rep.Counters
	L["snapshot.hit_ratio"] = hitRatio(c["snapshot.hits"], c["snapshot.misses"])
	L["analysis.cache_hit_ratio"] = hitRatio(c["analysis.cache_hits"], c["analysis.cache_misses"])

	// The serve probe comes last: its load generator limits this
	// process to one scheduler thread.
	sl, fact, err := serveLayers(bundleDir, seed, serveProbeTime, tr, root)
	if err != nil {
		return err
	}
	for k, v := range sl {
		L[k] = v
	}
	rep.Facts = append(rep.Facts, fact)
	return nil
}

// hitRatio is hits over lookups. It reads 0 when nothing was looked
// up, as on paper-study, which has no snapshot store.
func hitRatio(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// coldEncodeCache empties the process-global imaging encode cache, so
// that a replay pays for its encodes as the study's first crawl did.
func coldEncodeCache() {
	imaging.SetEncodeCacheEnabled(false)
	imaging.SetEncodeCacheEnabled(true)
}

// replayConfig is the study's control crawl configuration minus its
// telemetry and checkpoint hooks, so a replay leaves the study
// untouched. A snapshot-reuse study's replay gets a fresh store, as
// its control crawl started with an empty one.
func replayConfig(s *canvassing.Study) crawler.Config {
	cfg := crawler.DefaultConfig()
	cfg.Workers = s.Options.Workers
	cfg.Seed = s.Options.Seed
	cfg.Faults = s.Faults
	cfg.Retries = s.Options.Retries
	cfg.VisitTimeout = s.Options.VisitTimeout
	if s.Options.SnapshotReuse {
		cfg.Snapshots = snapshot.New()
	}
	return cfg
}

// measureParseCache replays the control crawl with the crawler's script
// parse cache on and off, alternating, each replay from a cold encode
// cache, and reports the median time of each.
func measureParseCache(s *canvassing.Study, sites []*web.Site, tr *tracer, root int, L map[string]float64) {
	var on, off []float64
	for pass := 0; pass < layerPasses; pass++ {
		for _, disable := range []bool{pass%2 == 1, pass%2 == 0} {
			cfg := replayConfig(s)
			cfg.DisableParseCache = disable
			coldEncodeCache()
			d := tr.time("crawler.replay", root, func() { crawler.Crawl(s.Web, sites, cfg) }).Seconds()
			if disable {
				off = append(off, d)
			} else {
				on = append(on, d)
			}
		}
	}
	L["crawler.replay_s"] = median(on)
	L["crawler.replay_no_parse_cache_s"] = median(off)
}

// scriptBody is one distinct script body of the web, with the first
// page that loads it.
type scriptBody struct {
	url, domain, body string
}

// distinctScripts fetches every script the cohort pages reference and
// keeps each distinct body once, in page order.
func distinctScripts(w *web.Web, sites []*web.Site) []scriptBody {
	seen := map[string]bool{}
	var out []scriptBody
	for _, site := range sites {
		for _, ps := range append(append([]web.PageScript(nil), site.Scripts...), site.InnerScripts...) {
			r, err := w.Store.Fetch(ps.URL)
			if err != nil || seen[r.Body] {
				continue
			}
			seen[r.Body] = true
			out = append(out, scriptBody{ps.URL.String(), site.Domain, r.Body})
		}
	}
	return out
}

// measureJSVM times jsvm.Parse over every distinct body and runs each
// parsed script in a fresh document and interpreter, as the crawler
// does, with host canvas calls included.
func measureJSVM(s *canvassing.Study, sites []*web.Site, tr *tracer, root int, L map[string]float64) {
	scripts := distinctScripts(s.Web, sites)
	var nbytes int
	for _, sc := range scripts {
		nbytes += len(sc.body)
	}
	progs := make([]*jsvm.Program, len(scripts))
	var perByte []float64
	for pass := 0; pass < layerPasses; pass++ {
		d := tr.time("jsvm.parse", root, func() {
			for i, sc := range scripts {
				progs[i], _ = jsvm.Parse(sc.body)
			}
		})
		perByte = append(perByte, float64(d.Nanoseconds())/float64(nbytes))
	}
	L["jsvm.parse_ns_per_byte"] = median(perByte)
	L["jsvm.parse_bytes"] = float64(nbytes)

	var steps, calls int64
	coldEncodeCache()
	d := tr.time("jsvm.exec", root, func() {
		for i, sc := range scripts {
			if progs[i] == nil {
				continue
			}
			in := jsvm.New(jsvm.Options{MaxSteps: 20_000_000, RandSeed: s.Options.Seed ^ stats.HashString("page:"+sc.domain)})
			doc := dom.NewDocument(machine.Intel(), sc.domain)
			doc.Tracer = canvas.TracerFunc(func(string, string, []string, string) { calls++ })
			doc.Install(in)
			doc.SetScriptOwner(sc.url)
			_, _ = in.Run(progs[i]) // a script failing alone still did its steps
			steps += int64(in.Steps())
		}
	})
	L["jsvm.exec_steps"] = float64(steps)
	L["jsvm.exec_ns_per_step"] = float64(d.Nanoseconds()) / float64(steps)
	L["canvas.calls"] = float64(calls)
}

// measureImaging re-encodes each distinct extracted PNG canvas with
// imaging.Encode (never the process-global encode cache).
func measureImaging(s *canvassing.Study, tr *tracer, root int, L map[string]float64) error {
	var imgs []*raster.Image
	var pixels int64
	for _, ci := range distinctCanvases(s) {
		_, payload, err := imaging.ParseDataURL(ci.DataURL)
		if err != nil {
			return fmt.Errorf("imaging: %w", err)
		}
		src, err := png.Decode(bytes.NewReader(payload))
		if err != nil {
			return fmt.Errorf("imaging: %w", err)
		}
		b := src.Bounds()
		nrgba := image.NewNRGBA(b)
		draw.Draw(nrgba, b, src, b.Min, draw.Src)
		imgs = append(imgs, &raster.Image{W: b.Dx(), H: b.Dy(), Pix: nrgba.Pix})
		pixels += int64(b.Dx() * b.Dy())
	}
	var perPixel []float64
	for pass := 0; pass < layerPasses; pass++ {
		var err error
		d := tr.time("imaging.encode", root, func() {
			for _, img := range imgs {
				if _, e := imaging.Encode(img, imaging.PNG, 0); e != nil {
					err = e
				}
			}
		})
		if err != nil {
			return fmt.Errorf("imaging: %w", err)
		}
		perPixel = append(perPixel, float64(d.Nanoseconds())/float64(pixels))
	}
	L["imaging.encode_ns_per_pixel"] = median(perPixel)
	return nil
}

// measureAnalysis replays the analysis of every crawl on a fresh
// executor and memo cache, then times detection, clustering and
// attribution on the study's own results.
func measureAnalysis(s *canvassing.Study, tr *tracer, root int, L map[string]float64) {
	ex := analysis.NewExecutor(s.Options.Workers, analysis.NewCache(obs.NewRegistry()), nil)
	var pages int
	d := tr.time("analysis", root, func() {
		for _, c := range crawls(s) {
			ex.AnalyzeAll(c.res.Pages, nil, c.res.Extension)
			pages += len(c.res.Pages)
		}
	})
	L["analysis.pages_per_s"] = float64(pages) / d.Seconds()

	var urls []string
	seen := map[string]bool{}
	for _, c := range crawls(s) {
		for i := range c.sites {
			for _, ci := range c.sites[i].All {
				if !seen[ci.Hash] {
					seen[ci.Hash] = true
					urls = append(urls, ci.DataURL)
				}
			}
		}
	}
	var perCanvas, buildMs, attribMs []float64
	for pass := 0; pass < layerPasses; pass++ {
		d := tr.time("detect.classify", root, func() {
			for _, u := range urls {
				detect.Classify(u, false)
			}
		})
		perCanvas = append(perCanvas, float64(d.Nanoseconds())/float64(len(urls)))
		var cl *cluster.Clustering
		buildMs = append(buildMs, ms(tr.time("cluster.build", root, func() { cl = cluster.Build(s.Sites) })))
		attribMs = append(attribMs, ms(tr.time("attrib.attribute", root, func() { attrib.Attribute(cl, s.GroundTruth, s.Sites) })))
	}
	L["detect.classify_ns_per_canvas"] = median(perCanvas)
	L["cluster.build_ms"] = median(buildMs)
	L["attrib.attribute_ms"] = median(attribMs)
}

// measureBlocklist sends every script request of the web through the
// Adblock Plus and uBlock Origin extensions' BlockScript.
func measureBlocklist(s *canvassing.Study, sites []*web.Site, tr *tracer, root int, L map[string]float64) {
	var reqs []blocklist.Request
	for _, site := range sites {
		for _, ps := range site.Scripts {
			reqs = append(reqs, blocklist.Request{
				URL:        ps.URL.String(),
				Type:       blocklist.TypeScript,
				PageHost:   site.Domain,
				ThirdParty: !netsim.SameSite(ps.URL.Host, site.Domain),
			})
		}
	}
	exts := []crawler.Extension{adblock.NewAdblockPlus(s.Lists), adblock.NewUBlockOrigin(s.Lists)}
	var perReq []float64
	for pass := 0; pass < layerPasses; pass++ {
		d := tr.time("blocklist.match", root, func() {
			for _, ext := range exts {
				for _, r := range reqs {
					ext.BlockScript(r)
				}
			}
		})
		perReq = append(perReq, float64(d.Nanoseconds())/float64(len(reqs)*len(exts)))
	}
	L["blocklist.requests"] = float64(len(reqs))
	L["blocklist.match_ns_per_request"] = median(perReq)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
