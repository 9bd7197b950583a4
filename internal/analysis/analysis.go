// Package analysis is the parallel half of the post-crawl pipeline: a
// sharded executor that fans detect.AnalyzePageEvents out over a
// bounded worker pool while keeping every externally visible artifact
// — the evidence event log, the metrics counters, and therefore the
// serialized run bundle — byte-identical to the serial pipeline.
//
// The determinism recipe has two halves:
//
//  1. Event ordering. Pages are cut into contiguous shards. Each
//     worker records its shard's classification events into a private,
//     unsynchronized event.Buffer (no Seq stamping), and after the
//     pool drains, the shards are replayed into the shared sink in
//     shard index order — i.e. original page order. Sequence numbers
//     are stamped at replay time, so the merged log is byte-equal to
//     one recorded serially, for any worker width.
//
//  2. Counter accounting. The memo cache counts a miss only on the
//     lookup that wins the map insert for a key and a hit on every
//     other lookup, so hits/misses depend only on the multiset of
//     keys, not on scheduling (see Cache).
//
// What is parallelized is only the pure per-page classification work;
// everything order-sensitive happens on the calling goroutine.
package analysis

import (
	"fmt"
	"sync"

	"canvassing/internal/crawler"
	"canvassing/internal/detect"
	"canvassing/internal/obs"
	"canvassing/internal/obs/event"
	"canvassing/internal/obs/tracez"
)

// shardsPerWorker oversizes the shard count relative to the pool so a
// shard with unusually heavy pages doesn't leave the other workers
// idle at the tail of a run.
const shardsPerWorker = 4

// RunStats describes one AnalyzeAll invocation — the per-condition
// breakdown TelemetryReport renders.
type RunStats struct {
	// Crawl is the condition label ("control", "abp", ...).
	Crawl string
	// Pages, Canvases: input size and classified extraction count.
	Pages    int
	Canvases int
	// Shards and Workers describe the fan-out used.
	Shards  int
	Workers int
}

// Executor fans page classification over a bounded worker pool. One
// executor is shared by every analysis a study runs, so the memo
// cache carries verdicts across conditions. The zero worker count
// selects 8, matching the crawler's default pool width.
type Executor struct {
	workers int
	cache   *Cache
	tel     *obs.Telemetry
	visits  *tracez.Reservoir

	mu   sync.Mutex
	runs []RunStats
}

// NewExecutor returns an executor with the given pool width. cache
// may be nil (memoization disabled); tel may be nil (no spans or
// metrics).
func NewExecutor(workers int, cache *Cache, tel *obs.Telemetry) *Executor {
	if workers <= 0 {
		workers = 8
	}
	// Note: the pool width is deliberately NOT exported as a metrics
	// gauge (and not recorded in bundle manifests) — bundles must be
	// byte-identical across widths, so nothing width-dependent may
	// reach a serialized artifact.
	return &Executor{workers: workers, cache: cache, tel: tel}
}

// Workers returns the pool width.
func (ex *Executor) Workers() int { return ex.workers }

// Cache returns the executor's memo cache (nil if disabled).
func (ex *Executor) Cache() *Cache { return ex.cache }

// SetVisits points the executor at the study's exemplar reservoir:
// each AnalyzeAll then offers one per-shard batch span (kind "batch",
// condition "analyze.<crawl>"). Batch exemplars describe the actual
// shard fan-out — a function of the worker count — so the reservoir
// excludes them from its deterministic selection key.
func (ex *Executor) SetVisits(r *tracez.Reservoir) { ex.visits = r }

// Runs returns the per-invocation stats in call order.
func (ex *Executor) Runs() []RunStats {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	out := make([]RunStats, len(ex.runs))
	copy(out, ex.runs)
	return out
}

// AnalyzeAll classifies every page of a crawl on the worker pool and
// returns results in page order. Evidence events are buffered per
// shard and merged into sink in page order afterwards, so the sink's
// contents are identical to a serial detect.AnalyzeAllEvents call.
// sink may be nil to disable provenance.
func (ex *Executor) AnalyzeAll(pages []*crawler.PageResult, sink event.Recorder, crawl string) []detect.SiteCanvases {
	n := len(pages)
	out := make([]detect.SiteCanvases, n)
	workers := ex.workers
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	shardSize := (n + workers*shardsPerWorker - 1) / (workers * shardsPerWorker)
	if shardSize < 1 {
		shardSize = 1
	}
	numShards := 0
	if n > 0 {
		numShards = (n + shardSize - 1) / shardSize
	}

	var sp *obs.Span
	if ex.tel != nil {
		label := crawl
		if label == "" {
			label = "unlabeled"
		}
		sp = ex.tel.Phases.Start("analyze."+label,
			"pages", fmt.Sprint(n), "workers", fmt.Sprint(workers), "shards", fmt.Sprint(numShards))
	}

	bufs := make([]event.Buffer, numShards)
	// batches collects one span tree per shard when exemplar capture is
	// on; workers fill their own slots, and the offers happen after the
	// pool drains, in shard order — the executor's commit point.
	var batches []*tracez.VisitTrace
	if ex.visits != nil {
		batches = make([]*tracez.VisitTrace, numShards)
	}
	condLabel := crawl
	if condLabel == "" {
		condLabel = "unlabeled"
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for si := range jobs {
				var rec event.Recorder
				if sink != nil {
					rec = &bufs[si]
				}
				lo := si * shardSize
				hi := lo + shardSize
				if hi > n {
					hi = n
				}
				var bb *tracez.Builder
				if batches != nil {
					bb = tracez.NewBatch("analyze."+condLabel, fmt.Sprintf("shard-%04d", si), si)
					bb.Root().SetLabel("pages", fmt.Sprint(hi-lo))
					bb.Root().SetLabel("range", fmt.Sprintf("%d-%d", lo, hi))
				}
				shardCanvases := 0
				for i := lo; i < hi; i++ {
					out[i] = detect.AnalyzePageMemo(pages[i], rec, crawl, ex.memo())
					shardCanvases += len(out[i].All)
				}
				if bb != nil {
					// Classified canvases are the shard's deterministic
					// cost measure (pages alone would make every shard
					// equal-cost).
					bb.Root().Cost = int64(shardCanvases)
					batches[si] = bb.Finish("ok")
				}
			}
		}()
	}
	for si := 0; si < numShards; si++ {
		jobs <- si
	}
	close(jobs)
	wg.Wait()

	// Deterministic merge: replay shard buffers in page order on the
	// calling goroutine. Seq is stamped here, inside the sink.
	if sink != nil {
		for si := range bufs {
			bufs[si].Drain(sink)
		}
	}
	for _, bt := range batches {
		if bt != nil {
			ex.visits.Offer(bt)
		}
	}

	canvases := 0
	for i := range out {
		canvases += len(out[i].All)
	}
	if ex.tel != nil {
		ex.tel.Metrics.Counter("analysis.pages").Add(int64(n))
		ex.tel.Metrics.Counter("analysis.canvases").Add(int64(canvases))
	}
	if sp != nil {
		sp.End()
	}
	if ex.tel != nil {
		ex.tel.Status.RecordAnalysis(crawl, n, canvases, numShards, workers)
	}

	ex.mu.Lock()
	ex.runs = append(ex.runs, RunStats{
		Crawl: crawl, Pages: n, Canvases: canvases, Shards: numShards, Workers: workers,
	})
	ex.mu.Unlock()
	return out
}

// memo adapts the possibly-nil *Cache to the detect.Memo interface
// without handing detect a typed-nil interface value.
func (ex *Executor) memo() detect.Memo {
	if ex.cache == nil {
		return nil
	}
	return ex.cache
}
