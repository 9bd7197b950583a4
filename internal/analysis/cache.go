package analysis

import (
	"sync"

	"canvassing/internal/detect"
	"canvassing/internal/obs"
	"canvassing/internal/stats"
)

// cacheShards bounds lock contention: keys are spread over independent
// mutexes by hash, so a wide executor rarely queues on one lock.
const cacheShards = 64

// Cache is a content-addressed, singleflight classification memo: one
// detect.Verdict per (canvas hash, animation flag). The first lookup
// of a key computes under its own entry (concurrent lookups of the
// same key block on the entry's ready channel instead of recomputing),
// so across the control/ABP/UBO/M1 re-analyses every distinct canvas
// payload is classified exactly once.
//
// The hit/miss counters are deterministic by construction regardless
// of goroutine scheduling: exactly one lookup per distinct key — the
// one that wins the map insert — counts as a miss, and every other
// lookup (whether it waited for the compute or found it finished)
// counts as a hit. Total misses therefore equal the number of
// distinct keys and total hits equal lookups minus distinct keys, for
// any worker width including 1.
type Cache struct {
	hits   *obs.Counter
	misses *obs.Counter
	shards [cacheShards]cacheShard
}

type cacheShard struct {
	mu sync.Mutex
	m  map[detect.MemoKey]*cacheEntry
}

type cacheEntry struct {
	ready chan struct{}
	v     detect.Verdict
}

// NewCache returns an empty cache. When reg is non-nil the counters
// are registered as "analysis.cache.hits"/"analysis.cache.misses";
// otherwise they stay private to the cache.
func NewCache(reg *obs.Registry) *Cache {
	c := &Cache{hits: &obs.Counter{}, misses: &obs.Counter{}}
	if reg != nil {
		c.hits = reg.Counter("analysis.cache.hits")
		c.misses = reg.Counter("analysis.cache.misses")
	}
	for i := range c.shards {
		c.shards[i].m = map[detect.MemoKey]*cacheEntry{}
	}
	return c
}

// GetOrCompute implements detect.Memo with singleflight semantics.
func (c *Cache) GetOrCompute(key detect.MemoKey, compute func() detect.Verdict) detect.Verdict {
	sh := &c.shards[shardOf(key)]
	sh.mu.Lock()
	e, ok := sh.m[key]
	if !ok {
		e = &cacheEntry{ready: make(chan struct{})}
		sh.m[key] = e
		sh.mu.Unlock()
		c.misses.Inc()
		e.v = compute()
		close(e.ready)
		return e.v
	}
	sh.mu.Unlock()
	c.hits.Inc()
	<-e.ready
	return e.v
}

// Seed inserts a precomputed verdict without moving the counters or
// running any compute — the verdict-service path, which rebuilds the
// memo from a bundle's detect.classify events instead of from
// payloads. Seeding a key that is already present is a no-op (the
// first verdict wins, matching GetOrCompute's singleflight answer).
func (c *Cache) Seed(key detect.MemoKey, v detect.Verdict) {
	sh := &c.shards[shardOf(key)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.m[key]; ok {
		return
	}
	e := &cacheEntry{ready: make(chan struct{}), v: v}
	close(e.ready)
	sh.m[key] = e
}

// Hits returns the number of lookups served from the cache.
func (c *Cache) Hits() int64 { return c.hits.Value() }

// Misses returns the number of lookups that computed (= distinct keys).
func (c *Cache) Misses() int64 { return c.misses.Value() }

// Len returns the number of cached verdicts.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.m)
		sh.mu.Unlock()
	}
	return n
}

// shardOf spreads keys over the shard mutexes.
func shardOf(key detect.MemoKey) uint64 {
	h := stats.HashString(key.Hash)
	if key.Anim {
		h = ^h
	}
	return h % cacheShards
}
