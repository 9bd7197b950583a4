package analysis

import (
	"testing"

	"canvassing/internal/detect"
)

// TestCacheSeed pins Seed's contract: seeded verdicts answer lookups
// without compute, move no counters, and lose ties to whatever entry
// is already present (matching GetOrCompute's singleflight answer).
func TestCacheSeed(t *testing.T) {
	c := NewCache(nil)
	key := detect.MemoKey{Hash: "h1", Anim: false}
	want := detect.Verdict{Fingerprintable: true, W: 240, H: 60, Format: "image/png"}
	c.Seed(key, want)
	if c.Hits() != 0 || c.Misses() != 0 {
		t.Fatalf("Seed moved counters: hits=%d misses=%d", c.Hits(), c.Misses())
	}
	got := c.GetOrCompute(key, func() detect.Verdict {
		t.Fatal("seeded key must not compute")
		return detect.Verdict{}
	})
	if got != want {
		t.Fatalf("got %+v, want %+v", got, want)
	}
	// The lookup of the seeded key counts as a hit, like any cached key.
	if c.Hits() != 1 || c.Misses() != 0 {
		t.Fatalf("lookup counters: hits=%d misses=%d", c.Hits(), c.Misses())
	}
	// Seeding an existing key is a no-op: first verdict wins.
	c.Seed(key, detect.Verdict{})
	if got := c.GetOrCompute(key, func() detect.Verdict { return detect.Verdict{} }); got != want {
		t.Fatalf("re-seed overwrote: %+v", got)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
	// Seeding after a computed entry also loses the tie.
	key2 := detect.MemoKey{Hash: "h2", Anim: true}
	computed := detect.Verdict{Exclude: detect.AnimationScript}
	c.GetOrCompute(key2, func() detect.Verdict { return computed })
	c.Seed(key2, want)
	if got := c.GetOrCompute(key2, func() detect.Verdict { return detect.Verdict{} }); got != computed {
		t.Fatalf("Seed overwrote computed entry: %+v", got)
	}
}
