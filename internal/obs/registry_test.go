package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("visits")
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters are monotonic
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("visits") != c {
		t.Fatal("same name must return same counter")
	}
	g := r.Gauge("workers")
	g.Set(8)
	g.Add(-2)
	if got := g.Value(); got != 6 {
		t.Fatalf("gauge = %d, want 6", got)
	}
}

func TestHistogramBucketsAndStats(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1.5, 1.5, 3, 100} {
		h.Observe(v)
	}
	s := r.Snapshot().Histograms["lat"]
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5", s.Count)
	}
	if s.Min != 0.5 || s.Max != 100 {
		t.Fatalf("min/max = %v/%v, want 0.5/100", s.Min, s.Max)
	}
	if got := s.Sum; math.Abs(got-106.5) > 1e-9 {
		t.Fatalf("sum = %v, want 106.5", got)
	}
	wantCounts := []int64{1, 2, 1, 1} // ≤1, ≤2, ≤4, overflow
	for i, b := range s.Buckets {
		if b.Count != wantCounts[i] {
			t.Fatalf("bucket %d count = %d, want %d", i, b.Count, wantCounts[i])
		}
	}
	if !math.IsInf(s.Buckets[3].UpperBound, 1) {
		t.Fatal("last bucket must be the overflow bucket")
	}
	if mean := s.Mean(); math.Abs(mean-21.3) > 1e-9 {
		t.Fatalf("mean = %v, want 21.3", mean)
	}
	// p50 lands in the (1,2] bucket: 2 of 5 ranks in, interpolated.
	if q := s.Quantile(0.5); q < 1 || q > 2 {
		t.Fatalf("p50 = %v, want within (1,2]", q)
	}
	// p99 lands in the overflow bucket and floors at its lower bound.
	if q := s.Quantile(0.99); q != 4 {
		t.Fatalf("p99 = %v, want overflow floor 4", q)
	}
}

func TestQuantileEmpty(t *testing.T) {
	var s HistogramSnapshot
	if s.Quantile(0.5) != 0 || s.Mean() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
}

// TestConcurrentExactness hammers counters, gauges, histograms, and
// spans from many goroutines and verifies snapshot totals are exact —
// no lost increments. Run under -race.
func TestConcurrentExactness(t *testing.T) {
	const goroutines = 16
	const perG = 10_000
	r := NewRegistry()
	phases := NewPhases()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				// Metric handles are fetched inside the loop on purpose:
				// get-or-create must also be contention-safe.
				r.Counter("hits").Inc()
				r.Gauge("depth").Add(1)
				r.Histogram("lat", []float64{0.25, 0.5, 0.75}).Observe(float64(i%100) / 100)
				if i%1000 == 0 {
					sp := phases.Start("work")
					sp.StartChild("inner").End()
					sp.End()
				}
			}
		}(g)
	}
	wg.Wait()
	s := r.Snapshot()
	const want = goroutines * perG
	if got := s.Counters["hits"]; got != want {
		t.Fatalf("counter lost increments: %d, want %d", got, want)
	}
	if got := s.Gauges["depth"]; got != want {
		t.Fatalf("gauge lost adds: %d, want %d", got, want)
	}
	h := s.Histograms["lat"]
	if h.Count != want {
		t.Fatalf("histogram lost observations: %d, want %d", h.Count, want)
	}
	var bucketSum int64
	for _, b := range h.Buckets {
		bucketSum += b.Count
	}
	if bucketSum != want {
		t.Fatalf("bucket counts sum to %d, want %d", bucketSum, want)
	}
	wantRoots := goroutines * (perG / 1000)
	forest := phases.Forest()
	if len(forest) != wantRoots {
		t.Fatalf("spans lost: %d roots, want %d", len(forest), wantRoots)
	}
	for _, r := range forest {
		if len(r.Children) != 1 {
			t.Fatalf("child spans lost: %+v", r)
		}
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Add(3)
	r.Gauge("b").Set(-7)
	r.Histogram("h", LatencyBuckets()).Observe(0.01)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if back.Counters["a"] != 3 || back.Gauges["b"] != -7 {
		t.Fatal("scalar values lost in round trip")
	}
	h := back.Histograms["h"]
	if h.Count != 1 {
		t.Fatalf("histogram count = %d, want 1", h.Count)
	}
	if !math.IsInf(h.Buckets[len(h.Buckets)-1].UpperBound, 1) {
		t.Fatal("overflow bound must survive the round trip as +Inf")
	}
}

func TestRenderText(t *testing.T) {
	r := NewRegistry()
	r.Counter("crawl.visits").Add(42)
	r.Histogram("crawl.visit.latency", LatencyBuckets()).ObserveDuration(30 * time.Millisecond)
	text := r.RenderText()
	if !strings.Contains(text, "crawl.visits") || !strings.Contains(text, "42") {
		t.Fatalf("counter missing from render:\n%s", text)
	}
	if !strings.Contains(text, "crawl.visit.latency") || !strings.Contains(text, "n=1") {
		t.Fatalf("histogram missing from render:\n%s", text)
	}
}

func TestDefaultBucketShapes(t *testing.T) {
	for _, bounds := range [][]float64{LatencyBuckets(), StepBuckets(), RatioBuckets()} {
		if len(bounds) < 4 {
			t.Fatalf("bucket helper too coarse: %v", bounds)
		}
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= bounds[i-1] {
				t.Fatalf("bounds not increasing: %v", bounds)
			}
		}
	}
}

// TestQuantileEdgeCases pins the Quantile corner behavior the
// telemetry report tables depend on: empty histograms and degenerate
// q values answer 0 (never NaN), q is clamped to 1, a rank landing
// exactly on a bucket boundary reports that bucket's upper bound
// without overshooting into the next bucket, and the overflow bucket
// floors at its lower bound.
func TestQuantileEdgeCases(t *testing.T) {
	var empty HistogramSnapshot
	for _, q := range []float64{-1, 0, 0.5, 1, 2, math.NaN()} {
		if got := empty.Quantile(q); got != 0 {
			t.Fatalf("empty.Quantile(%v) = %v, want 0", q, got)
		}
	}

	r := NewRegistry()
	h := r.Histogram("edge", []float64{1, 2, 4})
	// Four observations in (0,1], four in (1,2], none beyond.
	for i := 0; i < 4; i++ {
		h.Observe(0.5)
		h.Observe(1.5)
	}
	s := r.Snapshot().Histograms["edge"]

	// q = 0.5 → rank 4, exactly the (0,1] bucket's cumulative count:
	// the answer is that bucket's upper bound, not a value from the
	// next bucket.
	if got := s.Quantile(0.5); got != 1 {
		t.Fatalf("boundary quantile = %v, want exactly 1", got)
	}
	// Values must never exceed the largest populated bound.
	for _, q := range []float64{0.75, 0.999, 1} {
		if got := s.Quantile(q); got > 2 {
			t.Fatalf("Quantile(%v) = %v overshoots the populated range (max bound 2)", q, got)
		}
	}
	// NaN and negative q on a populated histogram still answer 0.
	if got := s.Quantile(math.NaN()); got != 0 {
		t.Fatalf("Quantile(NaN) = %v, want 0", got)
	}
	if got := s.Quantile(-0.5); got != 0 {
		t.Fatalf("Quantile(-0.5) = %v, want 0", got)
	}
	// q > 1 clamps to 1 rather than running past the last rank.
	if got, want := s.Quantile(5), s.Quantile(1); got != want {
		t.Fatalf("Quantile(5) = %v, want the q=1 answer %v", got, want)
	}
}

// TestRegistryRestore pins the checkpoint contract: Snapshot →
// Restore into a fresh registry → Snapshot must be a fixed point, and
// continued observation after Restore behaves as if the registry had
// never been serialized.
func TestRegistryRestore(t *testing.T) {
	src := NewRegistry()
	src.Counter("visits").Add(42)
	src.Gauge("workers").Set(8)
	h := src.Histogram("lat", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1.5, 3, 100} {
		h.Observe(v)
	}
	src.Histogram("never", []float64{1}) // registered, zero observations
	snap := src.Snapshot()

	dst := NewRegistry()
	dst.Restore(snap)
	got, err := json.Marshal(dst.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("restore is not a fixed point\n got: %s\nwant: %s", got, want)
	}

	// Observing after restore continues the original stream: min/max
	// fold against the restored extremes, counts accumulate.
	dst.Histogram("lat", []float64{1, 2, 4}).Observe(0.25)
	src.Histogram("lat", []float64{1, 2, 4}).Observe(0.25)
	a := dst.Snapshot().Histograms["lat"]
	b := src.Snapshot().Histograms["lat"]
	if a.Count != b.Count || a.Min != b.Min || a.Max != b.Max || a.Sum != b.Sum {
		t.Fatalf("post-restore observation diverged: %+v vs %+v", a, b)
	}
	// The never-observed histogram restored with clean extremes.
	dst.Histogram("never", []float64{1}).Observe(0.5)
	if s := dst.Snapshot().Histograms["never"]; s.Min != 0.5 || s.Max != 0.5 {
		t.Fatalf("restored empty histogram has polluted extremes: %+v", s)
	}
}
