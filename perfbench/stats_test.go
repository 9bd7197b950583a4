package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {10, 1}, {11, 2}, {50, 5}, {90, 9}, {99, 10}, {100, 10},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 5 || xs[5] != 10 {
		t.Errorf("percentile reordered its input: %v", xs)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n      int
		want   float64
		wantOK bool
	}{
		{100000, 99.99, true}, // 10 samples above p99.99
		{99999, 99.9, true},   // 9 above p99.99, 99 above p99.9
		{1000, 99, true},
		{999, 95, true},
		{200, 95, true},
		{20, 50, true},
		{19, 0, false},
	} {
		got, ok := tailPercentile(c.n, 10)
		if got != c.want || ok != c.wantOK {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.wantOK)
		}
	}
}

func draws(ws *weightedSampler, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = ws.next()
	}
	return out
}

func TestWeightedSamplerDeterministicPerSeed(t *testing.T) {
	keys := []string{"a", "b", "c", "d"}
	weights := []int{1, 0, 3, 6}
	a := draws(newWeightedSampler(keys, weights, 7), 500)
	b := draws(newWeightedSampler(keys, weights, 7), 500)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("equal seeds drew different streams")
	}
	if reflect.DeepEqual(a, draws(newWeightedSampler(keys, weights, 8), 500)) {
		t.Fatal("different seeds drew the same stream")
	}
}

func TestWeightedSamplerFollowsWeights(t *testing.T) {
	keys := []string{"a", "b", "c", "d"}
	weights := []int{1, 0, 3, 6}
	const n = 100000
	counts := map[string]int{}
	for _, k := range draws(newWeightedSampler(keys, weights, 1), n) {
		counts[k]++
	}
	if counts["b"] != 0 {
		t.Errorf("zero-weight key drawn %d times", counts["b"])
	}
	for i, k := range keys {
		want := float64(n) * float64(weights[i]) / 10
		if math.Abs(float64(counts[k])-want) > 0.03*n {
			t.Errorf("key %s drawn %d times, want about %.0f", k, counts[k], want)
		}
	}
}

func writeFiles(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestDigestFiles(t *testing.T) {
	names := []string{"a", "b"}
	digest := func(files map[string]string) string {
		t.Helper()
		d, err := digestFiles(writeFiles(t, files), names)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	base := digest(map[string]string{"a": "ab", "b": "c"})
	if again := digest(map[string]string{"a": "ab", "b": "c"}); again != base {
		t.Errorf("same bytes, different digests: %s, %s", base, again)
	}
	if moved := digest(map[string]string{"a": "a", "b": "bc"}); moved == base {
		t.Error("moving a byte between files kept the digest")
	}
	if changed := digest(map[string]string{"a": "ab", "b": "d"}); changed == base {
		t.Error("changing a byte kept the digest")
	}
	if extra := digest(map[string]string{"a": "ab", "b": "c", "z": "ignored"}); extra != base {
		t.Error("a file outside the named set changed the digest")
	}
	if _, err := digestFiles(writeFiles(t, map[string]string{"a": "ab"}), names); err == nil {
		t.Error("a missing artifact should fail the digest")
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the metric
// lists this program prints in step, and checks that the program runs
// exactly the gated workloads.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, workloads)
	}
	specs := func(in []struct{ Name, Unit string }) []metricSpec {
		var out []metricSpec
		for _, m := range in {
			out = append(out, metricSpec{m.Name, m.Unit})
		}
		return out
	}
	if got := specs(bj.EndToEnd); !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, program has %v", got, endToEnd)
	}
	if got := specs(bj.PerLayer); !reflect.DeepEqual(got, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, program has %v", got, perLayer)
	}
}

func TestTracerSelfTimeAndConcurrentUse(t *testing.T) {
	tr := newTracer()
	root := tr.open("root", 0)
	tr.time("child", root, func() { time.Sleep(20 * time.Millisecond) })
	tr.close(root)
	st := tr.selfTimes()
	if st["child"] < 20*time.Millisecond {
		t.Errorf("child self time %v, want >= 20ms", st["child"])
	}
	if st["root"] < 0 || st["root"] > st["child"] {
		t.Errorf("root self time %v should exclude its child's %v", st["root"], st["child"])
	}

	// Overlapping children cover their union, not the sum.
	par := tr.open("parallel", 0)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr.time("leg", par, func() { time.Sleep(20 * time.Millisecond) })
		}()
	}
	wg.Wait()
	tr.close(par)
	if self := tr.selfTimes()["parallel"]; self < 0 || self > 15*time.Millisecond {
		t.Errorf("parallel self time %v, want small and non-negative", self)
	}

	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.time("conn", root, func() {})
			}
		}()
	}
	wg.Wait()
	if got := len(tr.spans); got != 405 {
		t.Fatalf("recorded %d spans, want 405", got)
	}
	for _, s := range tr.spans {
		if s.EndNS < s.StartNS {
			t.Fatalf("span %d ends before it starts", s.ID)
		}
	}

	var untraced *tracer
	if d := untraced.time("x", 0, func() { time.Sleep(time.Millisecond) }); d < time.Millisecond {
		t.Errorf("a nil tracer must still time the call, got %v", d)
	}
}

func TestLatencyFactNamesTailAndCount(t *testing.T) {
	q := func(p float64) float64 { return p / 10 }
	if got, want := latencyFact(1000, q), "latency p50_ms=5.0000 p99_ms=9.9000 (n=1000)"; got != want {
		t.Errorf("latencyFact(1000) = %q, want %q", got, want)
	}
	if got, want := latencyFact(15, q), "latency p50_ms=5.0000 (n=15)"; got != want {
		t.Errorf("latencyFact(15) = %q, want %q", got, want)
	}
}

// TestCalibrationWorkIsFixed guards the scale of every gated CPU time:
// the calibration work must be the same on every run and every build.
func TestCalibrationWorkIsFixed(t *testing.T) {
	for i := 0; i < 2; i++ {
		if got := calibrationKernel(); got != calibrationSum {
			t.Fatalf("calibration kernel checksum %d, want %d", got, calibrationSum)
		}
	}
	if got := speedScale(0.5, 1.5); got != refCalibrationS {
		t.Errorf("speedScale(0.5, 1.5) = %v, want %v", got, refCalibrationS)
	}
	if speedScale(2, 2) >= speedScale(1, 1) {
		t.Error("a slower calibration must scale CPU times down")
	}
}

// TestCheckStudiesCountsMismatchedVisits checks the failure accounting:
// a study whose digest differs fails the run and counts all its visits
// as failed, in the result and in error_ratio; a counter mismatch fails
// the run as a behaviour change.
func TestCheckStudiesCountsMismatchedVisits(t *testing.T) {
	rep := func(digest string, steps int64) *studyReport {
		return &studyReport{Pages: 100, Failed: 10, Digest: digest, Counters: map[string]int64{"jsvm.steps": steps}}
	}
	var facts []string
	res := &result{Correct: true}
	if f := checkStudies(res, []*studyReport{rep("a", 1), rep("a", 1)}, &facts); !res.Correct || res.Failed != 0 || res.Attempted != 200 || f != 20 {
		t.Errorf("agreeing studies: correct=%v failed=%d attempted=%d failed visits=%d", res.Correct, res.Failed, res.Attempted, f)
	}
	res = &result{Correct: true}
	if f := checkStudies(res, []*studyReport{rep("a", 1), rep("b", 1)}, &facts); res.Correct || res.Failed != 100 || f != 110 {
		t.Errorf("digest mismatch: correct=%v failed=%d failed visits=%d, want false, 100, 110", res.Correct, res.Failed, f)
	}
	res = &result{Correct: true}
	facts = nil
	checkStudies(res, []*studyReport{rep("a", 1), rep("a", 2)}, &facts)
	if res.Correct || res.Failed != 0 || !slices.ContainsFunc(facts, func(f string) bool { return strings.HasPrefix(f, "BEHAVIOUR CHANGE:") }) {
		t.Errorf("counter mismatch: correct=%v failed=%d facts=%q", res.Correct, res.Failed, facts)
	}
}
