package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// cpuTime is the CPU time this process has used, user plus system,
// over all its threads. The kernel leaves time a hypervisor steals
// from the virtual CPU out of it, which is what makes it the figure
// the end-to-end gate compares (see README.md).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuSince returns the CPU time used since start, a cpuTime reading.
func cpuSince(start time.Duration) time.Duration { return cpuTime() - start }

// percentile returns the p-th percentile (0 <= p <= 100) of xs by the
// nearest-rank rule. xs need not be sorted; it is not modified. An
// empty input yields NaN.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tailPercentiles are the candidates tailPercentile picks from, highest
// first.
var tailPercentiles = []float64{99.99, 99.9, 99, 95, 90, 75, 50}

// tailPercentile returns the highest percentile of n samples that still
// has at least minBeyond samples above it, as the choosing-metrics rule
// asks of a reported tail ("p99 of 300 samples" rests on three values
// and is not reported). ok is false when not even the median qualifies.
func tailPercentile(n, minBeyond int) (p float64, ok bool) {
	for _, p := range tailPercentiles {
		beyond := n - int(math.Ceil(p/100*float64(n)))
		if beyond >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// latencyFact renders n latency samples as the choosing-metrics rule
// asks: the median, the highest percentile with at least ten samples
// beyond it, and the sample count. q gives the p-th percentile in ms.
func latencyFact(n int, q func(p float64) float64) string {
	s := fmt.Sprintf("latency p50_ms=%.4f", q(50))
	if p, ok := tailPercentile(n, 10); ok && p > 50 {
		s += fmt.Sprintf(" p%g_ms=%.4f", p, q(p))
	}
	return s + fmt.Sprintf(" (n=%d)", n)
}

// rng is SplitMix64: small, seedable and identical on every platform,
// so a seed names the same request stream everywhere.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// weightedSampler draws keys with probability proportional to their
// weights — for the serve probe, a canvas hash in proportion to how many
// sites the canvas appears on, which reproduces the paper's §4.2 skew
// (a handful of canvases cover most sites).
type weightedSampler struct {
	keys []string
	cum  []uint64 // cum[i] = sum of weights[0..i]
	r    rng
}

// newWeightedSampler builds a sampler over keys; a non-positive
// weight drops its key. Equal seeds and inputs give equal draws.
func newWeightedSampler(keys []string, weights []int, seed uint64) *weightedSampler {
	ws := &weightedSampler{r: rng{s: seed}}
	var total uint64
	for i, k := range keys {
		if weights[i] <= 0 {
			continue
		}
		total += uint64(weights[i])
		ws.keys = append(ws.keys, k)
		ws.cum = append(ws.cum, total)
	}
	return ws
}

// next draws one key. It panics on an empty sampler.
func (ws *weightedSampler) next() string {
	total := ws.cum[len(ws.cum)-1]
	x := ws.r.next() % total
	i := sort.Search(len(ws.cum), func(i int) bool { return ws.cum[i] > x })
	return ws.keys[i]
}

// deterministicArtifacts are the bundle files that must be
// byte-identical across runs of one seed (trace.jsonl, metrics.json
// and telemetry.txt carry wall-clock values and are excluded).
var deterministicArtifacts = []string{"manifest.json", "events.jsonl", "report.txt", "metrics.deterministic.json"}

// digestFiles hashes the named files of dir, each framed by its name
// and length so that moving bytes between files changes the digest.
func digestFiles(dir string, names []string) (string, error) {
	h := sha256.New()
	for _, name := range names {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return "", fmt.Errorf("digest: %w", err)
		}
		fmt.Fprintf(h, "%s\x00%d\x00", name, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// dirBytes sums the sizes of the regular files directly in dir.
func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return n, nil
}
