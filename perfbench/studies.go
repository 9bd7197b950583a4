package main

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// A study run studies a fixed set of webs, generated from seeds --seed
// to --seed+webs-1. One web's study cost varies by up to 20% with its
// seed (heavy audit pages land on different sites), so a run averages
// over several webs rather than repeating one. Every study runs in a
// fresh process. After the last web, the first web is studied once
// more: the repeat must reproduce its bundle digest and work counters,
// and its times join the first web's medians. The set is fixed so that
// every run of one seed does the same work, whatever the host's speed;
// at six webs a durable-study run takes about 45 s on a busy 2-core
// machine.
const webs = 6

// runStudyWorkload is the parent side of paper-study and durable-study.
// Untraced, it runs set-up probes, then one study per web, then the
// repeat, with a calibration before, between and after them
// (calibrate.go). cpu_s is the mean over the webs of each web's median
// scaled study CPU time; setup_s is the median scaled set-up time.
func runStudyWorkload(a args) (*result, error) {
	if a.trace {
		return runStudyTraced(a)
	}
	start := time.Now()
	var cals []float64
	calibrateOnce := func() error {
		c, err := calibrate()
		cals = append(cals, c)
		return err
	}
	if err := calibrateOnce(); err != nil {
		return nil, err
	}
	rawSetups, err := setupSamples(a)
	if err != nil {
		return nil, err
	}
	if err := calibrateOnce(); err != nil {
		return nil, err
	}
	var setups []float64
	for _, s := range rawSetups {
		setups = append(setups, s*speedScale(cals[0], cals[1]))
	}
	studies := make([][]*studyReport, webs)
	var rss []float64
	for _, w := range append(seq(webs), 0) {
		web := a
		web.seed = a.seed + uint64(w)
		rep, cr, err := studyProcess(web, false)
		if err != nil {
			return nil, err
		}
		if err := calibrateOnce(); err != nil {
			return nil, err
		}
		rep.scale = speedScale(cals[len(cals)-2], cals[len(cals)-1])
		studies[w] = append(studies[w], rep)
		rss = append(rss, cr.peakMB)
	}

	res := &result{Correct: true}
	var facts []string
	var wall, cpu, rawCPU, crawl float64
	var pages, failed int64
	for w, same := range studies {
		var studyS, studyCPU, scaledCPU, crawlS []float64
		for _, r := range same {
			studyS = append(studyS, r.StudyS)
			studyCPU = append(studyCPU, r.StudyCPU)
			scaledCPU = append(scaledCPU, r.StudyCPU*r.scale)
			crawlS = append(crawlS, r.CrawlS)
			setups = append(setups, r.SetupCPU*r.scale)
		}
		facts = append(facts, fmt.Sprintf("web seed %d: study_s=%s raw study_cpu_s=%s scaled=%s crawl_s=%s",
			a.seed+uint64(w), fmtList(studyS), fmtList(studyCPU), fmtList(scaledCPU), fmtList(crawlS)))
		f := checkStudies(res, same, &facts)
		wall += median(studyS) / webs
		cpu += median(scaledCPU) / webs
		rawCPU += median(studyCPU) / webs
		crawl += median(crawlS)
		pages += same[0].Pages
		failed += f
	}
	res.Metrics = endToEndMetrics(map[string]float64{
		"setup_s":     median(setups),
		"cpu_s":       cpu,
		"peak_rss_mb": median(rss),
	})
	shown := map[string]metric{
		"raw_cpu_s":         {rawCPU, "s"},
		"study_s":           {wall, "s"},
		"crawl_pages_per_s": {float64(pages) / crawl, "1/s"},
		"error_ratio":       {float64(failed) / float64(res.Attempted), "ratio"},
	}
	facts = append(facts,
		fmt.Sprintf("studies=%d over %d webs, setup_samples=%d, run took %.1f s of --seconds %d",
			len(rss), webs, len(setups), time.Since(start).Seconds(), a.seconds),
		fmt.Sprintf("calibration CPU s (reference %g): %s", refCalibrationS, fmtList(cals)),
		fmt.Sprintf("error_ratio counts %d failed of %d page visits: planted unreachable sites, injected faults, and every visit of a study whose digest differs",
			failed, res.Attempted))
	printTable(os.Stdout, res.Metrics, shown, facts)
	return res, nil
}

// seq returns 0, 1, ..., n-1.
func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// studyProcess runs one study in a fresh child process.
func studyProcess(a args, traced bool) (*studyReport, childRun, error) {
	work, err := newWorkDir("study")
	if err != nil {
		return nil, childRun{}, err
	}
	defer os.RemoveAll(work)
	var rep studyReport
	cr, err := runChildStep(a, "study", work, traced, &rep)
	if err != nil {
		return nil, cr, err
	}
	return &rep, cr, nil
}

// checkStudies compares studies of one web: every bundle digest and
// every exact work counter must agree with the first study's. A study
// whose digest differs counts all its visits as failed; a counter
// mismatch is reported as a behaviour change. Either makes the run
// incorrect. Every study's visits count as attempted. It returns the
// failed visits error_ratio counts: those of every study whose digest
// differs, and the planted failures of the others.
func checkStudies(res *result, reps []*studyReport, facts *[]string) (failedVisits int64) {
	ref := reps[0]
	for i, r := range reps {
		res.Attempted += r.Pages
		failedVisits += r.Failed
		if r.Digest != ref.Digest {
			res.Correct = false
			res.Failed += r.Pages
			failedVisits += r.Pages - r.Failed
			*facts = append(*facts, fmt.Sprintf("MISMATCH: repeat %d bundle digest %s, first study has %s", i, r.Digest, ref.Digest))
		}
		for _, k := range sortedKeys(ref.Counters) {
			if r.Counters[k] != ref.Counters[k] {
				res.Correct = false
				*facts = append(*facts, fmt.Sprintf("BEHAVIOUR CHANGE: repeat %d counter %s=%d, first study has %d", i, k, r.Counters[k], ref.Counters[k]))
			}
		}
	}
	*facts = append(*facts, "digest="+ref.Digest, "counters="+fmtCounters(ref.Counters))
	return failedVisits
}

// runStudyTraced is the --trace 1 run of a study workload.
func runStudyTraced(a args) (*result, error) {
	plain, _, err := studyProcess(a, false)
	if err != nil {
		return nil, err
	}
	traced, _, err := studyProcess(a, true)
	if err != nil {
		return nil, err
	}
	res := &result{Correct: true}
	var facts []string
	checkStudies(res, []*studyReport{plain, traced}, &facts)
	facts = append(facts, traced.Facts...)
	res.Metrics = layerMetrics(traced)
	addTraceOverhead(res.Metrics,
		[2]float64{plain.StudyS, traced.StudyS},
		[2]float64{plain.StudyCPU, traced.StudyCPU},
		[2]float64{float64(plain.Pages) / plain.CrawlS, float64(traced.Pages) / traced.CrawlS})
	printTable(os.Stdout, res.Metrics, nil, facts)
	return res, nil
}

// addTraceOverhead reports the figures of the untraced and the traced
// run side by side, each pair as {untraced, traced}; their difference
// is what tracing costs.
func addTraceOverhead(ms map[string]metric, wall, cpu, ops [2]float64) {
	for i, side := range []string{"untraced.", "traced."} {
		ms[side+"wall_s"] = metric{wall[i], "s"}
		ms[side+"cpu_s"] = metric{cpu[i], "s"}
		ms[side+"ops_per_s"] = metric{ops[i], "1/s"}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func fmtCounters(c map[string]int64) string {
	var parts []string
	for _, k := range sortedKeys(c) {
		parts = append(parts, fmt.Sprintf("%s=%d", k, c[k]))
	}
	return strings.Join(parts, ",")
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
