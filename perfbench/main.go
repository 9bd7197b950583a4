// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload at a given seed and prints, as the last line of
// standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end metrics of
// BENCHMARK.json; with --trace 1 they are the per-layer metrics. Every
// study runs in a fresh process, so process-global caches and the GC
// start cold as they do for a user running cmd/repro. Run it from the
// repository root through run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload paper-study --seed 11 --seconds 45 --trace 0
//
// README.md in this directory describes every workload and metric.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"canvassing"
)

// workloads are the workloads the program runs, as BENCHMARK.json
// lists them.
var workloads = []string{"paper-study", "durable-study"}

// Every file a run writes stays under the checkout's build directory,
// which .gitignore names: scratch bundles and checkpoints in workRoot
// (removed as each step ends), traced runs' spans in traceRoot.
const (
	workRoot  = ".bench_build/work"
	traceRoot = ".bench_build/trace"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line. Its keys are fixed by BENCHMARK.json's
// contract.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type args struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	child    string
	work     string
	bundle   string
}

func main() {
	var a args
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&a.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	fs.Uint64Var(&a.seed, "seed", 11, "workload seed")
	fs.IntVar(&a.seconds, "seconds", 30, "measurement time per run, in seconds")
	fs.IntVar(&trace, "trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end ones")
	fs.StringVar(&a.child, "child", "", "internal: run one child step (setup, study, serve)")
	fs.StringVar(&a.work, "work", "", "internal: child work directory")
	fs.StringVar(&a.bundle, "bundle", "", "internal: bundle directory a serve child loads")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	a.trace = trace == 1
	if a.child != "" {
		if err := runChild(a); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			os.Exit(1)
		}
		return
	}
	known := false
	for _, w := range workloads {
		known = known || w == a.workload
	}
	if !known || a.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloads, ", "))
		os.Exit(2)
	}
	if _, err := os.Stat("go.mod"); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: run from the repository root")
		os.Exit(2)
	}
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%d trace=%d nproc=%d gomaxprocs=%d go=%s commit=%s\n",
		a.workload, a.seed, a.seconds, trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit())
	res, err := runStudyWorkload(a)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// commit names the source revision the binary was built from, when the
// build could see it.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "+dirty"
		}
	}
	return rev + dirty
}

// childRun is one finished child process.
type childRun struct {
	peakMB float64 // the child's peak resident set
	wall   time.Duration
}

// newWorkDir makes a fresh directory under workRoot.
func newWorkDir(tag string) (string, error) {
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(workRoot, tag+"-")
}

// childCmd builds the command for one child step of this binary.
func childCmd(a args, step, work string, traced bool) (*exec.Cmd, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "--child", step, "--workload", a.workload, "--seed", fmt.Sprint(a.seed),
		"--trace", trace, "--work", work)
	cmd.Stderr = os.Stderr
	// A child must not outlive a benchmark that is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd, nil
}

// runChildStep runs one child step to completion and decodes its last
// stdout line into v.
func runChildStep(a args, step, work string, traced bool, v any) (childRun, error) {
	cmd, err := childCmd(a, step, work, traced)
	if err != nil {
		return childRun{}, err
	}
	var out bytes.Buffer
	cmd.Stdout = &out
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return childRun{}, fmt.Errorf("child %s: %w", step, err)
	}
	cr := childRun{peakMB: peakMB(cmd.ProcessState), wall: time.Since(start)}
	line := lastLine(out.Bytes())
	if err := json.Unmarshal(line, v); err != nil {
		return cr, fmt.Errorf("child %s: decode %q: %w", step, line, err)
	}
	return cr, nil
}

func lastLine(b []byte) []byte {
	lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
	return lines[len(lines)-1]
}

// peakMB reads a finished child's peak resident set from wait4's
// rusage (Maxrss is in KiB on Linux).
func peakMB(ps *os.ProcessState) float64 {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

// runChild dispatches a child step; its result is its last stdout line.
func runChild(a args) error {
	var v any
	var err error
	switch a.child {
	case "setup":
		c := cpuTime()
		_ = canvassing.New(studyOptions(a.workload, a.seed, a.work))
		v = &setupReport{SetupCPU: cpuSince(c).Seconds()}
	case "study":
		v, err = runStudy(a.workload, a.seed, a.work, a.trace)
	case "serve":
		return childServe(a.bundle, os.Stdin, os.Stdout)
	default:
		return fmt.Errorf("unknown child step %q", a.child)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// setupReport is a set-up-only child's answer: the set-up's CPU time.
type setupReport struct {
	SetupCPU float64 `json:"setup_cpu_s"`
}

// setupProbes is how many set-up-only processes a run starts beside
// the set-ups its main processes time, so that setup_s is a median of
// several cold starts.
const setupProbes = 5

// setupSamples runs the set-up-only probes, each measuring one cold
// canvassing.New (web and list generation).
func setupSamples(a args) ([]float64, error) {
	var out []float64
	for i := 0; i < setupProbes; i++ {
		work, err := newWorkDir("setup")
		if err != nil {
			return nil, err
		}
		var rep setupReport
		_, err = runChildStep(a, "setup", work, false, &rep)
		os.RemoveAll(work)
		if err != nil {
			return nil, err
		}
		out = append(out, rep.SetupCPU)
	}
	return out, nil
}

// printTable writes the human-readable lines that precede the JSON
// line: every gated metric with its unit, then the wall-clock and
// error figures under their everyday names (printed, not gated), then
// the facts a reader needs to trust them.
func printTable(w io.Writer, ms, shown map[string]metric, facts []string) {
	for _, n := range sortedKeys(ms) {
		fmt.Fprintf(w, "perfbench: %-36s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
	for _, n := range sortedKeys(shown) {
		fmt.Fprintf(w, "perfbench: %-36s %14.6g %s (not gated)\n", n, shown[n].Value, shown[n].Unit)
	}
	for _, f := range facts {
		fmt.Fprintf(w, "perfbench: %s\n", f)
	}
}
