package distrib

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"canvassing/internal/bundle"
)

// ExitInterrupted is the exit code a worker process uses to report a
// mid-unit stop (same convention as cmd/repro's -interrupt-after).
const ExitInterrupted = 3

// ErrHalted is what a Spawner returns when the run as a whole was told
// to stop (a study's StopAfter lever fired), as opposed to one worker
// dying. The coordinator releases the unit, dispatches nothing more,
// and returns ErrHalted; the run resumes from its directory.
var ErrHalted = errors.New("distrib: run halted")

// Spawner runs one attempt of a work-unit. Implementations: the root
// package's in-process runner (unit crawls share the study's generated
// web) and ProcessSpawner (each attempt is a spawned worker process
// that rebuilds the world from the unit spec).
type Spawner interface {
	// Run executes the unit in dir. stopAfter > 0 arms the checkpoint
	// interruption lever for chaos testing. interrupted reports a
	// mid-unit stop (the unit stays resumable), resumed that the attempt
	// picked up an existing checkpoint sidecar. An err wrapping
	// ErrHalted halts the whole run.
	Run(dir string, spec UnitSpec, stopAfter int) (interrupted, resumed bool, err error)
}

// UnitDir returns the directory of one unit under a distributed run's
// root.
func UnitDir(runDir, unitID string) string {
	return filepath.Join(runDir, "units", unitID)
}

// Coordinator drives a distributed run: it dispatches units to a fixed
// pool of worker slots, reassigns a failed or interrupted unit to the
// next free slot (where it resumes from its checkpoint sidecar), and
// keeps the ledger current throughout.
type Coordinator struct {
	// Dir is the run root; units live under Dir/units/<id>.
	Dir string
	// Units are the units to dispatch (see Partition); units the ledger
	// already holds as done are skipped.
	Units []UnitSpec
	// Spawn runs unit attempts.
	Spawn Spawner
	// Slots is the number of concurrent workers (<=0 selects 4).
	Slots int
	// MaxAttempts bounds attempts per unit (<=0 selects 3). A unit that
	// exhausts it aborts the run — a half-finished partial must never
	// slip into a merge.
	MaxAttempts int
	// Arm maps unit ID → checkpoint-writes-before-stop, armed on that
	// unit's FIRST attempt only — the chaos lever: the armed attempt
	// dies mid-unit and the reassigned attempt resumes it.
	Arm map[string]int
}

// Run dispatches every unit of c.Units not yet done in the ledger (see
// Plan and Reopen) and returns once each is done, or the run aborted
// or halted. The returned error is the first unit abort, or ErrHalted.
func (c *Coordinator) Run(ledger *Ledger) error {
	if c.Spawn == nil {
		return fmt.Errorf("distrib: coordinator without a spawner")
	}
	maxAttempts := c.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = 3
	}
	done := map[string]bool{}
	for _, r := range ledger.Records() {
		done[r.ID] = r.Status == UnitDone
	}
	byID := make(map[string]UnitSpec, len(c.Units))
	var order []string
	for _, u := range c.Units {
		if !done[u.ID] {
			byID[u.ID] = u
			order = append(order, u.ID)
		}
	}
	if len(order) == 0 {
		return nil
	}
	slots := c.Slots
	if slots <= 0 {
		slots = 4
	}
	if slots > len(order) {
		slots = len(order)
	}

	// Dispatch order is a seeded shuffle — scheduling must not matter,
	// and shuffling makes sure the oracle would catch it if it did. The
	// partition itself (the ranges) is never shuffled.
	rng := rand.New(rand.NewSource(int64(c.Units[0].Study.Seed)))
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })

	// Every unit is either queued or owned by exactly one slot, so a
	// requeue can never race the close: close fires only when all units
	// reached a terminal state, at which point no slot holds one.
	jobs := make(chan string, len(order)*maxAttempts)
	for _, id := range order {
		jobs <- id
	}
	var mu sync.Mutex
	remaining := len(order)
	var firstErr error
	var halted atomic.Bool
	finish := func(abort error) {
		mu.Lock()
		defer mu.Unlock()
		if abort != nil && firstErr == nil {
			firstErr = abort
		}
		remaining--
		if remaining == 0 {
			close(jobs)
		}
	}
	var wg sync.WaitGroup
	for k := 0; k < slots; k++ {
		wg.Add(1)
		go func(worker string) {
			defer wg.Done()
			for id := range jobs {
				if halted.Load() {
					finish(nil) // stays pending for the resumed run
					continue
				}
				spec := byID[id]
				attempt, err := ledger.Assign(id, worker)
				if err != nil {
					finish(err)
					continue
				}
				stopAfter := 0
				if attempt == 1 {
					stopAfter = c.Arm[id]
				}
				start := time.Now()
				interrupted, resumed, rerr := c.Spawn.Run(UnitDir(c.Dir, id), spec, stopAfter)
				wall := time.Since(start)
				if rerr == nil && !interrupted {
					if derr := ledger.Done(id, wall, resumed); derr != nil {
						finish(derr)
						continue
					}
					finish(nil)
					continue
				}
				note := "worker died mid-unit"
				if rerr != nil {
					note = rerr.Error()
				}
				if lerr := ledger.Release(id, note, wall); lerr != nil {
					finish(lerr)
					continue
				}
				if errors.Is(rerr, ErrHalted) {
					halted.Store(true)
					finish(nil)
					continue
				}
				if attempt >= maxAttempts {
					abortErr := fmt.Errorf("distrib: unit %s failed %d of %d attempts: %s", id, attempt, maxAttempts, note)
					if aerr := ledger.Abort(id, fmt.Sprintf("attempt budget (%d) exhausted", maxAttempts)); aerr != nil {
						abortErr = aerr
					}
					finish(abortErr)
					continue
				}
				jobs <- id // reassign: the next free slot resumes it
			}
		}(fmt.Sprintf("w%d", k))
	}
	wg.Wait()
	if firstErr == nil && halted.Load() {
		return ErrHalted
	}
	return firstErr
}

// ProcessSpawner runs each unit attempt as a spawned worker process —
// the local-process transport: no network, just the unit directory as
// the hand-off. The worker is expected to exit 0 on unit completion,
// ExitInterrupted on a mid-unit stop, and anything else on failure.
type ProcessSpawner struct {
	// Binary is the worker executable (e.g. a crawl binary with a
	// -distrib-unit mode).
	Binary string
	// Args are the flag arguments placed before the unit directory
	// (which is appended last, after any -interrupt-after flag).
	Args []string
	// Stderr receives worker stderr (nil discards it).
	Stderr io.Writer
}

// Run spawns one worker attempt and maps its exit code back to the
// Spawner contract.
func (p *ProcessSpawner) Run(dir string, spec UnitSpec, stopAfter int) (interrupted, resumed bool, err error) {
	// A sidecar on disk before the attempt means this attempt resumes.
	_, serr := os.Stat(filepath.Join(dir, bundle.CheckpointSidecar))
	resumed = serr == nil
	args := append([]string(nil), p.Args...)
	if stopAfter > 0 {
		args = append(args, "-interrupt-after", strconv.Itoa(stopAfter))
	}
	args = append(args, dir)
	cmd := exec.Command(p.Binary, args...)
	cmd.Stderr = p.Stderr
	runErr := cmd.Run()
	if runErr == nil {
		return false, resumed, nil
	}
	var ee *exec.ExitError
	if errors.As(runErr, &ee) && ee.ExitCode() == ExitInterrupted {
		return true, resumed, nil
	}
	return false, resumed, fmt.Errorf("distrib: worker %s: %w", filepath.Base(dir), runErr)
}
