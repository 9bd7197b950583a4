package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// traced run share the file they are written to; Parent 0 is the root.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps a traced run's spans in memory until write. A nil
// tracer records nothing but still times the calls it wraps, so the
// untraced path runs the same code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open starts a span and returns its id (0 on a nil tracer).
func (t *tracer) open(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, StartNS: now})
	return len(t.spans)
}

// close ends span id.
func (t *tracer) close(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNS = now
	t.mu.Unlock()
}

// time runs fn inside a span and returns its duration.
func (t *tracer) time(name string, parent int, fn func()) time.Duration {
	id := t.open(name, parent)
	start := time.Now()
	fn()
	d := time.Since(start)
	t.close(id)
	return d
}

// selfTimes sums each span name's self time: its duration minus the
// part of it that its child spans cover. Children may overlap (the
// load generator's connections run side by side), so the covered part
// is the union of their intervals.
func (t *tracer) selfTimes() map[string]time.Duration {
	children := map[int][]span{}
	for _, s := range t.spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		var covered, end int64
		for _, k := range kids {
			start := max(k.StartNS, end)
			if k.EndNS > start {
				covered += k.EndNS - start
				end = k.EndNS
			}
		}
		out[s.Name] += time.Duration(s.EndNS - s.StartNS - covered)
	}
	return out
}

// selfTimeFacts renders the largest self times, for the table lines.
func (t *tracer) selfTimeFacts(n int) []string {
	st := t.selfTimes()
	names := sortedKeys(st)
	sort.SliceStable(names, func(i, j int) bool { return st[names[i]] > st[names[j]] })
	if len(names) > n {
		names = names[:n]
	}
	out := make([]string, len(names))
	for i, name := range names {
		out[i] = fmt.Sprintf("self time %-24s %10.4f s", name, st[name].Seconds())
	}
	return out
}

// write dumps the spans as JSON lines to path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
