package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"runtime"
	"sync"
	"syscall"
	"time"

	"canvassing"
	"canvassing/internal/bundle"
	"canvassing/internal/obs/event"
	"canvassing/internal/serve"
)

// Load shape for this 2-core machine: one load-generating process with
// conns closed-loop connections, each sending its next request only
// after the previous reply, like callers that wait for a verdict.
const (
	conns     = 2
	batchSize = 64
	// serveProbeTime is the closed loop a traced run's serve-layer
	// probe drives.
	serveProbeTime = 3 * time.Second
	// requestTimeout bounds one request, so that a server that stops
	// answering fails the run instead of hanging it.
	requestTimeout = 30 * time.Second
)

// serveKeys are the request keys drawn from one bundle.
type serveKeys struct {
	hashes   []string // every classified canvas, sorted
	hashW    []int    // sites each canvas appears on
	clusters []string // canvases with a cluster, sorted
	clusterW []int
	sites    []string // every site with an event, sorted
	blocks   []string // block query strings (script URL on its page)
}

// loadKeys lists the bundle's canvases, clusters, sites and script
// URLs. Weights come from the serving index, so popular canvases are
// asked for as often as the paper's §4.2 skew says they are seen.
func loadKeys(b *bundle.Bundle, ix *serve.Index) (*serveKeys, error) {
	hs, ss := map[string]bool{}, map[string]bool{}
	for i := range b.Events {
		e := &b.Events[i]
		if e.Kind == event.DetectClassify {
			hs[e.Subject] = true
		}
		if e.Site != "" {
			ss[e.Site] = true
		}
	}
	k := &serveKeys{hashes: sortedKeys(hs), sites: sortedKeys(ss)}
	seenBlock := map[string]bool{}
	for _, h := range k.hashes {
		rec := ix.Canvas(h)
		if rec == nil {
			return nil, fmt.Errorf("serve keys: classified canvas %s missing from the index", h)
		}
		k.hashW = append(k.hashW, len(rec.Sites))
		if len(rec.ClusterSites) > 0 {
			k.clusters = append(k.clusters, h)
			k.clusterW = append(k.clusterW, len(rec.ClusterSites))
		}
		for _, u := range rec.ScriptURLs {
			if !seenBlock[u] && len(rec.Sites) > 0 {
				seenBlock[u] = true
				k.blocks = append(k.blocks, "url="+url.QueryEscape(u)+"&type=script&page="+url.QueryEscape(rec.Sites[0]))
			}
		}
	}
	if len(k.hashes) < batchSize || len(k.clusters) == 0 || len(k.sites) == 0 || len(k.blocks) == 0 {
		return nil, fmt.Errorf("serve keys: bundle too small (%d canvases, %d clusters, %d sites, %d scripts)",
			len(k.hashes), len(k.clusters), len(k.sites), len(k.blocks))
	}
	return k, nil
}

// serverReady is the server child's first line; serverDone its last.
type serverReady struct {
	URL string `json:"url"`
}

type serverDone struct {
	AllocBytes uint64 `json:"alloc_bytes"`
	Probes     uint64 `json:"probes"`
	Coalesced  uint64 `json:"coalesced"`
}

// childServe loads the bundle, listens on loopback and serves until its
// standard input closes, then reports the bytes it allocated while
// serving and the lookup batcher's counters.
func childServe(dir string, in io.Reader, out io.Writer) error {
	svc, err := serve.Load(serve.Config{Dir: dir, ListsFor: canvassing.ListsForSeed})
	if err != nil {
		return err
	}
	plane, err := svc.Start("127.0.0.1:0", false, 0)
	if err != nil {
		return err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	line, _ := json.Marshal(serverReady{URL: plane.URL()})
	fmt.Fprintln(out, string(line))
	if _, err := io.Copy(io.Discard, in); err != nil {
		return err
	}
	runtime.ReadMemStats(&m1)
	probes, coalesced := svc.Batcher().Counts()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = plane.Shutdown(ctx) // the process exits next; a slow close loses nothing
	line, _ = json.Marshal(serverDone{AllocBytes: m1.TotalAlloc - m0.TotalAlloc, Probes: probes, Coalesced: coalesced})
	fmt.Fprintln(out, string(line))
	return nil
}

// server is a running server child.
type server struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	out   *bufio.Scanner
	ready serverReady
}

// startServer starts a server child over dir and waits until it listens.
func startServer(dir string) (*server, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "--child", "serve", "--bundle", dir)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, stdin: stdin, out: bufio.NewScanner(stdout)}
	if !s.out.Scan() {
		stdin.Close()
		_ = cmd.Wait() // the start failure is the error worth reporting
		return nil, fmt.Errorf("server child exited before listening")
	}
	if err := json.Unmarshal(s.out.Bytes(), &s.ready); err != nil {
		stdin.Close()
		_ = cmd.Wait()
		return nil, fmt.Errorf("server child: %w", err)
	}
	return s, nil
}

// stop closes the child's input, waits for it to exit and returns its
// report.
func (s *server) stop() (serverDone, error) {
	s.stdin.Close()
	var done serverDone
	var last []byte
	for s.out.Scan() {
		last = append(last[:0], s.out.Bytes()...)
	}
	if err := s.cmd.Wait(); err != nil {
		return done, fmt.Errorf("server child: %w", err)
	}
	if err := json.Unmarshal(last, &done); err != nil {
		return done, fmt.Errorf("server child: %w", err)
	}
	return done, nil
}

// loadStats is what a stretch of load observed from the client side.
type loadStats struct {
	requests, lookups int64
	errors            int64 // transport errors and non-2xx replies
	wrong             int64 // 2xx replies with the wrong number of verdicts
	lat               []float64
	busyNS            float64 // summed request latency
}

func (l *loadStats) add(o loadStats) {
	l.requests += o.requests
	l.lookups += o.lookups
	l.errors += o.errors
	l.wrong += o.wrong
	l.lat = append(l.lat, o.lat...)
	l.busyNS += o.busyNS
}

// conn is one closed-loop connection: it sends its next request only
// after the previous reply. Its request stream is drawn from its own
// seeded generator, so a seed names the same stream on every run.
type conn struct {
	hc      *http.Client
	r       rng
	hs, cls *weightedSampler
	batch   []string
	tr      *tracer
	parent  int
	st      loadStats
	base    string
	keys    *serveKeys
}

// loadGen is the one load-generating process's set of connections to
// one server.
type loadGen struct{ cs []*conn }

// newLoadGen also limits this process to one scheduler thread: the
// connections spend most of their time waiting for replies, and with
// the default the load generator's idle threads spin on the core the
// server needs (measured on 2 cores: about 15% more lookups/s and a
// tighter spread across 1 s windows with the limit).
func newLoadGen(base string, k *serveKeys, seed uint64, tr *tracer) *loadGen {
	runtime.GOMAXPROCS(1)
	g := &loadGen{}
	for i := 0; i < conns; i++ {
		r := rng{s: seed*conns + uint64(i) + 1}
		g.cs = append(g.cs, &conn{
			hc: &http.Client{
				Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true},
				Timeout:   requestTimeout,
			},
			hs:    newWeightedSampler(k.hashes, k.hashW, r.next()),
			cls:   newWeightedSampler(k.clusters, k.clusterW, r.next()),
			r:     r,
			batch: make([]string, batchSize),
			tr:    tr, base: base, keys: k,
		})
	}
	return g
}

// do sends one request and checks the reply: 2xx, and for a batch one
// verdict per hash sent. lookups is the verdicts the request asks for.
func (c *conn) do(name, method, path string, body []byte, lookups, wantHashes int) {
	var req *http.Request
	var err error
	if body != nil {
		req, err = http.NewRequest(method, c.base+path, bytes.NewReader(body))
		if err == nil {
			req.Header.Set("Content-Type", "application/json")
		}
	} else {
		req, err = http.NewRequest(method, c.base+path, nil)
	}
	c.st.requests++
	if err != nil {
		c.st.errors++
		return
	}
	var reply []byte
	var status int
	d := c.tr.time(name, c.parent, func() {
		res, e := c.hc.Do(req)
		if e != nil {
			err = e
			return
		}
		reply, err = io.ReadAll(res.Body)
		res.Body.Close()
		status = res.StatusCode
	})
	c.st.lat = append(c.st.lat, float64(d.Nanoseconds())/1e6)
	c.st.busyNS += float64(d.Nanoseconds())
	switch {
	case err != nil || status < 200 || status > 299:
		c.st.errors++
	case wantHashes > 0 && bytes.Count(reply, []byte(`"hash": "`)) != wantHashes:
		c.st.wrong++
	default:
		c.st.lookups += int64(lookups)
	}
}

func batchBody(hashes []string) []byte {
	b, _ := json.Marshal(map[string][]string{"hashes": hashes})
	return b
}

// next sends the connection's next request of the mix: 3 in 8 a bulk
// batch of 64 hashes, and one each of single classify, cluster, site,
// block and stats. Hashes are drawn by site popularity, sites and
// scripts uniformly.
func (c *conn) next() {
	k := c.keys
	switch c.r.intn(8) {
	case 0, 1, 2:
		for j := range c.batch {
			c.batch[j] = c.hs.next()
		}
		c.do("serve.batch", "POST", "/v1/classify/batch", batchBody(c.batch), batchSize, batchSize)
	case 3:
		c.do("serve.classify", "POST", "/v1/classify", []byte(`{"hash":"`+c.hs.next()+`"}`), 1, 1)
	case 4:
		c.do("serve.cluster", "GET", "/v1/cluster/"+c.cls.next(), nil, 1, 0)
	case 5:
		c.do("serve.site", "GET", "/v1/site/"+k.sites[c.r.intn(len(k.sites))], nil, 1, 0)
	case 6:
		c.do("serve.block", "GET", "/v1/block?"+k.blocks[c.r.intn(len(k.blocks))], nil, 1, 0)
	default:
		c.do("serve.stats", "GET", "/v1/stats", nil, 1, 0)
	}
}

// mixed drives the mix on every connection at once for dur, under one
// span, and returns what the connections observed.
func (g *loadGen) mixed(dur time.Duration, parent int) loadStats {
	tr := g.cs[0].tr
	root := tr.open("serve.mixed", parent)
	deadline := time.Now().Add(dur)
	var wg sync.WaitGroup
	for _, c := range g.cs {
		c.st, c.parent = loadStats{}, root
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				c.next()
			}
		}(c)
	}
	wg.Wait()
	tr.close(root)
	var st loadStats
	for _, c := range g.cs {
		st.add(c.st)
	}
	return st
}

// serveLayers measures the serve layers over a bundle: load and index
// build, index lookups called directly, then a closed loop against a
// server child, from which the HTTP share of request time, the batcher's
// coalescing and the server's allocation per lookup follow. The fact it
// returns gives the loop's request latency with its sample count.
func serveLayers(dir string, seed uint64, dur time.Duration, tr *tracer, parent int) (map[string]float64, string, error) {
	L := map[string]float64{}
	var b *bundle.Bundle
	var err error
	L["bundle.load_s"] = tr.time("bundle.load", parent, func() { b, err = bundle.Load(dir) }).Seconds()
	if err != nil {
		return nil, "", err
	}
	var ix *serve.Index
	L["serve.index_build_s"] = tr.time("serve.index_build", parent, func() { ix = serve.BuildIndex(b, 0) }).Seconds()
	k, err := loadKeys(b, ix)
	if err != nil {
		return nil, "", err
	}
	var perLookup []float64
	for pass := 0; pass < layerPasses; pass++ {
		found := 0
		d := tr.time("serve.lookup_direct", parent, func() {
			for _, h := range k.hashes {
				if ix.Canvas(h) != nil {
					found++
				}
			}
			for _, s := range k.sites {
				if ix.Site(s) != nil {
					found++
				}
			}
		})
		if found != len(k.hashes)+len(k.sites) {
			return nil, "", fmt.Errorf("serve index answered %d of %d keys", found, len(k.hashes)+len(k.sites))
		}
		perLookup = append(perLookup, float64(d.Nanoseconds())/float64(len(k.hashes)+len(k.sites)))
	}
	L["serve.lookup_direct_ns"] = median(perLookup)

	srv, err := startServer(dir)
	if err != nil {
		return nil, "", err
	}
	st := newLoadGen(srv.ready.URL, k, seed, tr).mixed(dur, parent)
	done, err := srv.stop()
	if err != nil {
		return nil, "", err
	}
	if st.errors+st.wrong > 0 {
		return nil, "", fmt.Errorf("serve probe: %d errors, %d wrong replies of %d requests", st.errors, st.wrong, st.requests)
	}
	// The share of client-observed request time not spent in the index
	// lookups the requests asked for.
	L["serve.http_share"] = 1 - median(perLookup)*float64(st.lookups)/st.busyNS
	L["serve.batcher_coalesce_ratio"] = float64(done.Coalesced) / float64(done.Probes+done.Coalesced)
	L["serve.alloc_bytes_per_lookup"] = float64(done.AllocBytes) / float64(st.lookups)
	L["serve.lookups_per_s"] = float64(st.lookups) / dur.Seconds()
	L["serve.p50_ms"] = percentile(st.lat, 50)
	L["serve.p99_ms"] = percentile(st.lat, 99)
	L["serve.latency_samples"] = float64(len(st.lat))
	return L, "serve probe " + latencyFact(len(st.lat), func(p float64) float64 { return percentile(st.lat, p) }), nil
}
