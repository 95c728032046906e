package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// buildDir holds everything a run writes, inside the checkout.
const buildDir = ".bench_build"

// run sets the workload up, measures it, and returns the result line.
func run(w *workload, seconds int, rc *runContext) (*result, error) {
	expected, err := loadExpected()
	if err != nil {
		return nil, err
	}
	leaves, keys, err := leafCount()
	if err != nil {
		return nil, err
	}
	n := w.requests(seconds)
	if rc.Trace {
		// A traced run makes two passes over the sequence, untraced and
		// traced, so each gets half the requests.
		n = (n + 1) / 2
	}
	paths, err := w.sequence(rc.Seed, n)
	if err != nil {
		return nil, err
	}
	rc.RequestsPerRun = len(paths)

	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	snapshot := ""
	if w.warm {
		// Building the snapshot is not part of setup_s; loading it is.
		snapshot = filepath.Join(dir, "store.json")
		if err := writeSnapshot(snapshot); err != nil {
			return nil, err
		}
	}

	lb := newLoopback()
	defer lb.close()
	f, boots, loads, err := w.setUp(lb, snapshot)
	if err != nil {
		return nil, err
	}
	defer f.close()
	chk := newChecker(w, leaves, keys, expected)
	if rc.Trace {
		return perLayer(w, f, chk, paths, snapshot, loads, rc)
	}
	p := runPass(f, chk, paths)
	rc.ServerStatus = lb.status()
	r := newReport(endToEndUnits)
	r.put("setup_s", median(boots), len(boots))
	r.put("latency_p50_ms", quantile(p.lat, 0.5), len(p.lat))
	r.put("latency_p90_ms", quantile(p.lat, 0.9), len(p.lat))
	r.put("results_per_s", float64(len(paths))/p.wall.Seconds(), len(paths))
	r.put("cpu_ms_per_result", ms(p.cpu)/float64(len(paths)), len(paths))
	r.put("peak_rss_mb", peakRSSMB(), 1)
	rc.Samples, rc.Failures = r.samples, p.reasons
	return &result{Correct: p.failed == 0, Attempted: len(paths), Failed: p.failed, Metrics: r.metrics}, nil
}

// endToEndUnits lists the --trace 0 metrics.
var endToEndUnits = [][2]string{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"results_per_s", "1/s"},
	{"cpu_ms_per_result", "ms"},
	{"peak_rss_mb", "MB"},
}

// report accumulates a run's metrics and their sample counts. Every
// metric of its unit table is present, reading 0 until put.
type report struct {
	metrics map[string]metric
	samples map[string]int
}

func newReport(units [][2]string) *report {
	r := &report{metrics: map[string]metric{}, samples: map[string]int{}}
	for _, u := range units {
		r.metrics[u[0]] = metric{Unit: u[1]}
		r.samples[u[0]] = 0
	}
	return r
}

func (r *report) put(name string, v float64, samples int) {
	m, ok := r.metrics[name]
	if !ok {
		panic("specbench: metric " + name + " is missing from its unit table")
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m.Value = v
	r.metrics[name] = m
	r.samples[name] = samples
}

// pass is one closed-loop run over a request sequence.
type pass struct {
	lat     []float64 // per-request latency, ms
	wall    time.Duration
	cpu     time.Duration
	mallocs uint64
	failed  int
	reasons []string       // the first few failures
	size    map[string]int // response bytes by path
}

// runPass sends paths one at a time, each once the previous response
// has been read in full, and checks every response. Warm workloads boot
// a fresh server before each request, outside its latency.
func runPass(f *fixture, chk *checker, paths []string) *pass {
	p := &pass{size: map[string]int{}}
	c0 := f.counts()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	start := time.Now()
	for _, path := range paths {
		if chk.w.warm {
			f.start()
		}
		// hot-cache reads no scheduler counter per request: its store
		// traffic must be zero, and the pass's computations are checked
		// below, which keeps the check off its sub-millisecond path.
		s0, j0 := f.st.Stats(), f.joins(chk.w)
		t0 := time.Now()
		code, body, err := f.lb.get(path)
		p.lat = append(p.lat, ms(time.Since(t0)))
		s1, j1 := f.st.Stats(), f.joins(chk.w)
		p.fail(path, chk.check(path, code, body, err, traffic{s1.Hits - s0.Hits, s1.Misses - s0.Misses, j1 - j0}))
		p.size[path] = len(body)
	}
	p.wall = time.Since(start)
	p.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	p.mallocs = m1.Mallocs - m0.Mallocs

	// Every cold or warm request computes its result once; every
	// hot-cache request is a result-cache hit and computes nothing.
	c := f.counts().minus(c0)
	want := counts{cacheMisses: float64(len(paths)), computations: float64(len(paths))}
	if chk.w.cached {
		want = counts{cacheHits: float64(len(paths))}
	}
	if c.cacheHits != want.cacheHits || c.cacheMisses != want.cacheMisses || c.computations != want.computations {
		p.fail("pass", fmt.Sprintf("result cache hits/misses/computations %v/%v/%v, want %v/%v/%v",
			c.cacheHits, c.cacheMisses, c.computations, want.cacheHits, want.cacheMisses, want.computations))
	}
	return p
}

// fail counts a failed operation, keeping the first few reasons; an
// empty msg is a success.
func (p *pass) fail(what, msg string) {
	if msg == "" {
		return
	}
	p.failed++
	if len(p.reasons) < 5 {
		p.reasons = append(p.reasons, what+": "+msg)
	}
}

// checker validates responses: the status, the engine and cached flags,
// the store hits and misses the request caused, and the SHA-256 of the
// result where expected.json lists the path. A body byte-identical to
// one already verified for the same path passes without decoding, which
// keeps the check cheap next to hot-cache's sub-millisecond requests.
type checker struct {
	w        *workload
	leaves   int64 // characterization leaves per request
	keys     int64 // distinct store keys among them
	expected map[string]string
	verified map[string][]byte
	hashes   map[string]string // result SHA-256 by path, as received
}

func newChecker(w *workload, leaves, keys int64, expected map[string]string) *checker {
	return &checker{w: w, leaves: leaves, keys: keys, expected: expected,
		verified: map[string][]byte{}, hashes: map[string]string{}}
}

// check returns "" for a correct response, else what was wrong.
func (c *checker) check(path string, code int, body []byte, err error, t traffic) string {
	if err != nil {
		return err.Error()
	}
	if code != http.StatusOK {
		return fmt.Sprintf("status %d: %.200s", code, body)
	}
	if misses, reused := c.w.wantTraffic(c.leaves, c.keys); t.misses != misses || t.hits+t.joins != reused {
		return fmt.Sprintf("store misses %d and hits+dedup joins %d+%d, want %d and %d in all",
			t.misses, t.hits, t.joins, misses, reused)
	}
	if ref, ok := c.verified[path]; ok {
		if !bytes.Equal(ref, body) {
			return "body differs from the verified response to the same request"
		}
		return ""
	}
	var r struct {
		Engine string          `json:"engine"`
		Cached bool            `json:"cached"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return "decoding: " + err.Error()
	}
	if r.Engine != c.w.engine || r.Cached != c.w.cached {
		return fmt.Sprintf("engine %q cached %v, want %q %v", r.Engine, r.Cached, c.w.engine, c.w.cached)
	}
	sum := sha256.Sum256(r.Result)
	got := hex.EncodeToString(sum[:])
	if want, ok := c.expected[path]; ok && got != want {
		return "result sha256 " + got + ", want " + want
	}
	c.verified[path] = body
	c.hashes[path] = got
	return ""
}
