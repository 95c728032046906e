package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// serverConfigNote describes the server.Config every run uses; the
// effective values of the defaulted fields are in server_status.
const serverConfigNote = "server.Config{Store: the run's store, Log: info level to io.Discard}, " +
	"plus Tracer in the traced pass; every other field is zero and so defaulted " +
	"(SimWorkers = GOMAXPROCS). The zero Log would write an access line per request to stderr."

// discardLog formats the servers' access lines as usual but keeps them
// off stderr.
var discardLog = telemetry.NewLogger(io.Discard, telemetry.LevelInfo)

// loopback is the benchmark's client: one keep-alive connection to a
// loopback listener that hands every request to the handler of the
// server currently under test.
type loopback struct {
	target atomic.Pointer[http.Handler]
	ts     *httptest.Server
	client *http.Client
}

func newLoopback() *loopback {
	lb := &loopback{}
	lb.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*lb.target.Load()).ServeHTTP(w, r)
	}))
	lb.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}}
	return lb
}

// route points the listener at h.
func (lb *loopback) route(h http.Handler) { lb.target.Store(&h) }

// get sends one GET and reads the whole response body.
func (lb *loopback) get(path string) (int, []byte, error) {
	resp, err := lb.client.Get(lb.ts.URL + path)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// status returns the routed server's GET /v1/status body, or nil.
func (lb *loopback) status() json.RawMessage {
	code, body, err := lb.get("/v1/status")
	if err != nil || code != http.StatusOK {
		return nil
	}
	return body
}

func (lb *loopback) close() {
	lb.client.CloseIdleConnections()
	lb.ts.Close()
}

// fixture is a booted server, the store beneath it, and the counters of
// the servers it has already replaced.
type fixture struct {
	lb      *loopback
	st      *store.Store
	tracer  *telemetry.Tracer
	srv     *server.Server
	retired counts
}

// start constructs a fresh server over the fixture's store, routes the
// listener to it, and retires the previous one.
func (f *fixture) start() {
	if f.srv != nil {
		f.retired = f.retired.plus(readCounts(f.srv))
		f.srv.Close()
	}
	f.srv = server.New(server.Config{Store: f.st, Tracer: f.tracer, Log: discardLog})
	f.lb.route(f.srv.Handler())
}

func (f *fixture) close() { f.srv.Close() }

// joins reads the current server's scheduler dedup joins, or 0 for a
// workload served from the result cache, which schedules nothing.
func (f *fixture) joins(w *workload) int64 {
	if w.cached {
		return 0
	}
	return int64(f.srv.Metrics().Snapshot().Value("spec17_sched_dedup_hits_total"))
}

// counts sums the counters of every server the fixture has booted.
func (f *fixture) counts() counts { return f.retired.plus(readCounts(f.srv)) }

// counts are the server-side counters the traced pass reads from
// server.Metrics().Snapshot().
type counts struct {
	cacheHits, cacheMisses, computations, jobs, dedup float64
	queueWaitSum, queueWaitCount                      float64
}

func readCounts(s *server.Server) counts {
	snap := s.Metrics().Snapshot()
	c := counts{
		cacheHits:    snap.Value("spec17d_cache_hits_total"),
		cacheMisses:  snap.Value("spec17d_cache_misses_total"),
		computations: snap.Value("spec17d_computations_total"),
		jobs:         snap.Value("spec17_sched_jobs_started_total"),
		dedup:        snap.Value("spec17_sched_dedup_hits_total"),
	}
	if fam, ok := snap.Family("spec17_sched_queue_wait_seconds"); ok {
		for _, s := range fam.Series {
			c.queueWaitSum += s.Sum
			c.queueWaitCount += float64(s.Count)
		}
	}
	return c
}

func (c counts) plus(d counts) counts {
	return counts{c.cacheHits + d.cacheHits, c.cacheMisses + d.cacheMisses, c.computations + d.computations,
		c.jobs + d.jobs, c.dedup + d.dedup, c.queueWaitSum + d.queueWaitSum, c.queueWaitCount + d.queueWaitCount}
}

func (c counts) minus(d counts) counts {
	return c.plus(counts{-d.cacheHits, -d.cacheMisses, -d.computations, -d.jobs, -d.dedup, -d.queueWaitSum, -d.queueWaitCount})
}

// boot brings one server up to ready: open the store (loading the
// snapshot, if any), construct the server, and get 200 from its
// /v1/healthz; then fill the result cache over loopback with the
// workload's prime requests. It returns the time all that took and the
// store load's share of it.
func (w *workload) boot(lb *loopback, snapshot string, tr *telemetry.Tracer) (*fixture, time.Duration, time.Duration, error) {
	start := time.Now()
	st, err := store.Open(store.Config{Path: snapshot})
	if err != nil {
		return nil, 0, 0, err
	}
	load := time.Since(start)
	f := &fixture{lb: lb, st: st, tracer: tr}
	f.start()
	// Readiness is asked of the handler itself: over loopback the check
	// would mostly time the host's cross-CPU wakeups.
	rec := httptest.NewRecorder()
	f.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/healthz", nil))
	if rec.Code != http.StatusOK {
		f.close()
		return nil, 0, 0, fmt.Errorf("booting: GET /v1/healthz: status %d", rec.Code)
	}
	for _, path := range w.prime {
		if code, body, err := lb.get(path); err != nil || code != http.StatusOK {
			f.close()
			return nil, 0, 0, fmt.Errorf("booting: GET %s: status %d %.200s: %v", path, code, body, err)
		}
	}
	return f, time.Since(start), load, nil
}

// setUp boots the workload's server w.boots times and keeps the last.
// It returns every boot's time in seconds (setup_s is their median, so
// one slow boot on a noisy host does not move it) and every store
// load's in ms. A collection after each boot keeps one boot's garbage
// out of the next one's time and peak memory, and out of the pass.
func (w *workload) setUp(lb *loopback, snapshot string) (*fixture, []float64, []float64, error) {
	var f *fixture
	var boots, loads []float64
	for i := 0; i < w.boots; i++ {
		if f != nil {
			f.close()
		}
		next, total, load, err := w.boot(lb, snapshot, nil)
		if err != nil {
			return nil, nil, nil, err
		}
		f = next
		boots = append(boots, total.Seconds())
		loads = append(loads, ms(load))
		runtime.GC()
	}
	return f, boots, loads, nil
}

// writeSnapshot characterizes the fleet exactly at the warm fidelity,
// through the Lab path the server uses, and saves the store snapshot
// warm-analysis reloads.
func writeSnapshot(path string) error {
	st, err := store.Open(store.Config{Path: path})
	if err != nil {
		return err
	}
	opts := machine.RunOptions{Instructions: exactInstructions, WarmupInstructions: exactWarmup}
	lab := experiments.NewLabWithEngine(opts.Canonical(), st, sched.NewPool(0, nil).Queue(0), nil)
	if _, err := lab.Characterization(); err != nil {
		return fmt.Errorf("building the store snapshot: %w", err)
	}
	return st.Save()
}
