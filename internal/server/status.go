package server

import (
	"fmt"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"

	"repro/internal/admission"
	"repro/internal/engine"
	"repro/internal/telemetry"
)

// handleLiveness is GET /v1/healthz: 200 while the server accepts
// work, 503 once draining — so load balancers stop routing to an
// instance the moment its shutdown begins, before the listener closes.
func (s *Server) handleLiveness(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, struct {
			Status string `json:"status"`
		}{"draining"})
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Status string `json:"status"`
	}{"ok"})
}

// statusResponse is the GET /v1/status body: one point-in-time
// snapshot of everything an operator asks first — what build is this,
// how long has it been up, is the store warm, is the scheduler backed
// up, is the cache earning its keep.
type statusResponse struct {
	GoVersion     string  `json:"go_version"`
	Revision      string  `json:"revision,omitempty"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Draining      bool    `json:"draining"`

	Store     *storeStatus       `json:"store,omitempty"`
	Sched     schedStatus        `json:"sched"`
	Cache     cacheStatus        `json:"cache"`
	Engine    engineStatus       `json:"engine"`
	Trace     traceStatus        `json:"tracing"`
	Admission admission.Snapshot `json:"admission"`
}

type storeStatus struct {
	Path     string  `json:"path,omitempty"`
	Entries  int64   `json:"entries"`
	Bytes    int64   `json:"bytes"`
	Evicted  int64   `json:"evicted"`
	Dirty    bool    `json:"dirty"`
	Hits     int64   `json:"hits"`
	Misses   int64   `json:"misses"`
	HitRatio float64 `json:"hit_ratio"`
}

type schedStatus struct {
	Workers  int   `json:"workers"`
	Depth    int   `json:"queue_depth"`
	Inflight int   `json:"inflight"`
	Started  int64 `json:"started"`
}

type cacheStatus struct {
	ResultEntries int     `json:"result_entries"`
	Labs          int     `json:"labs"`
	Hits          int64   `json:"hits"`
	Misses        int64   `json:"misses"`
	HitRatio      float64 `json:"hit_ratio"`
	Coalesced     int64   `json:"coalesced"`
	Computations  int64   `json:"computations"`
}

// engineStatus reports the measurement-engine configuration and the
// background exact-upgrade pipeline's health.
type engineStatus struct {
	Default string `json:"default"`
	// UpgradeWorkers is the background lane's computation slots;
	// UpgradeDepth and UpgradePending both count the upgrades waiting
	// for or holding one.
	UpgradeWorkers int   `json:"upgrade_workers"`
	UpgradeDepth   int   `json:"upgrade_queue_depth"`
	UpgradePending int   `json:"upgrade_pending"`
	Queued         int64 `json:"upgrades_queued"`
	Done           int64 `json:"upgrades_done"`
	Failed         int64 `json:"upgrades_failed,omitempty"`
	Dropped        int64 `json:"upgrades_dropped,omitempty"`
	ServedExact    int64 `json:"served_exact"`
	ServedAnalytic int64 `json:"served_analytic"`
}

type traceStatus struct {
	Enabled  bool   `json:"enabled"`
	Capacity int    `json:"capacity,omitempty"`
	Buffered int    `json:"buffered,omitempty"`
	Finished uint64 `json:"finished,omitempty"`
	SlowMS   int64  `json:"slow_threshold_ms,omitempty"`
}

// ratio returns hits/(hits+misses), 0 when nothing has been counted.
func ratio(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

func (s *Server) handleStatus(w http.ResponseWriter, _ *http.Request) {
	resp := statusResponse{
		GoVersion:     runtime.Version(),
		UptimeSeconds: time.Since(s.started).Seconds(),
		Draining:      s.draining.Load(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				resp.Revision = kv.Value
			}
		}
	}
	if st := s.cfg.Store; st != nil {
		stats := st.Stats()
		resp.Store = &storeStatus{
			Path:     st.Path(),
			Entries:  stats.Entries,
			Bytes:    stats.Bytes,
			Evicted:  stats.Evicted,
			Dirty:    st.Dirty(),
			Hits:     stats.Hits,
			Misses:   stats.Misses,
			HitRatio: ratio(stats.Hits, stats.Misses),
		}
	}
	ps := s.pool.Stats()
	resp.Sched = schedStatus{
		Workers:  s.pool.Workers(),
		Depth:    ps.Depth,
		Inflight: ps.Inflight,
		Started:  ps.Started,
	}
	resp.Admission = s.adm.Snapshot()
	s.mu.Lock()
	nResults, nLabs := s.results.len(), s.labs.len()
	s.mu.Unlock()
	// Counter reads go through the registry's typed Snapshot — one
	// self-consistent capture instead of a handful of ad-hoc handle
	// reads. Labelled series that never fired read as 0, like an absent
	// Prometheus sample.
	snap := s.cfg.Metrics.Snapshot()
	hits := int64(snap.Value("spec17d_cache_hits_total"))
	misses := int64(snap.Value("spec17d_cache_misses_total"))
	resp.Cache = cacheStatus{
		ResultEntries: nResults,
		Labs:          nLabs,
		Hits:          hits,
		Misses:        misses,
		HitRatio:      ratio(hits, misses),
		Coalesced:     int64(snap.Value("spec17d_coalesced_waiters_total")),
		Computations:  int64(snap.Value("spec17d_computations_total")),
	}
	s.mu.Lock()
	nPending := len(s.upgradePending)
	s.mu.Unlock()
	resp.Engine = engineStatus{
		Default:        string(s.cfg.DefaultEngine),
		UpgradeWorkers: cap(s.bgSem),
		UpgradeDepth:   nPending,
		UpgradePending: nPending,
		Queued:         int64(snap.Value("spec17d_engine_upgrades_total", "queued")),
		Done:           int64(snap.Value("spec17d_engine_upgrades_total", "done")),
		Failed:         int64(snap.Value("spec17d_engine_upgrades_total", "failed")),
		Dropped:        int64(snap.Value("spec17d_engine_upgrades_total", "dropped")),
		ServedExact:    int64(snap.Value("spec17d_engine_requests_total", string(engine.TierExact))),
		ServedAnalytic: int64(snap.Value("spec17d_engine_requests_total", string(engine.TierAnalytic))),
	}
	if t := s.cfg.Tracer; t != nil {
		resp.Trace = traceStatus{
			Enabled:  true,
			Capacity: t.Capacity(),
			Buffered: t.Buffered(),
			Finished: t.Finished(),
			SlowMS:   t.SlowThreshold().Milliseconds(),
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// tracesResponse is the GET /v1/traces body.
type tracesResponse struct {
	Enabled bool                   `json:"enabled"`
	Count   int                    `json:"count"`
	Traces  []*telemetry.TraceData `json:"traces"`
}

// handleTraces is GET /v1/traces: the tracer's ring of finished
// traces, newest first. ?min_ms= keeps only traces at least that
// long, ?experiment= only traces any of whose spans carry that
// experiment attribute, ?limit= bounds the count.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var f telemetry.Filter
	if v := q.Get("min_ms"); v != "" {
		ms, err := strconv.ParseFloat(v, 64)
		if err != nil || ms < 0 {
			writeError(w, http.StatusBadRequest, codeBadOptions,
				fmt.Sprintf("min_ms=%q: must be a non-negative number", v), nil)
			return
		}
		f.MinDuration = time.Duration(ms * float64(time.Millisecond))
	}
	f.Experiment = q.Get("experiment")
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, codeBadOptions,
				fmt.Sprintf("limit=%q: must be a non-negative integer", v), nil)
			return
		}
		f.Limit = n
	}
	t := s.cfg.Tracer
	traces := t.Traces(f)
	if traces == nil {
		traces = []*telemetry.TraceData{}
	}
	writeJSON(w, http.StatusOK, tracesResponse{
		Enabled: t != nil,
		Count:   len(traces),
		Traces:  traces,
	})
}
