//go:build !race

package server

import (
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// TestRealLabCoalescingAndCache exercises the default compute path
// end to end on a real (tiny-fidelity) Lab: 16 concurrent requests
// for the same uncached experiment characterize the fleet exactly
// once, and a repeat request is a recorded cache hit in /metrics.
//
// Excluded from -race builds: one fleet characterization takes
// minutes under the race detector. The same coalescing logic runs
// under -race in TestCoalescing with a stubbed computation.
func TestRealLabCoalescingAndCache(t *testing.T) {
	if testing.Short() {
		t.Skip("real fleet characterization (~6s)")
	}
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const concurrent = 16
	const path = "/v1/experiments/table2?instructions=2000"
	var wg sync.WaitGroup
	for i := 0; i < concurrent; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, body := get(t, ts, path)
			if code != http.StatusOK {
				t.Errorf("status %d: %s", code, body)
				return
			}
			var r struct {
				Cached bool            `json:"cached"`
				Result json.RawMessage `json:"result"`
			}
			if err := json.Unmarshal(body, &r); err != nil {
				t.Error(err)
				return
			}
			if len(r.Result) == 0 || string(r.Result) == "null" {
				t.Error("empty result")
			}
		}()
	}
	wg.Wait()

	if v := metricValue(t, ts, "spec17d_computations_total"); v != 1 {
		t.Errorf("spec17d_computations_total = %v, want exactly 1 Lab computation", v)
	}

	// The repeat request hits the cache; a second experiment at the
	// same fidelity reuses the already-characterized Lab.
	code, body := get(t, ts, path)
	if code != http.StatusOK {
		t.Fatalf("repeat status %d", code)
	}
	var r struct {
		Cached bool `json:"cached"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatal(err)
	}
	if !r.Cached {
		t.Error("repeat request not served from cache")
	}
	if v := metricValue(t, ts, "spec17d_cache_hits_total"); v < 1 {
		t.Errorf("spec17d_cache_hits_total = %v, want >= 1", v)
	}
	if code, _ := get(t, ts, "/v1/experiments/ratespeed?instructions=2000"); code != http.StatusOK {
		t.Errorf("second experiment at same fidelity: status %d", code)
	}
	if v := metricValue(t, ts, "spec17d_computations_total"); v != 2 {
		t.Errorf("spec17d_computations_total = %v, want 2", v)
	}
}

// TestWarmRestartServesWithoutSimulating is the warm-start invariant
// end to end: a daemon backed by a persisted measurement store answers
// its first /v1/report after a restart with zero new simulations, and
// the report bytes are identical to the cold run's.
func TestWarmRestartServesWithoutSimulating(t *testing.T) {
	if testing.Short() {
		t.Skip("two real fleet characterizations (~12s)")
	}
	snapshot := filepath.Join(t.TempDir(), "measurements.json")
	const path = "/v1/report?instructions=2000"

	// lifecycle boots a store-backed daemon, fetches one full report,
	// persists the store, and returns the report plus store traffic.
	lifecycle := func() (report []byte, hits, misses float64) {
		reg := metrics.NewRegistry()
		st, err := store.Open(store.Config{Path: snapshot, Metrics: reg})
		if err != nil {
			t.Fatalf("opening store: %v", err)
		}
		s := New(Config{Store: st, Metrics: reg})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()

		code, body := get(t, ts, path)
		if code != http.StatusOK {
			t.Fatalf("report status %d: %s", code, body)
		}
		hits = metricValue(t, ts, "spec17_store_hits_total")
		misses = metricValue(t, ts, "spec17_store_misses_total")
		if err := st.Save(); err != nil {
			t.Fatalf("persisting store: %v", err)
		}
		return body, hits, misses
	}

	coldReport, _, coldMisses := lifecycle()
	if coldMisses == 0 {
		t.Fatal("cold daemon reported zero simulations — store not wired into the compute path")
	}
	warmReport, warmHits, warmMisses := lifecycle()

	if warmMisses != 0 {
		t.Errorf("warm restart simulated %g times, want 0", warmMisses)
	}
	if warmHits < coldMisses {
		t.Errorf("warm hits = %g, want >= %g (every cold simulation replayed from the snapshot)",
			warmHits, coldMisses)
	}
	if string(warmReport) != string(coldReport) {
		t.Errorf("warm report differs from cold report (%d vs %d bytes) — determinism invariant broken",
			len(warmReport), len(coldReport))
	}
}

// TestReportTraceSpanTree is the tracing acceptance criterion end to
// end: one traced /v1/report at low fidelity yields a span tree with
// the full pipeline visible — characterize under the root, distinct
// sched.wait and simulate spans under it, pca/cluster analysis stages,
// store.put writes — and the root span's duration agrees with the
// access log's request duration.
func TestReportTraceSpanTree(t *testing.T) {
	if testing.Short() {
		t.Skip("real fleet characterization (~6s)")
	}
	var logBuf syncBuffer
	logger := telemetry.NewLogger(&logBuf, slog.LevelInfo)
	reg := metrics.NewRegistry()
	st, err := store.Open(store.Config{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	tracer := telemetry.NewTracer(telemetry.TracerConfig{Metrics: reg})
	s := New(Config{Store: st, Metrics: reg, Tracer: tracer, Log: logger})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body := get(t, ts, "/v1/report?instructions=2000")
	if code != http.StatusOK {
		t.Fatalf("report status %d: %s", code, body)
	}

	code, body = get(t, ts, "/v1/traces?experiment=report")
	if code != http.StatusOK {
		t.Fatalf("traces status %d", code)
	}
	var got struct {
		Count  int                    `json:"count"`
		Traces []*telemetry.TraceData `json:"traces"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Count != 1 {
		t.Fatalf("report traces = %d, want 1", got.Count)
	}
	tr := got.Traces[0]
	if tr.Root.Name != "http.request" {
		t.Errorf("root span = %q, want http.request", tr.Root.Name)
	}

	counts := map[string]int{}
	var countNames func(d *telemetry.SpanData)
	countNames = func(d *telemetry.SpanData) {
		counts[d.Name]++
		for i := range d.Children {
			countNames(&d.Children[i])
		}
	}
	countNames(&tr.Root)
	// The pipeline's stages must all be visible, and sched.wait must be
	// recorded separately from the simulation it preceded.
	for _, stage := range []string{"characterize", "sched.wait", "simulate", "pca", "cluster", "store.put"} {
		if counts[stage] == 0 {
			t.Errorf("span tree has no %q span (got %v)", stage, counts)
		}
	}
	if counts["sched.wait"] != counts["simulate"] {
		t.Errorf("sched.wait spans = %d, simulate spans = %d; every scheduled simulation should record both",
			counts["sched.wait"], counts["simulate"])
	}

	// The access log's request duration and the trace's root duration
	// measure the same request from the same wrapper; they must agree.
	var loggedDur time.Duration
	for _, line := range strings.Split(logBuf.String(), "\n") {
		if !strings.Contains(line, "msg=request") || !strings.Contains(line, "endpoint=/v1/report") {
			continue
		}
		for _, f := range strings.Fields(line) {
			if v, ok := strings.CutPrefix(f, "dur="); ok {
				if loggedDur, err = time.ParseDuration(v); err != nil {
					t.Fatalf("parsing %q: %v", f, err)
				}
			}
		}
	}
	if loggedDur == 0 {
		t.Fatalf("no access log line for /v1/report in:\n%s", logBuf.String())
	}
	rootDur := time.Duration(tr.DurationMS * float64(time.Millisecond))
	if rootDur > loggedDur || loggedDur-rootDur > time.Second {
		t.Errorf("trace root duration %v vs access-log duration %v: want root <= logged within 1s",
			rootDur, loggedDur)
	}
}
