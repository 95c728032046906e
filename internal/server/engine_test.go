package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/machine"
)

// newEngineTestServer stubs the compute path with a fake whose result
// carries the tier it was computed at, so the tests can tell an
// analytic answer from an exact one and check the upgrade path's
// bit-identity claim.
func newEngineTestServer(cfg Config) (*Server, *atomic.Int64) {
	s := New(cfg)
	var computations atomic.Int64
	s.compute = func(_ context.Context, id string, opts machine.RunOptions, tier engine.Tier, _ bool) (any, error) {
		computations.Add(1)
		c := opts.Canonical()
		return map[string]any{"id": id, "instructions": c.Instructions, "tier": string(tier)}, nil
	}
	return s, &computations
}

type engineResp struct {
	Engine         string         `json:"engine"`
	UpgradePending bool           `json:"upgrade_pending"`
	Cached         bool           `json:"cached"`
	Result         map[string]any `json:"result"`
}

func getEngine(t *testing.T, ts *httptest.Server, path string) engineResp {
	t.Helper()
	code, body := get(t, ts, path)
	if code != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", path, code, body)
	}
	var er engineResp
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	return er
}

// TestEngineParamRejected: an unknown engine value must be a 400
// naming the allowed set, with no compute started — never a silent
// fall back to the default engine (a client asking for "anaytic"
// must find out, not quietly pay for an exact run).
func TestEngineParamRejected(t *testing.T) {
	s, computations := newEngineTestServer(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	for _, tc := range []struct {
		path string
		want string // substring the 400 body must carry
	}{
		{"/v1/experiments/table1?engine=anaytic", "valid: exact, analytic, auto"},
		{"/v1/experiments/table1?engine=Exact", "valid: exact, analytic, auto"},
		{"/v1/experiments/table1?engine=", "present but empty"},
		{"/v1/report?engine=fast", "valid: exact, analytic, auto"},
		{"/v1/batch?experiments=table1&engine=approximate", "valid: exact, analytic, auto"},
		{"/v1/batch?experiments=table1&engine=", "present but empty"},
	} {
		code, body := get(t, ts, tc.path)
		if code != http.StatusBadRequest {
			t.Errorf("GET %s: status %d, want 400 (body %s)", tc.path, code, body)
		}
		if !strings.Contains(string(body), tc.want) {
			t.Errorf("GET %s: body %q does not contain %q", tc.path, body, tc.want)
		}
	}
	if n := computations.Load(); n != 0 {
		t.Errorf("invalid engine values started %d computations, want 0", n)
	}
}

// TestEngineTiersCachedSeparately: analytic and exact results for the
// same (experiment, fidelity) live under distinct cache keys — neither
// ever serves the other's bytes.
func TestEngineTiersCachedSeparately(t *testing.T) {
	s, computations := newEngineTestServer(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	a := getEngine(t, ts, "/v1/experiments/table1?engine=analytic")
	x := getEngine(t, ts, "/v1/experiments/table1?engine=exact")
	if a.Engine != "analytic" || a.Result["tier"] != "analytic" {
		t.Errorf("analytic request served %q (result tier %v)", a.Engine, a.Result["tier"])
	}
	if x.Engine != "exact" || x.Result["tier"] != "exact" {
		t.Errorf("exact request served %q (result tier %v)", x.Engine, x.Result["tier"])
	}
	if n := computations.Load(); n != 2 {
		t.Errorf("two tiers computed %d times, want 2", n)
	}
	// Repeats hit their own tier's cache.
	a2 := getEngine(t, ts, "/v1/experiments/table1?engine=analytic")
	x2 := getEngine(t, ts, "/v1/experiments/table1?engine=exact")
	if !a2.Cached || a2.Result["tier"] != "analytic" {
		t.Errorf("repeat analytic: cached=%v tier=%v", a2.Cached, a2.Result["tier"])
	}
	if !x2.Cached || x2.Result["tier"] != "exact" {
		t.Errorf("repeat exact: cached=%v tier=%v", x2.Cached, x2.Result["tier"])
	}
	if n := computations.Load(); n != 2 {
		t.Errorf("cached repeats recomputed: %d computations, want 2", n)
	}
}

// TestEngineAutoUpgrades: the first auto request is served analytic
// with an upgrade pending; once the background upgrade lands the exact
// result, auto serves exact — and byte-for-byte what a direct
// engine=exact request returns, because the upgrade runs the same
// fetch path under the same cache key.
func TestEngineAutoUpgrades(t *testing.T) {
	s, computations := newEngineTestServer(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	first := getEngine(t, ts, "/v1/experiments/table1?engine=auto")
	if first.Engine != "analytic" || first.Result["tier"] != "analytic" {
		t.Fatalf("first auto request served %q (result tier %v), want analytic", first.Engine, first.Result["tier"])
	}
	if !first.UpgradePending {
		t.Fatalf("first auto request did not queue an upgrade")
	}

	var upgraded engineResp
	deadline := time.Now().Add(10 * time.Second)
	for {
		upgraded = getEngine(t, ts, "/v1/experiments/table1?engine=auto")
		if upgraded.Engine == "exact" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("auto never upgraded to exact; last response %+v", upgraded)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !upgraded.Cached {
		t.Errorf("upgraded auto response not served from cache")
	}

	// The direct exact request must be the identical cached value —
	// and must not recompute (the upgrade already paid for it).
	before := computations.Load()
	direct := getEngine(t, ts, "/v1/experiments/table1?engine=exact")
	if computations.Load() != before {
		t.Errorf("direct exact request recomputed after upgrade")
	}
	if !direct.Cached {
		t.Errorf("direct exact request missed the cache after upgrade")
	}
	if fmt.Sprint(direct.Result) != fmt.Sprint(upgraded.Result) {
		t.Errorf("auto-upgraded result differs from direct exact:\n auto  %v\n exact %v", upgraded.Result, direct.Result)
	}

	// Status reflects the pipeline.
	code, body := get(t, ts, "/v1/status")
	if code != http.StatusOK {
		t.Fatalf("/v1/status: %d", code)
	}
	var st struct {
		Engine struct {
			Default        string `json:"default"`
			UpgradeWorkers int    `json:"upgrade_workers"`
			Queued         int64  `json:"upgrades_queued"`
			Done           int64  `json:"upgrades_done"`
			ServedExact    int64  `json:"served_exact"`
			ServedAnalytic int64  `json:"served_analytic"`
		} `json:"engine"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Engine.Default != "exact" || st.Engine.UpgradeWorkers != cap(s.bgSem) {
		t.Errorf("status engine defaults = %+v", st.Engine)
	}
	if st.Engine.Queued < 1 || st.Engine.Done < 1 {
		t.Errorf("status upgrade counters = %+v, want ≥1 queued and done", st.Engine)
	}
	if st.Engine.ServedAnalytic < 1 || st.Engine.ServedExact < 1 {
		t.Errorf("status served counters = %+v", st.Engine)
	}
	if v := metricValue(t, ts, `spec17d_engine_upgrades_total{status="done"}`); v < 1 {
		t.Errorf("spec17d_engine_upgrades_total{status=done} = %v, want ≥1", v)
	}
	if v := metricValue(t, ts, `spec17d_engine_requests_total{engine="analytic"}`); v < 1 {
		t.Errorf("spec17d_engine_requests_total{engine=analytic} = %v, want ≥1", v)
	}
}

// TestEngineAutoUpgradeOnBackgroundLane: an exact upgrade computes on
// the background lane, never in an interactive worker slot or on the
// uncapped interactive queue, and auto converges to exact there.
func TestEngineAutoUpgradeOnBackgroundLane(t *testing.T) {
	s := New(Config{})
	lanes := make(chan bool, 4)
	s.compute = func(_ context.Context, id string, _ machine.RunOptions, tier engine.Tier, background bool) (any, error) {
		if tier == engine.TierExact {
			lanes <- background
		}
		return map[string]any{"id": id, "tier": string(tier)}, nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	if er := getEngine(t, ts, "/v1/experiments/table1?engine=auto"); er.Engine != "analytic" || !er.UpgradePending {
		t.Fatalf("first auto request: engine=%q pending=%v, want analytic with an upgrade pending", er.Engine, er.UpgradePending)
	}
	select {
	case background := <-lanes:
		if !background {
			t.Errorf("exact upgrade computed with background=false, want the background lane")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("exact upgrade never computed")
	}
	deadline := time.Now().Add(10 * time.Second)
	for getEngine(t, ts, "/v1/experiments/table1?engine=auto").Engine != "exact" {
		if time.Now().After(deadline) {
			t.Fatal("auto never converged to exact")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// reportP99 issues n sequential uncached /v1/report requests (each a
// distinct fidelity, so each is a real computation) and returns the
// p99 latency.
func reportP99(t *testing.T, ts *httptest.Server, n, instrBase int) time.Duration {
	t.Helper()
	durs := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		code, body := get(t, ts, fmt.Sprintf("/v1/report?instructions=%d", instrBase+i))
		if code != http.StatusOK {
			t.Fatalf("report: status %d: %s", code, body)
		}
		durs = append(durs, time.Since(start))
	}
	slices.Sort(durs)
	return durs[len(durs)*99/100]
}

// TestInteractiveLatencyDuringUpgrades is the isolation guarantee:
// exact upgrades occupying every background-lane slot must not move
// interactive /v1/report latency, because the lane's slots stay below
// the server's worker count. The upgrades block for the whole
// measurement window — the worst case — and p99 must stay within 10%
// (plus a small absolute allowance for scheduler noise) of the idle
// baseline.
func TestInteractiveLatencyDuringUpgrades(t *testing.T) {
	s, _ := newTestServer(Config{Workers: 4})
	defer s.Close()
	release := make(chan struct{})
	blocked := make(chan struct{}, upgradeQueueCap)
	inner := s.compute
	s.compute = func(ctx context.Context, id string, opts machine.RunOptions, tier engine.Tier, background bool) (any, error) {
		if background {
			blocked <- struct{}{}
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		time.Sleep(2 * time.Millisecond) // a small, fixed interactive cost
		return inner(ctx, id, opts, tier, background)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const samples = 50
	baseline := reportP99(t, ts, samples, 100_000)

	// More distinct auto requests than the lane has slots: each answers
	// analytically and queues an exact upgrade, which holds its slot
	// until release closes.
	const upgrades = 16
	for i := 0; i < upgrades; i++ {
		if er := getEngine(t, ts, fmt.Sprintf("/v1/experiments/table1?engine=auto&instructions=%d", 300_000+i)); er.Engine != "analytic" {
			t.Fatalf("auto request %d: engine %q, want analytic", i, er.Engine)
		}
	}
	for i := 0; i < cap(s.bgSem); i++ {
		select {
		case <-blocked:
		case <-time.After(10 * time.Second):
			t.Fatalf("%d of %d background slots filled", i, cap(s.bgSem))
		}
	}
	during := reportP99(t, ts, samples, 200_000)

	// The upgrades must still be pending, or the measurement proved
	// nothing: none can finish until release closes.
	s.mu.Lock()
	pending := len(s.upgradePending)
	s.mu.Unlock()
	if pending != upgrades {
		t.Fatalf("%d upgrades pending during the measurement, want %d", pending, upgrades)
	}

	close(release)
	deadline := time.Now().Add(10 * time.Second)
	for {
		s.mu.Lock()
		pending = len(s.upgradePending)
		s.mu.Unlock()
		if pending == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d upgrades still pending after release", pending)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if v := metricValue(t, ts, `spec17d_engine_upgrades_total{status="done"}`); v != upgrades {
		t.Errorf("upgrades done = %v, want %d", v, upgrades)
	}

	limit := baseline + baseline/10 + 10*time.Millisecond
	if during > limit {
		t.Errorf("interactive p99 during upgrades = %v, baseline %v (limit %v): the background lane starves interactive traffic",
			during, baseline, limit)
	}
}

// TestEngineDefaultFromConfig: the -engine flag's Config.DefaultEngine
// applies when the request names no tier, and an explicit engine=
// always overrides it.
func TestEngineDefaultFromConfig(t *testing.T) {
	s, _ := newEngineTestServer(Config{DefaultEngine: engine.TierAnalytic})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	if er := getEngine(t, ts, "/v1/experiments/table1"); er.Engine != "analytic" {
		t.Errorf("default request served %q, want analytic (the configured default)", er.Engine)
	}
	if er := getEngine(t, ts, "/v1/experiments/table1?engine=exact"); er.Engine != "exact" {
		t.Errorf("explicit engine=exact served %q", er.Engine)
	}
}

// TestBatchEngineLines: batch items report the tier that produced
// them, and an auto batch's first pass is analytic with upgrades
// queued behind it.
func TestBatchEngineLines(t *testing.T) {
	s, _ := newEngineTestServer(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	code, body := get(t, ts, "/v1/batch?experiments=table1,table2&engine=analytic")
	if code != http.StatusOK {
		t.Fatalf("batch: status %d: %s", code, body)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) != 2 {
		t.Fatalf("batch returned %d lines, want 2: %s", len(lines), body)
	}
	for _, line := range lines {
		var bl struct {
			ID     string `json:"id"`
			Status string `json:"status"`
			Engine string `json:"engine"`
		}
		if err := json.Unmarshal([]byte(line), &bl); err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		if bl.Status != "ok" || bl.Engine != "analytic" {
			t.Errorf("line %+v: want status ok, engine analytic", bl)
		}
	}
}
