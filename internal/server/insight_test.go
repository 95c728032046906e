package server

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/insight"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// insightCounts builds a plausible RawCounts; mispredicts is the knob
// the drift tests turn (100 vs 10 per 1000 instructions pushes
// BranchMPKI past its tolerance band).
func insightCounts(mispredicts uint64) *machine.RawCounts {
	rc := &machine.RawCounts{
		Instructions:  1000,
		Loads:         200,
		Stores:        100,
		Branches:      150,
		TakenBranches: 100,
		FPOps:         50,
		SIMDOps:       20,
		KernelInstrs:  30,
		Mispredicts:   mispredicts,
		CPI:           1.0,
	}
	rc.Cache.L1IMisses, rc.Cache.L1DMisses = 5, 10
	rc.Cache.L2IMisses, rc.Cache.L2DMisses, rc.Cache.L3Misses = 2, 4, 1
	rc.TLB.ITLBMisses, rc.TLB.DTLBMisses = 3, 6
	rc.TLB.L2Misses, rc.TLB.PageWalks = 2, 2
	return rc
}

// newInsightTestServer builds a server with the drift monitor wired in
// and the compute path stubbed to mimic the Lab's store side-effect:
// every computation lands one synthetic measurement in the store,
// keyed analytic or exact by the tier it ran at — exactly the pair
// shape the drift monitor feeds on.
func newInsightTestServer(t *testing.T, cfg Config) (*Server, *atomic.Int64) {
	t.Helper()
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	if cfg.Log == nil {
		cfg.Log = telemetry.NewLogger(io.Discard, slog.LevelError+1)
	}
	drift := insight.NewDrift(cfg.Metrics, cfg.Log)
	cfg.Insight = drift
	st, err := store.Open(store.Config{OnPair: drift.ObservePair})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Store = st

	s := New(cfg)
	var computations atomic.Int64
	s.compute = func(_ context.Context, id string, opts machine.RunOptions, tier engine.Tier, _ bool) (any, error) {
		computations.Add(1)
		c := opts.Canonical()
		k := store.Key{
			Machine:      "test-machine",
			Workload:     id,
			Instructions: c.Instructions,
			Warmup:       c.WarmupInstructions,
			Content:      "content-" + id,
		}
		if tier == engine.TierAnalytic {
			k.Engine = string(engine.TierAnalytic)
		}
		st.Put(k, insightCounts(10))
		return map[string]any{"id": id, "tier": string(tier)}, nil
	}
	return s, &computations
}

type accuracyBody struct {
	Enabled    bool    `json:"enabled"`
	Pairs      int64   `json:"pairs_compared"`
	Samples    int64   `json:"samples"`
	Violations int64   `json:"violations"`
	WorstRatio float64 `json:"worst_ratio"`
	Worst      []struct {
		Machine  string `json:"machine"`
		Workload string `json:"workload"`
		Metric   string `json:"metric"`
	} `json:"worst"`
}

func getAccuracy(t *testing.T, ts *httptest.Server) accuracyBody {
	t.Helper()
	code, body := get(t, ts, "/v1/accuracy")
	if code != http.StatusOK {
		t.Fatalf("/v1/accuracy: status %d: %s", code, body)
	}
	var ab accuracyBody
	if err := json.Unmarshal(body, &ab); err != nil {
		t.Fatalf("/v1/accuracy: %v", err)
	}
	return ab
}

// TestInsightDriftEndToEnd is the acceptance demo: an engine=auto
// request is answered analytically and upgraded to exact in the
// background; once both measurements of the same identity sit in the
// store, /v1/accuracy reports the compared pair inside its tolerance
// bands. A perturbed analytic record injected afterwards is counted
// as a violation and heads the worst offenders. /v1/accuracy takes no
// query parameters.
func TestInsightDriftEndToEnd(t *testing.T) {
	s, _ := newInsightTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	first := getEngine(t, ts, "/v1/experiments/table1?engine=auto")
	if first.Engine != "analytic" || !first.UpgradePending {
		t.Fatalf("first auto request: engine=%q pending=%v, want analytic/pending", first.Engine, first.UpgradePending)
	}

	// The background upgrade lands the exact twin; the store scores the
	// pair on that put, so /v1/accuracy reports it as soon as both
	// records exist. Identical synthetic counts → zero band consumption.
	var acc accuracyBody
	deadline := time.Now().Add(10 * time.Second)
	for {
		acc = getAccuracy(t, ts)
		if acc.Pairs >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("drift monitor never saw the upgraded pair: %+v", acc)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !acc.Enabled {
		t.Errorf("accuracy reports disabled with a store attached")
	}
	if acc.Samples == 0 {
		t.Errorf("compared pair produced no per-metric samples: %+v", acc)
	}
	if acc.Violations != 0 || acc.WorstRatio > 1 {
		t.Errorf("in-band pair reported violations: %+v", acc)
	}

	// Inject an out-of-band analytic record with an exact twin — the
	// shape a genuinely drifted estimator would leave behind.
	st := s.cfg.Store
	bad := store.Key{
		Machine:      "test-machine",
		Workload:     "drifted-wl",
		Instructions: 50_000,
		Warmup:       10_000,
		Engine:       string(engine.TierAnalytic),
		Content:      "content-drifted",
	}
	st.Put(bad, insightCounts(100))
	twin := bad
	twin.Engine = ""
	st.Put(twin, insightCounts(10))

	acc = getAccuracy(t, ts)
	if acc.Violations < 1 {
		t.Fatalf("perturbed pair raised no violation: %+v", acc)
	}
	if len(acc.Worst) == 0 || acc.Worst[0].Metric != "branch_mpki" {
		t.Errorf("worst offender = %+v, want branch_mpki first", acc.Worst)
	}

	if w := acc.Worst[0]; w.Workload != "drifted-wl" || w.Machine != "test-machine" {
		t.Errorf("worst offender = %+v, want the drifted pair", w)
	}

	code, body := get(t, ts, "/v1/accuracy?verbose=1")
	if code != http.StatusBadRequest || !strings.Contains(string(body), "no query parameters") {
		t.Errorf("/v1/accuracy?verbose=1: %d %s", code, body)
	}
}

// TestAccuracyDisabledWithoutPairHook: a store opened without OnPair
// never hands a pair to the drift monitor, so /v1/accuracy must report
// the monitor disabled rather than enabled with nothing ever compared.
func TestAccuracyDisabledWithoutPairHook(t *testing.T) {
	reg := metrics.NewRegistry()
	logger := telemetry.NewLogger(io.Discard, slog.LevelError+1)
	st, err := store.Open(store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Metrics: reg, Log: logger, Insight: insight.NewDrift(reg, logger), Store: st})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	if acc := getAccuracy(t, ts); acc.Enabled {
		t.Errorf("/v1/accuracy with a hookless store: enabled = true, want false (%+v)", acc)
	}
}

// TestInsightDisabledRoutes404: without a drift monitor /v1/accuracy
// does not exist — the fallback answers 404 in the standard envelope,
// and GET /v1 does not advertise it. The removed metric history and
// event routes are 404s with the monitor on as well.
func TestInsightDisabledRoutes404(t *testing.T) {
	s, _ := newTestServer(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()
	ins, _ := newInsightTestServer(t, Config{})
	tsIns := httptest.NewServer(ins.Handler())
	defer tsIns.Close()
	defer ins.Close()

	for _, tc := range []struct {
		ts   *httptest.Server
		path string
	}{
		{ts, "/v1/accuracy"},
		{ts, "/v1/events"},
		{tsIns, "/v1/events"},
		{tsIns, "/v1/metrics/history?name=spec17d_requests_total"},
	} {
		code, body := get(t, tc.ts, tc.path)
		if code != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404 (body %s)", tc.path, code, body)
		}
		if !strings.Contains(string(body), "no such endpoint") {
			t.Errorf("GET %s: body %q is not the standard 404 envelope", tc.path, body)
		}
	}
	code, body := get(t, ts, "/v1")
	if code != http.StatusOK {
		t.Fatalf("/v1: %d", code)
	}
	if strings.Contains(string(body), "/v1/accuracy") {
		t.Errorf("discovery document advertises /v1/accuracy on a server without a drift monitor")
	}
}

// TestInsightDisabledIsInvisible: a daemon without the monitor serves
// byte-identical compute responses — the insight integration costs
// nothing when it is off, and nothing leaks into the wire format when
// it is on.
func TestInsightDisabledIsInvisible(t *testing.T) {
	plain, _ := newTestServer(Config{})
	insightful, _ := newInsightTestServer(t, Config{})
	// The insight stub returns a tier field the plain stub lacks; use
	// identical stubs so only the monitor differs.
	insightful.compute = plain.compute
	tsPlain := httptest.NewServer(plain.Handler())
	defer tsPlain.Close()
	defer plain.Close()
	tsIns := httptest.NewServer(insightful.Handler())
	defer tsIns.Close()
	defer insightful.Close()

	for _, path := range []string{
		"/v1/experiments/table1",
		"/v1/report?instructions=2000",
		"/v1/experiments",
	} {
		codeP, bodyP := get(t, tsPlain, path)
		codeI, bodyI := get(t, tsIns, path)
		if codeP != codeI || string(bodyP) != string(bodyI) {
			t.Errorf("%s: drift monitor changed the response (%d/%d, %d vs %d bytes)",
				path, codeP, codeI, len(bodyP), len(bodyI))
		}
	}
}

// TestStatusHasNoInsightSection: /v1/status carries no insight key,
// with the drift monitor wired or not. The monitor's totals are
// /v1/accuracy's and its counters'; the event ring and tick counts the
// section once held are gone.
func TestStatusHasNoInsightSection(t *testing.T) {
	s, _ := newInsightTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()
	plainS, _ := newTestServer(Config{})
	tsPlain := httptest.NewServer(plainS.Handler())
	defer tsPlain.Close()
	defer plainS.Close()

	for _, srv := range []*httptest.Server{ts, tsPlain} {
		code, body := get(t, srv, "/v1/status")
		if code != http.StatusOK {
			t.Fatalf("/v1/status: %d", code)
		}
		var st map[string]json.RawMessage
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		if _, ok := st["insight"]; ok {
			t.Errorf("/v1/status has an insight section: %s", body)
		}
	}
}
