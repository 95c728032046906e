package server

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
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

// newInsightTestServer builds a server with the insight plane wired in
// and the compute path stubbed to mimic the Lab's store side-effect:
// every computation lands one synthetic measurement in the store,
// keyed analytic or exact by the tier it ran at — exactly the pair
// shape the drift monitor feeds on.
func newInsightTestServer(t *testing.T, cfg Config) (*Server, *insight.Plane, *atomic.Int64) {
	t.Helper()
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	if cfg.Log == nil {
		cfg.Log = telemetry.NewLogger(io.Discard, slog.LevelError+1)
	}
	plane := insight.New(insight.Config{
		Metrics: cfg.Metrics,
		Log:     cfg.Log,
		// The loop never ticks on its own inside a test; the store
		// feeds the drift monitor each pair as it forms.
		Interval: time.Hour,
	})
	t.Cleanup(plane.Stop)
	cfg.Insight = plane
	st, err := store.Open(store.Config{OnPair: plane.Drift().ObservePair})
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
	return s, plane, &computations
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
// bands. A perturbed analytic record injected afterwards turns into a
// band_violation event on /v1/events.
func TestInsightDriftEndToEnd(t *testing.T) {
	s, plane, _ := newInsightTestServer(t, Config{})
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

	code, body := get(t, ts, "/v1/events?type=band_violation")
	if code != http.StatusOK {
		t.Fatalf("/v1/events: status %d: %s", code, body)
	}
	var evs struct {
		Count  int `json:"count"`
		Events []struct {
			Type  string            `json:"type"`
			Attrs map[string]string `json:"attrs"`
		} `json:"events"`
	}
	if err := json.Unmarshal(body, &evs); err != nil {
		t.Fatal(err)
	}
	if evs.Count < 1 {
		t.Fatalf("no band_violation events after a confirmed violation: %s", body)
	}
	ev := evs.Events[0]
	if ev.Type != "band_violation" || ev.Attrs["workload"] != "drifted-wl" || ev.Attrs["metric"] != "branch_mpki" {
		t.Errorf("band_violation event = %+v", ev)
	}

	// The plane's status section reflects the activity.
	if got := plane.Status().EventsTotal; got < 1 {
		t.Errorf("plane recorded %d events, want >= 1", got)
	}
}

// TestInsightEventsEndpointValidation: /v1/events rejects malformed
// filters in the standard envelope and filters correctly otherwise.
func TestInsightEventsEndpointValidation(t *testing.T) {
	s, plane, _ := newInsightTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	plane.OnCheckpointError(errors.New("disk full"))
	plane.OnSlowTrace(&telemetry.TraceData{TraceID: "t1", DurationMS: 2500})

	for _, tc := range []struct {
		path string
		want string
	}{
		{"/v1/events?type=bogus", "unknown event type"},
		{"/v1/events?since=notatime", "RFC 3339"},
		{"/v1/events?limit=0", "positive integer"},
		{"/v1/events?limit=x", "positive integer"},
		{"/v1/events?frob=1", "unknown query parameter"},
		{"/v1/events?type=", "empty"},
	} {
		code, body := get(t, ts, tc.path)
		if code != http.StatusBadRequest {
			t.Errorf("GET %s: status %d, want 400", tc.path, code)
		}
		if !strings.Contains(string(body), tc.want) {
			t.Errorf("GET %s: body %q does not contain %q", tc.path, body, tc.want)
		}
	}
	// slo_burn left with the SLO monitor: it is an unknown type, and
	// the 400 lists the four that remain.
	code, body := get(t, ts, "/v1/events?type=slo_burn")
	var e errorEnvelope
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatal(err)
	}
	want := []string{"band_violation", "shed_spike", "slow_trace", "checkpoint_failure"}
	if code != http.StatusBadRequest || !slices.Equal(e.Error.Known, want) {
		t.Errorf("GET /v1/events?type=slo_burn: status %d, known %q; want 400 and %q", code, e.Error.Known, want)
	}

	var evs struct {
		Count  int `json:"count"`
		Events []struct {
			Type string `json:"type"`
		} `json:"events"`
	}
	code, body = get(t, ts, "/v1/events?type=slow_trace")
	if code != http.StatusOK {
		t.Fatalf("/v1/events: %d", code)
	}
	if err := json.Unmarshal(body, &evs); err != nil {
		t.Fatal(err)
	}
	if evs.Count != 1 || evs.Events[0].Type != "slow_trace" {
		t.Errorf("type filter returned %s", body)
	}
	// /v1/accuracy takes no parameters at all.
	code, body = get(t, ts, "/v1/accuracy?verbose=1")
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
	plane := insight.New(insight.Config{Metrics: reg, Log: logger, Interval: time.Hour})
	t.Cleanup(plane.Stop)
	st, err := store.Open(store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Metrics: reg, Log: logger, Insight: plane, Store: st})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	if acc := getAccuracy(t, ts); acc.Enabled {
		t.Errorf("/v1/accuracy with a hookless store: enabled = true, want false (%+v)", acc)
	}
}

// TestInsightDisabledRoutes404: without a plane the two insight
// routes do not exist — the fallback answers 404 in the standard
// envelope, and GET /v1 does not advertise them. The removed metric
// history route is a 404 with the plane on as well.
func TestInsightDisabledRoutes404(t *testing.T) {
	s, _ := newTestServer(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()
	ins, _, _ := newInsightTestServer(t, Config{})
	tsIns := httptest.NewServer(ins.Handler())
	defer tsIns.Close()
	defer ins.Close()

	for _, tc := range []struct {
		ts   *httptest.Server
		path string
	}{
		{ts, "/v1/accuracy"},
		{ts, "/v1/events"},
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
		t.Errorf("discovery document advertises insight routes on a plane-less server")
	}
}

// TestInsightDisabledIsInvisible: a daemon without the plane serves
// byte-identical compute responses — the insight integration costs
// nothing when it is off, and nothing leaks into the wire format when
// it is on.
func TestInsightDisabledIsInvisible(t *testing.T) {
	plain, _ := newTestServer(Config{})
	insightful, _, _ := newInsightTestServer(t, Config{})
	// The insight stub returns a tier field the plain stub lacks; use
	// identical stubs so only the plane differs.
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
			t.Errorf("%s: insight plane changed the response (%d/%d, %d vs %d bytes)",
				path, codeP, codeI, len(bodyP), len(bodyI))
		}
	}
}

// TestStatusCarriesInsight: /v1/status grows an insight section when
// the plane is wired, and omits it entirely otherwise. The section
// counts ticks and events only: no SLO block and no ring sizes.
func TestStatusCarriesInsight(t *testing.T) {
	s, plane, _ := newInsightTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	plane.Tick()
	code, body := get(t, ts, "/v1/status")
	if code != http.StatusOK {
		t.Fatalf("/v1/status: %d", code)
	}
	var st struct {
		Insight map[string]json.Number `json:"insight"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Insight == nil {
		t.Fatalf("/v1/status has no insight section: %s", body)
	}
	want := []string{"events_buffered", "events_total", "interval_seconds", "samples"}
	var got []string
	for k := range st.Insight {
		got = append(got, k)
	}
	sort.Strings(got)
	if !slices.Equal(got, want) {
		t.Errorf("insight section fields = %q, want %q", got, want)
	}
	if n, err := st.Insight["samples"].Int64(); err != nil || n < 1 {
		t.Errorf("insight samples = %q, want >= 1", st.Insight["samples"])
	}

	plainS, _ := newTestServer(Config{})
	tsPlain := httptest.NewServer(plainS.Handler())
	defer tsPlain.Close()
	defer plainS.Close()
	_, body = get(t, tsPlain, "/v1/status")
	if strings.Contains(string(body), `"insight"`) {
		t.Errorf("plane-less /v1/status mentions insight: %s", body)
	}
}
