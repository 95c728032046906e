package insight

import (
	"bytes"
	"context"
	"errors"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// testClock is a manually-advanced clock for deterministic sampling.
type testClock struct{ t time.Time }

func newTestClock() *testClock {
	return &testClock{t: time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)}
}
func (c *testClock) now() time.Time          { return c.t }
func (c *testClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func quietLog() *slog.Logger {
	return telemetry.NewLogger(io.Discard, slog.LevelError+1)
}

func newTestPlane(t *testing.T, reg *metrics.Registry, clk *testClock, slo SLOConfig) *Plane {
	t.Helper()
	p := New(Config{
		Metrics:  reg,
		Log:      quietLog(),
		Interval: 5 * time.Second,
		SLO:      slo,
		Now:      clk.now,
	})
	t.Cleanup(p.Stop)
	return p
}

func TestRecorderHistory(t *testing.T) {
	reg := metrics.NewRegistry()
	ctr := reg.Counter("test_total", "a counter")
	g := reg.Gauge("test_gauge", "a gauge")
	h := reg.Histogram("test_seconds", "a histogram", []float64{1, 2})
	clk := newTestClock()
	rec := newRecorder(8)

	rec.sample(reg.Snapshot(), clk.now())
	ctr.Add(10)
	g.Set(3)
	h.Observe(0.5)
	h.Observe(1.5)
	h.Observe(3)
	clk.advance(10 * time.Second)
	rec.sample(reg.Snapshot(), clk.now())

	hist, ok := rec.History("test_total", 0, 5*time.Second, clk.now())
	if !ok || len(hist.Series) != 1 {
		t.Fatalf("counter history: ok=%v series=%d", ok, len(hist.Series))
	}
	s := hist.Series[0]
	if len(s.Points) != 2 || s.Points[1].Value != 10 {
		t.Fatalf("counter points = %+v", s.Points)
	}
	if s.Rate == nil || *s.Rate != 1 { // 10 over 10s
		t.Fatalf("counter rate = %v, want 1/s", s.Rate)
	}

	gh, _ := rec.History("test_gauge", 0, 5*time.Second, clk.now())
	if gh.Series[0].Rate != nil {
		t.Fatalf("gauge grew a rate: %v", *gh.Series[0].Rate)
	}

	hh, ok := rec.History("test_seconds", 0, 5*time.Second, clk.now())
	if !ok {
		t.Fatal("histogram history missing")
	}
	hs := hh.Series[0]
	if hs.Rate == nil || *hs.Rate != 0.3 { // 3 observations over 10s
		t.Fatalf("histogram count rate = %v, want 0.3/s", hs.Rate)
	}
	// Three observations in buckets (≤1, ≤2, +Inf): p50 interpolates to
	// 1.5 inside the second bucket; p99 lands in +Inf and answers the
	// highest finite bound.
	if hs.P50 == nil || *hs.P50 != 1.5 {
		t.Fatalf("p50 = %v, want 1.5", hs.P50)
	}
	if hs.P99 == nil || *hs.P99 != 2 {
		t.Fatalf("p99 = %v, want 2 (highest finite bound)", hs.P99)
	}

	if _, ok := rec.History("no_such_metric", 0, time.Second, clk.now()); ok {
		t.Fatal("unknown metric produced a history")
	}
}

func TestRecorderWindowAndRingBound(t *testing.T) {
	reg := metrics.NewRegistry()
	ctr := reg.Counter("test_total", "a counter")
	clk := newTestClock()
	rec := newRecorder(4)

	for i := 0; i < 10; i++ {
		ctr.Inc()
		rec.sample(reg.Snapshot(), clk.now())
		clk.advance(5 * time.Second)
	}
	h, _ := rec.History("test_total", 0, 5*time.Second, clk.now())
	if got := len(h.Series[0].Points); got != 4 {
		t.Fatalf("ring retained %d points, capacity 4", got)
	}
	// Only the last two samples fall inside a 12s window (now is 5s
	// past the final sample).
	h, _ = rec.History("test_total", 12*time.Second, 5*time.Second, clk.now())
	if got := len(h.Series[0].Points); got != 2 {
		t.Fatalf("12s window kept %d points, want 2", got)
	}
}

func TestEventLogRingAndFilters(t *testing.T) {
	reg := metrics.NewRegistry()
	clk := newTestClock()
	e := newEventLog(4, reg, quietLog(), clk.now)

	for i := 0; i < 6; i++ {
		typ := EventShedSpike
		if i%2 == 1 {
			typ = EventSlowTrace
		}
		e.Emit(typ, "event", nil)
		clk.advance(time.Second)
	}
	if e.Len() != 4 || e.Total() != 6 {
		t.Fatalf("len=%d total=%d, want 4/6", e.Len(), e.Total())
	}
	all := e.Events("", time.Time{}, 0)
	if len(all) != 4 || all[0].Seq != 6 || all[3].Seq != 3 {
		t.Fatalf("events newest-first = %+v", all)
	}
	slow := e.Events(EventSlowTrace, time.Time{}, 0)
	if len(slow) != 2 {
		t.Fatalf("type filter kept %d, want 2", len(slow))
	}
	since := e.Events("", all[0].Time, 0)
	if len(since) != 1 || since[0].Seq != 6 {
		t.Fatalf("since filter = %+v", since)
	}
	if got := e.Events("", time.Time{}, 1); len(got) != 1 || got[0].Seq != 6 {
		t.Fatalf("limit=1 = %+v", got)
	}
	var buf [512]byte
	w := &writerTo{buf: buf[:0]}
	if err := reg.WritePrometheus(w); err != nil {
		t.Fatal(err)
	}
	body := string(w.buf)
	if !contains(body, `spec17d_insight_events_total{type="shed_spike"} 3`) {
		t.Fatalf("events counter missing from exposition:\n%s", body)
	}
}

type writerTo struct{ buf []byte }

func (w *writerTo) Write(p []byte) (int, error) { w.buf = append(w.buf, p...); return len(p), nil }

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// syntheticCounts builds a plausible RawCounts; mispredicts is the
// knob the drift tests turn.
func syntheticCounts(mispredicts uint64) *machine.RawCounts {
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

func putPair(t *testing.T, st *store.Store, workload string, analytic, exact *machine.RawCounts) store.Key {
	t.Helper()
	k := store.Key{
		Machine:      "test-machine",
		Workload:     workload,
		Instructions: 50_000,
		Warmup:       10_000,
		Engine:       "analytic",
		Content:      "content-" + workload,
	}
	st.Put(k, analytic)
	twin := k
	twin.Engine = ""
	st.Put(twin, exact)
	return k
}

func TestDriftScanInBand(t *testing.T) {
	reg := metrics.NewRegistry()
	clk := newTestClock()
	st, _ := store.Open(store.Config{})
	events := newEventLog(16, reg, quietLog(), clk.now)
	d := newDrift(st, reg, events, clk.now)

	putPair(t, st, "wl-agree", syntheticCounts(10), syntheticCounts(10))
	if n := d.Scan(); n != 1 {
		t.Fatalf("Scan compared %d pairs, want 1", n)
	}
	status := d.Status()
	if status.Pairs != 1 || status.Samples == 0 {
		t.Fatalf("status = %+v", status)
	}
	if status.Violations != 0 || status.WorstRatio != 0 {
		t.Fatalf("identical records drifted: %+v", status)
	}
	// Records are immutable: rescans find nothing new.
	if n := d.Scan(); n != 0 {
		t.Fatalf("rescan compared %d pairs, want 0", n)
	}
	if got := d.Status().Pairs; got != 1 {
		t.Fatalf("pairs after rescan = %d, want 1", got)
	}
}

func TestDriftScanViolation(t *testing.T) {
	reg := metrics.NewRegistry()
	clk := newTestClock()
	st, _ := store.Open(store.Config{})
	events := newEventLog(16, reg, quietLog(), clk.now)
	d := newDrift(st, reg, events, clk.now)

	// 100 vs 10 mispredicts per 1000 instructions: 100 MPKI vs 10 MPKI
	// against BranchMPKI's band {Abs: 3.5, Rel: 0.60} → ratio ≈ 1.42.
	putPair(t, st, "wl-drift", syntheticCounts(100), syntheticCounts(10))
	if n := d.Scan(); n != 1 {
		t.Fatalf("Scan compared %d pairs, want 1", n)
	}
	status := d.Status()
	if status.Violations != 1 {
		t.Fatalf("violations = %d, want 1", status.Violations)
	}
	if len(status.Worst) == 0 || status.Worst[0].Metric != "branch_mpki" {
		t.Fatalf("worst offender = %+v", status.Worst)
	}
	if status.Worst[0].WorstRatio <= 1 {
		t.Fatalf("worst ratio %v should exceed 1", status.Worst[0].WorstRatio)
	}
	evs := events.Events(EventBandViolation, time.Time{}, 0)
	if len(evs) != 1 {
		t.Fatalf("band_violation events = %d, want 1", len(evs))
	}
	if evs[0].Attrs["metric"] != "branch_mpki" || evs[0].Attrs["machine"] != "test-machine" {
		t.Fatalf("event attrs = %+v", evs[0].Attrs)
	}
}

func TestSLOBurnAndTransitionEvent(t *testing.T) {
	reg := metrics.NewRegistry()
	requests := reg.CounterVec("spec17d_requests_total", "requests", "endpoint", "code")
	latency := reg.HistogramVec("spec17d_request_duration_seconds", "latency",
		[]float64{0.1, 0.5, 1}, "endpoint")
	clk := newTestClock()
	p := newTestPlane(t, reg, clk, SLOConfig{Latency: 500 * time.Millisecond})

	// Baseline tick with the series present but empty.
	requests.With("/v1/report", "200").Add(0)
	requests.With("/v1/report", "500").Add(0)
	latency.With("/v1/report").Observe(0.01)
	p.Tick()

	// 40% errors and every request over the latency objective.
	requests.With("/v1/report", "200").Add(6)
	requests.With("/v1/report", "500").Add(4)
	for i := 0; i < 10; i++ {
		latency.With("/v1/report").Observe(0.9)
	}
	clk.advance(5 * time.Second)
	p.Tick()

	st := p.Status()
	if len(st.SLO) != 1 {
		t.Fatalf("slo endpoints = %+v", st.SLO)
	}
	ep := st.SLO[0]
	if ep.Endpoint != "/v1/report" || !ep.Burning {
		t.Fatalf("endpoint not burning: %+v", ep)
	}
	if ep.ErrorBurnFast < 100 { // 0.4 error fraction / 0.001 budget
		t.Fatalf("error burn fast = %v, want hundreds", ep.ErrorBurnFast)
	}
	if ep.LatencyBurnFast <= 1 {
		t.Fatalf("latency burn fast = %v, want > 1", ep.LatencyBurnFast)
	}
	if got := len(p.Events().Events(EventSLOBurn, time.Time{}, 0)); got != 1 {
		t.Fatalf("slo_burn events = %d, want 1", got)
	}

	// Still burning next tick: no second transition event.
	clk.advance(5 * time.Second)
	p.Tick()
	if got := len(p.Events().Events(EventSLOBurn, time.Time{}, 0)); got != 1 {
		t.Fatalf("slo_burn events after sustained burn = %d, want 1", got)
	}
}

// TestSLOSlowWindowSeesItsStart: at the default sampling interval the
// history rings reach back the whole slow window, so errors 59 minutes
// old still count toward the slow burn rate. A ring shorter than the
// window would have dropped them and read the burn as 0.
func TestSLOSlowWindowSeesItsStart(t *testing.T) {
	reg := metrics.NewRegistry()
	requests := reg.CounterVec("spec17d_requests_total", "requests", "endpoint", "code")
	clk := newTestClock()
	p := New(Config{Metrics: reg, Log: quietLog(), Now: clk.now})
	t.Cleanup(p.Stop)

	requests.With("/v1/report", "200").Add(0)
	requests.With("/v1/report", "500").Add(0)
	p.Tick()
	requests.With("/v1/report", "200").Add(90)
	requests.With("/v1/report", "500").Add(10)
	for elapsed := time.Duration(0); elapsed < 59*time.Minute; elapsed += p.Interval() {
		clk.advance(p.Interval())
		p.Tick()
	}

	st := p.Status()
	if len(st.SLO) != 1 {
		t.Fatalf("slo endpoints = %+v", st.SLO)
	}
	// 10% errors against a 0.1% budget.
	if got := st.SLO[0].ErrorBurnSlow; got < 99 || got > 101 {
		t.Errorf("slow error burn 59 min after the errors = %v, want 100", got)
	}
	if got := st.SLO[0].ErrorBurnFast; got != 0 {
		t.Errorf("fast error burn 59 min after the errors = %v, want 0", got)
	}
}

func TestShedSpikeDetection(t *testing.T) {
	reg := metrics.NewRegistry()
	rejected := reg.CounterVec("spec17_admission_rejected_total", "rejections", "reason")
	clk := newTestClock()
	p := newTestPlane(t, reg, clk, SLOConfig{})

	p.Tick() // baseline
	// Every reason counts toward the spike.
	rejected.With("inflight").Add(6)
	rejected.With("rate_limited").Add(6)
	clk.advance(5 * time.Second)
	p.Tick()
	if got := len(p.Events().Events(EventShedSpike, time.Time{}, 0)); got != 1 {
		t.Fatalf("shed_spike events = %d, want 1", got)
	}
	// A second spike inside the cooldown is the same incident.
	rejected.With("rate_limited").Add(20)
	clk.advance(5 * time.Second)
	p.Tick()
	if got := len(p.Events().Events(EventShedSpike, time.Time{}, 0)); got != 1 {
		t.Fatalf("shed_spike events inside cooldown = %d, want 1", got)
	}
	// Past the cooldown a sustained overload may fire again.
	rejected.With("inflight").Add(20)
	clk.advance(2 * time.Minute)
	p.Tick()
	if got := len(p.Events().Events(EventShedSpike, time.Time{}, 0)); got != 2 {
		t.Fatalf("shed_spike events after cooldown = %d, want 2", got)
	}
}

func TestPlaneHooks(t *testing.T) {
	reg := metrics.NewRegistry()
	clk := newTestClock()
	p := newTestPlane(t, reg, clk, SLOConfig{})

	p.OnSlowTrace(&telemetry.TraceData{TraceID: "t1", DurationMS: 1234})
	p.OnCheckpointError(errors.New("disk full"))
	p.OnWebhookExhausted("job-1", "http://example/hook", 5, errors.New("status 503"))

	if got := len(p.Events().Events(EventSlowTrace, time.Time{}, 0)); got != 1 {
		t.Fatalf("slow_trace events = %d", got)
	}
	if got := len(p.Events().Events(EventCheckpointFailure, time.Time{}, 0)); got != 1 {
		t.Fatalf("checkpoint_failure events = %d", got)
	}
	evs := p.Events().Events(EventWebhookExhausted, time.Time{}, 0)
	if len(evs) != 1 || evs[0].Attrs["job"] != "job-1" || evs[0].Attrs["attempts"] != "5" {
		t.Fatalf("webhook_exhausted events = %+v", evs)
	}
}

// lockedBuffer is a log sink safe for the goroutines that log.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (w *lockedBuffer) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.Write(p)
}

// count returns how many logged lines contain every one of subs.
func (w *lockedBuffer) count(subs ...string) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := 0
	for _, line := range strings.Split(w.b.String(), "\n") {
		match := line != ""
		for _, sub := range subs {
			match = match && strings.Contains(line, sub)
		}
		if match {
			n++
		}
	}
	return n
}

// TestHookedAnomaliesLogOnce: with one logger shared by the tracer,
// the store and the plane, as spec17d wires them, a slow trace and a
// failed checkpoint each give one warn line, from the component that
// hit it, and one event. The hooks add no line of their own.
func TestHookedAnomaliesLogOnce(t *testing.T) {
	var logs lockedBuffer
	log := telemetry.NewLogger(&logs, slog.LevelInfo)
	reg := metrics.NewRegistry()
	p := New(Config{Metrics: reg, Log: log, Interval: time.Hour})
	t.Cleanup(p.Stop)

	tracer := telemetry.NewTracer(telemetry.TracerConfig{
		Capacity: 4, SlowThreshold: time.Nanosecond, Metrics: reg, Log: log, OnSlow: p.OnSlowTrace,
	})
	_, root := tracer.StartTrace(context.Background(), "http.request", "")
	time.Sleep(time.Millisecond)
	root.End()

	// Replacing the snapshot's directory by a plain file fails every
	// save.
	dir := filepath.Join(t.TempDir(), "snap")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(store.Config{
		Path: filepath.Join(dir, "store.json"), Metrics: reg, Log: log,
		OnCheckpointError: p.OnCheckpointError,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	st.Put(store.Key{Machine: "m", Workload: "w", Instructions: 1000, Content: "c"}, syntheticCounts(1))
	st.StartCheckpointing(time.Hour)() // only stop's flush saves

	for _, c := range []struct {
		typ EventType
		msg string
	}{
		{EventSlowTrace, `msg="slow trace"`},
		{EventCheckpointFailure, `msg="checkpoint failed"`},
	} {
		events := len(p.Events().Events(c.typ, time.Time{}, 0))
		if lines := logs.count("level=warn", c.msg); events != 1 || lines != 1 {
			t.Errorf("%s: %d events, %d warn lines; want 1 and 1", c.typ, events, lines)
		}
	}
	if got := logs.count("level=warn"); got != 2 {
		t.Errorf("%d warn lines, want 2 (one per anomaly):\n%s", got, logs.b.String())
	}
}

func TestPlaneStartStop(t *testing.T) {
	reg := metrics.NewRegistry()
	p := New(Config{Metrics: reg, Log: quietLog(), Interval: time.Millisecond})
	p.Start()
	deadline := time.Now().Add(2 * time.Second)
	for p.Status().Samples == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if p.Status().Samples == 0 {
		t.Fatal("sampling loop never ticked")
	}
	p.Stop()
	p.Stop() // idempotent

	// Never-started planes stop cleanly too.
	q := New(Config{Metrics: metrics.NewRegistry(), Log: quietLog()})
	q.Stop()
}
