package insight

import (
	"bytes"
	"context"
	"errors"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// testClock is a manually-advanced clock for deterministic ticks.
type testClock struct{ t time.Time }

func newTestClock() *testClock {
	return &testClock{t: time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)}
}
func (c *testClock) now() time.Time          { return c.t }
func (c *testClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func quietLog() *slog.Logger {
	return telemetry.NewLogger(io.Discard, slog.LevelError+1)
}

func newTestPlane(t *testing.T, reg *metrics.Registry, clk *testClock) *Plane {
	t.Helper()
	p := New(Config{
		Metrics:  reg,
		Log:      quietLog(),
		Interval: 5 * time.Second,
		Now:      clk.now,
	})
	t.Cleanup(p.Stop)
	return p
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

// newPairedDrift returns a drift monitor with its event log, and a
// memory-only store that hands it every pair as it forms.
func newPairedDrift(t *testing.T) (*Drift, *EventLog, *store.Store) {
	t.Helper()
	reg := metrics.NewRegistry()
	events := newEventLog(16, reg, quietLog(), newTestClock().now)
	d := newDrift(reg, events)
	st, err := store.Open(store.Config{OnPair: d.ObservePair})
	if err != nil {
		t.Fatal(err)
	}
	return d, events, st
}

func TestDriftPairInBand(t *testing.T) {
	d, _, st := newPairedDrift(t)
	putPair(t, st, "wl-agree", syntheticCounts(10), syntheticCounts(10))
	status := d.Status()
	if status.Pairs != 1 || status.Samples == 0 {
		t.Fatalf("status = %+v", status)
	}
	if status.Violations != 0 || status.WorstRatio != 0 {
		t.Fatalf("identical records drifted: %+v", status)
	}
}

func TestDriftPairViolation(t *testing.T) {
	d, events, st := newPairedDrift(t)
	// 100 vs 10 mispredicts per 1000 instructions: 100 MPKI vs 10 MPKI
	// against BranchMPKI's band {Abs: 3.5, Rel: 0.60} → ratio ≈ 1.42.
	putPair(t, st, "wl-drift", syntheticCounts(100), syntheticCounts(10))
	status := d.Status()
	if status.Pairs != 1 {
		t.Fatalf("pairs = %d, want 1", status.Pairs)
	}
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

// TestDriftRestartDoesNotRealert: a store reopened from a snapshot
// that holds a violating pair hands the monitor no pair, so the
// restarted process raises no band_violation its predecessor already
// raised.
func TestDriftRestartDoesNotRealert(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.json")
	before, err := store.Open(store.Config{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	putPair(t, before, "wl-drift", syntheticCounts(100), syntheticCounts(10))
	if err := before.Save(); err != nil {
		t.Fatal(err)
	}

	reg := metrics.NewRegistry()
	events := newEventLog(16, reg, quietLog(), newTestClock().now)
	d := newDrift(reg, events)
	fired := 0
	after, err := store.Open(store.Config{Path: path, OnPair: func(k store.Key, a, x *machine.RawCounts) {
		fired++
		d.ObservePair(k, a, x)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if after.Len() != 2 {
		t.Fatalf("reloaded %d records, want 2", after.Len())
	}
	if fired != 0 {
		t.Errorf("OnPair fired %d times for a reloaded pair, want 0", fired)
	}
	if st := d.Status(); st.Pairs != 0 || st.Violations != 0 {
		t.Errorf("status after restart = %+v, want no pairs", st)
	}
	if evs := events.Events(EventBandViolation, time.Time{}, 0); len(evs) != 0 {
		t.Errorf("restart re-raised %d band_violation events", len(evs))
	}
}

func TestShedSpikeDetection(t *testing.T) {
	reg := metrics.NewRegistry()
	rejected := reg.CounterVec("spec17_admission_rejected_total", "rejections", "reason")
	clk := newTestClock()
	p := newTestPlane(t, reg, clk)

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

// TestTickAllocsIndependentOfSeries: a tick reads the one family it
// checks, so its allocations do not grow with the registry's other
// series.
func TestTickAllocsIndependentOfSeries(t *testing.T) {
	reg := metrics.NewRegistry()
	rejected := reg.CounterVec("spec17_admission_rejected_total", "rejections", "reason")
	rejected.With("inflight").Inc()
	rejected.With("rate_limited").Inc()
	p := newTestPlane(t, reg, newTestClock())
	few := testing.AllocsPerRun(100, p.Tick)

	requests := reg.CounterVec("spec17d_requests_total", "requests", "endpoint", "code")
	for i := 0; i < 200; i++ {
		requests.With("/v1/e"+strconv.Itoa(i), "200").Inc()
	}
	if many := testing.AllocsPerRun(100, p.Tick); many != few {
		t.Errorf("Tick allocates %v objects with 200 more series, %v without; want the same", many, few)
	}
}

func TestPlaneHooks(t *testing.T) {
	reg := metrics.NewRegistry()
	clk := newTestClock()
	p := newTestPlane(t, reg, clk)

	p.OnSlowTrace(&telemetry.TraceData{TraceID: "t1", DurationMS: 1234})
	p.OnCheckpointError(errors.New("disk full"))

	if got := len(p.Events().Events(EventSlowTrace, time.Time{}, 0)); got != 1 {
		t.Fatalf("slow_trace events = %d", got)
	}
	if got := len(p.Events().Events(EventCheckpointFailure, time.Time{}, 0)); got != 1 {
		t.Fatalf("checkpoint_failure events = %d", got)
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
