package insight

import (
	"bytes"
	"context"
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

// putPair stores an analytic record and its exact twin for workload
// on a machine named test-machine, which no fleet machine is.
func putPair(t *testing.T, st *store.Store, workload string, analytic, exact *machine.RawCounts) store.Key {
	t.Helper()
	cfg := machine.SkylakeConfig()
	cfg.Name = "test-machine"
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := machine.Workload{Key: workload, ILP: 1}
	opts := machine.RunOptions{Instructions: 50_000, WarmupInstructions: 10_000}
	k := store.KeyForEngine(m, w, opts, "analytic")
	st.Put(k, analytic)
	st.Put(store.KeyForEngine(m, w, opts, "exact"), exact)
	return k
}

// newPairedDrift returns a drift monitor logging into logs, and a
// memory-only store that hands it every pair as it forms.
func newPairedDrift(t *testing.T) (*Drift, *lockedBuffer, *store.Store) {
	t.Helper()
	logs := new(lockedBuffer)
	d := NewDrift(metrics.NewRegistry(), telemetry.NewLogger(logs, slog.LevelInfo))
	st, err := store.Open(store.Config{OnPair: d.ObservePair})
	if err != nil {
		t.Fatal(err)
	}
	return d, logs, st
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
	d, logs, st := newPairedDrift(t)
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
	if n := logs.count("level=warn", "type=band_violation", "machine=test-machine",
		"workload=wl-drift", "metric=branch_mpki", "analytic=100", "exact=10", "ratio="); n != 1 {
		t.Fatalf("%d band_violation warn lines, want 1:\n%s", n, logs.String())
	}
}

// TestDriftPairLogsOnce: a pair with three metrics out of band counts
// three violations and logs one band_violation line, naming the worst
// metric, its ratio and the count out of band.
func TestDriftPairLogsOnce(t *testing.T) {
	d, logs, st := newPairedDrift(t)
	analytic := syntheticCounts(100)
	analytic.Cache.L1DMisses, analytic.Cache.L3Misses = 100, 50
	putPair(t, st, "wl-drift", analytic, syntheticCounts(10))
	status := d.Status()
	if status.Pairs != 1 || status.Violations != 3 {
		t.Fatalf("status = %+v, want 1 pair with 3 violations", status)
	}
	worst := status.Worst[0]
	if n := logs.count("type=band_violation"); n != 1 {
		t.Fatalf("%d band_violation lines for one pair, want 1:\n%s", n, logs.String())
	}
	ratio := strconv.FormatFloat(worst.WorstRatio, 'g', 4, 64)
	if n := logs.count("level=warn", "type=band_violation", "metric="+worst.Metric+" ", "ratio="+ratio, "out_of_band=3"); n != 1 {
		t.Errorf("the band_violation line does not name the worst metric %s at ratio %s and 3 out of band:\n%s",
			worst.Metric, ratio, logs.String())
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

	var logs lockedBuffer
	d := NewDrift(metrics.NewRegistry(), telemetry.NewLogger(&logs, slog.LevelInfo))
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
	if n := logs.count("type=band_violation"); n != 0 {
		t.Errorf("restart re-logged %d band violations", n)
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

func (w *lockedBuffer) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.String()
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

// TestAnomaliesLogOnce: with one logger and one registry shared by
// the tracer, the store and the drift monitor, as spec17d wires them,
// a slow trace, a failed checkpoint and a band violation each give one
// warn line, from the component that hit it, and each is still
// countable or served: the tracer's ring keeps the slow trace for
// /v1/traces?min_ms=, and the two counters rise.
func TestAnomaliesLogOnce(t *testing.T) {
	var logs lockedBuffer
	log := telemetry.NewLogger(&logs, slog.LevelInfo)
	reg := metrics.NewRegistry()
	drift := NewDrift(reg, log)

	tracer := telemetry.NewTracer(telemetry.TracerConfig{
		Capacity: 4, SlowThreshold: time.Nanosecond, Metrics: reg, Log: log,
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
		OnPair: drift.ObservePair,
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
	// 100 vs 10 mispredicts per 1000 instructions violates only
	// BranchMPKI's band.
	putPair(t, st, "wl-drift", syntheticCounts(100), syntheticCounts(10))
	st.StartCheckpointing(time.Hour)() // only stop's flush saves

	for _, msg := range []string{`msg="slow trace"`, `msg="checkpoint failed"`, `type=band_violation`} {
		if lines := logs.count("level=warn", msg); lines != 1 {
			t.Errorf("%s: %d warn lines, want 1", msg, lines)
		}
	}
	if got := logs.count("level=warn"); got != 3 {
		t.Errorf("%d warn lines, want 3 (one per anomaly):\n%s", got, logs.String())
	}
	if got := len(tracer.Traces(telemetry.Filter{MinDuration: time.Nanosecond})); got != 1 {
		t.Errorf("tracer ring holds %d slow traces, want 1", got)
	}
	snap := reg.Snapshot()
	for _, name := range []string{"spec17_store_checkpoint_failures_total", "spec17d_engine_drift_violations_total"} {
		if v := snap.Value(name); v != 1 {
			t.Errorf("%s = %g, want 1", name, v)
		}
	}
}
