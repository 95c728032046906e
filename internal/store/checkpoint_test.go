package store

import (
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/telemetry"
)

// waitForCheckpoint polls until the store has performed at least n
// background saves.
func waitForCheckpoint(t *testing.T, s *Store, n float64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for s.met.checkpoints.Value() < n {
		if time.Now().After(deadline) {
			t.Fatalf("no background checkpoint after 10s (have %g, want %g)",
				s.met.checkpoints.Value(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCheckpointSurvivesCrash is the acceptance invariant: a record
// written before a checkpoint interval elapses is on disk without any
// explicit Save, so a kill -9 loses at most one interval of
// measurements. The "crash" is simulated by reopening the snapshot in
// a second store without ever calling Save on the first.
func TestCheckpointSurvivesCrash(t *testing.T) {
	path := filepath.Join(t.TempDir(), "measurements.json")
	s, err := Open(Config{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	stop := s.StartCheckpointing(10 * time.Millisecond)
	defer stop()

	m := testMachine(t)
	key := KeyFor(m, testWorkload(t, "505.mcf_r"), testOpts)
	rc, err := m.Run(testWorkload(t, "505.mcf_r"), testOpts)
	if err != nil {
		t.Fatal(err)
	}
	s.Put(key, rc)
	waitForCheckpoint(t, s, 1)

	// Crash: no Save, no stop — just reopen the file.
	s2, err := Open(Config{Path: path})
	if err != nil {
		t.Fatalf("reopening checkpointed snapshot: %v", err)
	}
	if _, ok := s2.Get(key); !ok {
		t.Fatal("record written before the checkpoint interval was lost")
	}
}

// TestCheckpointSkipsCleanIntervals: intervals with no new records
// write nothing (the snapshot mtime is untouched), and new records
// make the store dirty again.
func TestCheckpointSkipsCleanIntervals(t *testing.T) {
	path := filepath.Join(t.TempDir(), "measurements.json")
	s, err := Open(Config{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	if s.Dirty() {
		t.Error("fresh store reports dirty")
	}
	m := testMachine(t)
	w := testWorkload(t, "505.mcf_r")
	rc, err := m.Run(w, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	s.Put(KeyFor(m, w, testOpts), rc)
	if !s.Dirty() {
		t.Error("store with an unsaved record reports clean")
	}
	if err := s.Save(); err != nil {
		t.Fatal(err)
	}
	if s.Dirty() {
		t.Error("store reports dirty right after Save")
	}

	stop := s.StartCheckpointing(5 * time.Millisecond)
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // several clean intervals
	stop()
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if !after.ModTime().Equal(before.ModTime()) {
		t.Error("clean checkpoint intervals rewrote the snapshot")
	}
	if n := s.met.checkpoints.Value(); n != 0 {
		t.Errorf("clean intervals counted %g checkpoints", n)
	}
}

// TestCheckpointStopFlushes: stop performs one final save of anything
// recorded since the last tick.
func TestCheckpointStopFlushes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "measurements.json")
	s, err := Open(Config{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	// Interval far longer than the test: only stop's flush can save.
	stop := s.StartCheckpointing(time.Hour)
	m := testMachine(t)
	w := testWorkload(t, "505.mcf_r")
	rc, err := m.Run(w, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	key := KeyFor(m, w, testOpts)
	s.Put(key, rc)
	stop()
	stop() // idempotent

	s2, err := Open(Config{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Get(key); !ok {
		t.Fatal("stop did not flush the pending record")
	}
}

// TestCheckpointMemoryOnlyNoop: a store without a path neither
// checkpoints nor reports dirty.
func TestCheckpointMemoryOnlyNoop(t *testing.T) {
	s, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	stop := s.StartCheckpointing(time.Millisecond)
	m := testMachine(t)
	w := testWorkload(t, "505.mcf_r")
	rc, err := m.Run(w, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	s.Put(KeyFor(m, w, testOpts), rc)
	if s.Dirty() {
		t.Error("memory-only store reports dirty")
	}
	stop()
}

// TestCheckpointFailureLogsWarn: a failed checkpoint is a warning
// tagged component=store, so a warn-level logger still shows it. The
// snapshot directory is replaced by a plain file rather than made
// read-only, since mode bits do not stop a process running as root.
func TestCheckpointFailureLogsWarn(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "snap")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	var log strings.Builder
	s, err := Open(Config{
		Path: filepath.Join(dir, "measurements.json"),
		Log:  telemetry.NewLogger(&log, slog.LevelWarn),
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
	// Interval far longer than the test: only stop's flush saves.
	stop := s.StartCheckpointing(time.Hour)
	m := testMachine(t)
	w := testWorkload(t, "505.mcf_r")
	rc, err := m.Run(w, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	s.Put(KeyFor(m, w, testOpts), rc)
	stop()

	lines := strings.Split(strings.TrimSuffix(log.String(), "\n"), "\n")
	if len(lines) != 1 || !strings.Contains(lines[0], ` level=warn msg="checkpoint failed" component=store err=`) {
		t.Fatalf("log = %q, want one warn checkpoint line tagged component=store", log.String())
	}
}

// TestCheckpointFailureCounted: every failed background save raises
// spec17_store_checkpoint_failures_total, the counter an alert reads,
// and none counts as a checkpoint. A failed save leaves the store
// dirty, so each tick retries it and fails again.
func TestCheckpointFailureCounted(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "snap")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	s, err := Open(Config{
		Path:    filepath.Join(dir, "measurements.json"),
		Metrics: reg,
		Log:     telemetry.NewLogger(io.Discard, slog.LevelInfo),
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
	m := testMachine(t)
	w := testWorkload(t, "505.mcf_r")
	rc, err := m.Run(w, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	s.Put(KeyFor(m, w, testOpts), rc)

	stop := s.StartCheckpointing(5 * time.Millisecond)
	failures := func() float64 {
		return reg.Snapshot().Value("spec17_store_checkpoint_failures_total")
	}
	deadline := time.Now().Add(10 * time.Second)
	for failures() < 2 {
		if time.Now().After(deadline) {
			stop()
			t.Fatalf("failures counter = %g after 10s of failing ticks, want >= 2", failures())
		}
		time.Sleep(time.Millisecond)
	}
	stop()
	if n := reg.Snapshot().Value("spec17_store_checkpoints_total"); n != 0 {
		t.Errorf("failed saves counted %g checkpoints, want 0", n)
	}
	if !s.Dirty() {
		t.Error("store reports clean after every save failed")
	}
}
