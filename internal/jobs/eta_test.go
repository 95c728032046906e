package jobs

import (
	"context"
	"math"
	"testing"
	"time"
)

// TestETAFromCostModel pins the model-based ETA: before any item has
// finished, a job's eta_seconds is the configured per-item estimate
// times the remaining item waves at the job's concurrency — in job
// status, in the event-stream snapshot, and absent once terminal.
func TestETAFromCostModel(t *testing.T) {
	cfg := quietCfg(okRunner)
	var gotSpec Spec
	cfg.EstimateItemSeconds = func(spec Spec) float64 {
		gotSpec = spec
		return 2.5
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Not started: the job stays pending, so the estimate is purely
	// model-derived and deterministic.
	j, err := m.Submit(Spec{Experiments: []string{"a", "b", "c", "d", "e"}, Concurrency: 2, Instructions: 123})
	if err != nil {
		t.Fatal(err)
	}
	// 5 items, concurrency 2 → ceil(5/2) = 3 waves × 2.5s.
	if want := 7.5; j.ETASeconds != want {
		t.Fatalf("submitted job ETASeconds = %v, want %v", j.ETASeconds, want)
	}
	if gotSpec.Instructions != 123 {
		t.Fatalf("estimator saw spec %+v, want the submitted spec", gotSpec)
	}
	if g, _ := m.Get(j.ID); g.ETASeconds != 7.5 {
		t.Fatalf("Get ETASeconds = %v, want 7.5", g.ETASeconds)
	}
	snap, _, cancel, err := m.Subscribe(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	if snap.ETASeconds != 7.5 {
		t.Fatalf("event snapshot ETASeconds = %v, want 7.5", snap.ETASeconds)
	}

	// Run the job; once terminal the ETA disappears.
	m.Start()
	defer m.Close()
	fin := waitState(t, m, j.ID, StateDone)
	if fin.ETASeconds != 0 {
		t.Fatalf("terminal job ETASeconds = %v, want 0", fin.ETASeconds)
	}
}

// TestETAPrefersObservedRate pins the refinement: once items have
// finished, the observed mean item time replaces the model prior.
func TestETAPrefersObservedRate(t *testing.T) {
	gate := make(chan struct{})
	cfg := quietCfg(func(ctx context.Context, j Job, item string) error {
		if item == "second" {
			<-gate // hold the job mid-run
		}
		time.Sleep(15 * time.Millisecond)
		return nil
	})
	cfg.EstimateItemSeconds = func(Spec) float64 { return 1000 } // absurd prior
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	defer m.Close()
	j, err := m.Submit(Spec{Experiments: []string{"first", "second"}, Concurrency: 1})
	if err != nil {
		t.Fatal(err)
	}

	// Wait until the first item is done while "second" blocks on the gate.
	deadline := time.Now().Add(10 * time.Second)
	var eta float64
	for time.Now().Before(deadline) {
		g, ok := m.Get(j.ID)
		if !ok {
			t.Fatal("job vanished")
		}
		if done, _ := g.Counts(); done == 1 {
			eta = g.ETASeconds
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	// One ~15ms item observed, one remaining: the ETA must track the
	// observed rate (well under a second), not the 1000s prior.
	if eta <= 0 || eta >= 10 {
		t.Fatalf("mid-run ETASeconds = %v, want observed-rate estimate in (0, 10)", eta)
	}
	if math.IsNaN(eta) || math.IsInf(eta, 0) {
		t.Fatalf("mid-run ETASeconds = %v", eta)
	}
	close(gate)
	waitState(t, m, j.ID, StateDone)
}
