package core

import (
	"context"
	"testing"

	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/store"
	"repro/internal/workloads"
)

// maxColdAnalyticAllocsPerLeaf bounds the allocations of one leaf of a
// cold, untraced analytic characterization: its key, store flight and
// record, its estimate's counts, its sample, and its share of the
// maps and result. It measures 7.6 on the registry × fleet grid
// (4,257 per characterization of 560 leaves); the bound leaves ~20%
// headroom. Before the estimate stopped allocating its scratch, a leaf
// took 21.5.
const maxColdAnalyticAllocsPerLeaf = 9.1

// TestCharacterizeColdAnalyticAllocs holds a cold analytic
// characterization of every registry profile on the fleet, through a
// shared store and scheduler as the daemon runs it, to
// maxColdAnalyticAllocsPerLeaf. Each run asks for a fidelity no
// earlier run used, so every leaf misses the store and is estimated.
func TestCharacterizeColdAnalyticAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	fleet, err := machine.Fleet()
	if err != nil {
		t.Fatal(err)
	}
	var entries []Entry
	for _, p := range workloads.All() {
		entries = append(entries, Entry{Label: p.Name, Workload: p.Workload()})
	}
	st, err := store.Open(store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	q := sched.NewPool(0, nil).Queue(0)
	fidelity := 400_000
	allocs := testing.AllocsPerRun(10, func() {
		fidelity++
		opts := machine.RunOptions{Instructions: fidelity}
		if _, err = CharacterizeWith(context.Background(), entries, fleet, opts, st, q, engine.Analytic{}); err != nil {
			t.Fatal(err)
		}
	})
	perLeaf := allocs / float64(len(entries)*len(fleet))
	t.Logf("%.0f allocations per characterization, %.2f per leaf", allocs, perLeaf)
	if perLeaf > maxColdAnalyticAllocsPerLeaf {
		t.Errorf("%.2f allocations per cold analytic leaf, want at most %v", perLeaf, maxColdAnalyticAllocsPerLeaf)
	}
}
