package core

import (
	"context"
	"encoding/json"
	"path/filepath"
	"testing"

	"repro/internal/machine"
	"repro/internal/store"
	"repro/internal/workloads"
)

// TestStoreGoldenBitIdentical is the determinism invariant of the
// measurement store: characterizing through a store — cold compute, a
// snapshot round trip, and a warm replay — yields results bit-identical
// to characterizing with the store disabled.
func TestStoreGoldenBitIdentical(t *testing.T) {
	var entries []Entry
	for _, name := range []string{"505.mcf_r", "541.leela_r", "549.fotonik3d_r"} {
		p, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, Entry{Label: p.Name, Workload: p.Workload()})
	}
	machines := testMachines(t)
	opts := machine.RunOptions{Instructions: 40_000, WarmupInstructions: 10_000}

	bare, err := CharacterizeWith(context.Background(), entries, machines, opts, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "golden.json")
	cold, err := store.Open(store.Config{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	viaCold, err := CharacterizeWith(context.Background(), entries, machines, opts, cold, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := cold.Save(); err != nil {
		t.Fatal(err)
	}

	// Warm replay: a fresh store on the persisted snapshot must answer
	// every measurement from disk, simulating nothing.
	warm, err := store.Open(store.Config{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	viaWarm, err := CharacterizeWith(context.Background(), entries, machines, opts, warm, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := warm.Stats().Misses; n != 0 {
		t.Errorf("warm replay simulated %d times, want 0", n)
	}
	if n := warm.Stats().Hits; n != int64(len(entries)*len(machines)) {
		t.Errorf("warm hits = %d, want %d", n, len(entries)*len(machines))
	}

	for _, got := range []struct {
		name string
		c    *Characterization
	}{{"store-cold", viaCold}, {"store-warm", viaWarm}} {
		for _, e := range entries {
			for _, m := range machines {
				want, err := bare.Raw(e.Label, m.Name())
				if err != nil {
					t.Fatal(err)
				}
				rc, err := got.c.Raw(e.Label, m.Name())
				if err != nil {
					t.Fatal(err)
				}
				// Struct equality over every counter and float64
				// field: bit-identical, not approximately equal.
				if *rc != *want {
					t.Errorf("%s: %s on %s differs from store-off run:\n got %+v\nwant %+v",
						got.name, e.Label, m.Name(), rc, want)
				}
				ws, err := bare.Sample(e.Label, m.Name())
				if err != nil {
					t.Fatal(err)
				}
				gs, err := got.c.Sample(e.Label, m.Name())
				if err != nil {
					t.Fatal(err)
				}
				wj, _ := json.Marshal(ws)
				gj, _ := json.Marshal(gs)
				if string(wj) != string(gj) {
					t.Errorf("%s: derived sample %s on %s differs from store-off run", got.name, e.Label, m.Name())
				}
			}
		}
	}
}
