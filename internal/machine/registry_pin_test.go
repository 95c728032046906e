package machine_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"repro/internal/machine"
	"repro/internal/workloads"
)

// The registry pins hash every workload of the registry on every fleet
// machine at a sampled fidelity. The golden fixture pins a handful of
// hand-made workloads; these cover the real profiles, so any change
// that moves one simulated bit on any (benchmark, machine) pair —
// priming, state reuse, the trace generator — fails here. The
// constants come from the per-access priming loop and freshly built
// simulator state per run.
const (
	registryCountsSHA = "fc6ee7e35d377cf6e823c445b3f205e49db3e13eaf386701cfd7acfba4b5e87c"
	registryMultiSHA  = "07d1bef9cc91b9c783d2631220ea050657647164c989380862ac588cf95ddf63"
)

var pinOpts = machine.RunOptions{Instructions: 20_000, WarmupInstructions: 4_000}

func pinFleet(t *testing.T) []*machine.Machine {
	t.Helper()
	fleet, err := machine.Fleet()
	if err != nil {
		t.Fatal(err)
	}
	return fleet
}

// TestRegistryCountsPinned hashes json.Marshal(*RawCounts) for
// workloads.All() × Fleet(), in that order.
func TestRegistryCountsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("registry sweep")
	}
	fleet := pinFleet(t)
	h := sha256.New()
	for _, p := range workloads.All() {
		for _, m := range fleet {
			rc, err := m.Run(p.Workload(), pinOpts)
			if err != nil {
				t.Fatalf("%s on %s: %v", p.Name, m.Name(), err)
			}
			b, err := json.Marshal(*rc)
			if err != nil {
				t.Fatal(err)
			}
			h.Write(b)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != registryCountsSHA {
		t.Errorf("registry RawCounts hash = %s, want %s", got, registryCountsSHA)
	}
}

// TestRegistryMultiPinned hashes json.Marshal(*MultiCounts) for every
// 7th registry workload × Fleet() × copies {1, 2, 4}, in that order.
func TestRegistryMultiPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("registry sweep")
	}
	fleet := pinFleet(t)
	h := sha256.New()
	for i, p := range workloads.All() {
		if i%7 != 0 {
			continue
		}
		for _, m := range fleet {
			for _, copies := range []int{1, 2, 4} {
				mc, err := m.RunMulti(p.Workload(), copies, pinOpts)
				if err != nil {
					t.Fatalf("%s on %s ×%d: %v", p.Name, m.Name(), copies, err)
				}
				b, err := json.Marshal(*mc)
				if err != nil {
					t.Fatal(err)
				}
				h.Write(b)
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != registryMultiSHA {
		t.Errorf("registry MultiCounts hash = %s, want %s", got, registryMultiSHA)
	}
}

// BenchmarkExactLeaf measures one exact leaf per op at the sampled
// fidelity of the registry pins, cycling through workloads.All() ×
// Fleet() so every op is a different (benchmark, machine) pair. At this
// fidelity a leaf's fixed cost — building or clearing simulator state,
// priming the caches, seeding the trace generator — is most of its
// time, which is what this benchmark watches.
func BenchmarkExactLeaf(b *testing.B) {
	fleet, err := machine.Fleet()
	if err != nil {
		b.Fatal(err)
	}
	profiles := workloads.All()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := profiles[i/len(fleet)%len(profiles)]
		if _, err := fleet[i%len(fleet)].Run(p.Workload(), pinOpts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunMulti measures one 4-copy (SPECrate-style) leaf per op at
// the registry pins' sampled fidelity, cycling through workloads.All()
// × Fleet() like BenchmarkExactLeaf. RunMulti builds fresh simulator
// state for every run — private L1/L2 caches, TLBs and predictors per
// copy, one shared L3 — and primes each copy, so this watches what
// that fixed cost adds to a multi-copy leaf.
func BenchmarkRunMulti(b *testing.B) {
	fleet, err := machine.Fleet()
	if err != nil {
		b.Fatal(err)
	}
	profiles := workloads.All()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := profiles[i/len(fleet)%len(profiles)]
		if _, err := fleet[i%len(fleet)].RunMulti(p.Workload(), 4, pinOpts); err != nil {
			b.Fatal(err)
		}
	}
}
