package engine

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"repro/internal/machine"
	"repro/internal/workloads"
)

// analyticRegistrySHA pins the analytic tier bit for bit: any change
// that moves one estimated count on any registry entry, machine or
// fidelity fails here. The analysis pins see the analytic tier only
// through their outputs, and only at default fidelity.
const analyticRegistrySHA = "72633b1f84bc22a7813b0f7dcd8606bb819f8f9a10e4ca14a8eb1b50c282379f"

// registryEntries lists every registry entry: each profile's primary
// input, then each of its input sets when it has several.
func registryEntries() []machine.Workload {
	var entries []machine.Workload
	for _, p := range workloads.All() {
		entries = append(entries, p.Workload())
		if p.InputSets > 1 {
			for i := 1; i <= p.InputSets; i++ {
				entries = append(entries, p.WorkloadInput(i))
			}
		}
	}
	return entries
}

// pinFidelities are the fidelities TestAnalyticRegistryPinned hashes.
var pinFidelities = []machine.RunOptions{
	{},
	{Instructions: 20_000, WarmupInstructions: 4_000},
	{Instructions: 5_000, WarmupInstructions: 1_000},
	{Instructions: 1_000, WarmupInstructions: 0},
}

// TestAnalyticRegistryPinned hashes json.Marshal(*RawCounts) for every
// registry entry (each profile's primary input, then each of its input
// sets when it has several) × Fleet() then SensitivityFleet() × four
// fidelities, in that order.
func TestAnalyticRegistryPinned(t *testing.T) {
	fleet, err := machine.Fleet()
	if err != nil {
		t.Fatal(err)
	}
	sens, err := machine.SensitivityFleet()
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, w := range registryEntries() {
		for _, m := range append(fleet, sens...) {
			for _, opts := range pinFidelities {
				rc, err := (Analytic{}).Measure(context.Background(), m, w, opts)
				if err != nil {
					t.Fatalf("%s on %s at %+v: %v", w.Key, m.Name(), opts, err)
				}
				b, err := json.Marshal(*rc)
				if err != nil {
					t.Fatal(err)
				}
				h.Write(b)
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != analyticRegistrySHA {
		t.Errorf("analytic registry RawCounts hash = %s, want %s", got, analyticRegistrySHA)
	}
}
