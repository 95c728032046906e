package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/machine"
	"repro/internal/workloads"
)

// emptyFirstLevels empties the per-pair memo of split first-level
// times, so the next estimate of every pair solves them.
func emptyFirstLevels() { firstLevels = machine.PairMemo[pairTimes]{} }

// estimateJSON returns json.Marshal of w's estimate on m, the bytes
// TestAnalyticRegistryPinned hashes.
func estimateJSON(t *testing.T, m *machine.Machine, w machine.Workload, opts machine.RunOptions) []byte {
	t.Helper()
	rc, err := (Analytic{}).Measure(context.Background(), m, w, opts)
	if err != nil {
		t.Fatalf("%s on %s at %+v: %v", w.Key, m.Name(), opts, err)
	}
	b, err := json.Marshal(*rc)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// pinMachines is Fleet() then SensitivityFleet(), the machines
// TestAnalyticRegistryPinned estimates on.
func pinMachines(t *testing.T) []*machine.Machine {
	t.Helper()
	fleet, err := machine.Fleet()
	if err != nil {
		t.Fatal(err)
	}
	sens, err := machine.SensitivityFleet()
	if err != nil {
		t.Fatal(err)
	}
	return append(fleet, sens...)
}

// TestFirstLevelMemoBitIdentical: an estimate that reads its pair's
// split first-level times from the memo equals, bit for bit, one that
// solves them on an empty memo, on every registry entry, on Fleet()
// and SensitivityFleet(), at the pin's four fidelities. The memo is
// warmed at a fidelity none of them uses, so every warm estimate reads
// times solved at another fidelity.
func TestFirstLevelMemoBitIdentical(t *testing.T) {
	defer emptyFirstLevels()
	machines, entries := pinMachines(t), registryEntries()
	var cold [][]byte
	for _, w := range entries {
		for _, m := range machines {
			for _, opts := range pinFidelities {
				emptyFirstLevels()
				cold = append(cold, estimateJSON(t, m, w, opts))
			}
		}
	}

	emptyFirstLevels()
	distinct := make(map[machine.Pair]bool)
	for _, w := range entries {
		for _, m := range machines {
			estimateJSON(t, m, w, machine.RunOptions{Instructions: 400_001})
			distinct[m.PairOf(w)] = true
		}
	}
	if got := firstLevels.Len(); got != len(distinct) {
		t.Fatalf("memo holds %d entries after the warming sweep, want %d", got, len(distinct))
	}
	i := 0
	for _, w := range entries {
		for _, m := range machines {
			for _, opts := range pinFidelities {
				if warm := estimateJSON(t, m, w, opts); !bytes.Equal(warm, cold[i]) {
					t.Fatalf("%s on %s at %+v: memo-warm estimate\n%s\ndiffers from memo-empty\n%s",
						w.Key, m.Name(), opts, warm, cold[i])
				}
				i++
			}
		}
	}
	if got := firstLevels.Len(); got != len(distinct) {
		t.Errorf("memo holds %d entries after the pin's fidelities, want %d", got, len(distinct))
	}
}

// TestFirstLevelMemoBounded: a 50-fidelity sweep of the registry on
// the fleet leaves exactly one memo entry per distinct pair.
func TestFirstLevelMemoBounded(t *testing.T) {
	defer emptyFirstLevels()
	fleet, err := machine.Fleet()
	if err != nil {
		t.Fatal(err)
	}
	entries := registryEntries()
	sweeps := 50
	if raceEnabled {
		sweeps = 5
	}
	emptyFirstLevels()
	distinct := make(map[machine.Pair]bool)
	for k := 0; k < sweeps; k++ {
		opts := machine.RunOptions{Instructions: 2_000 + 7_919*k, WarmupInstructions: 311 * k}
		for _, w := range entries {
			for _, m := range fleet {
				if _, err := (Analytic{}).Measure(context.Background(), m, w, opts); err != nil {
					t.Fatalf("%s on %s at %+v: %v", w.Key, m.Name(), opts, err)
				}
				distinct[m.PairOf(w)] = true
			}
		}
		if got := firstLevels.Len(); got != len(distinct) {
			t.Fatalf("after %d fidelities: %d memo entries, want one per distinct pair, %d", k+1, got, len(distinct))
		}
	}
}

// TestFirstLevelMemoSkipsInvalid: a workload with a NaN field, or an
// infinite ILP, is rejected before its pair reaches the memo.
func TestFirstLevelMemoSkipsInvalid(t *testing.T) {
	defer emptyFirstLevels()
	fleet, err := machine.Fleet()
	if err != nil {
		t.Fatal(err)
	}
	emptyFirstLevels()
	for name, mutate := range map[string]func(*machine.Workload){
		"NaN ILP":      func(w *machine.Workload) { w.ILP = math.NaN() },
		"+Inf ILP":     func(w *machine.Workload) { w.ILP = math.Inf(1) },
		"NaN LoadFrac": func(w *machine.Workload) { w.Spec.LoadFrac = math.NaN() },
		"NaN HotFrac":  func(w *machine.Workload) { w.Spec.HotFrac = math.NaN() },
	} {
		w := workloads.All()[0].Workload()
		mutate(&w)
		for _, m := range fleet {
			if _, err := (Analytic{}).Measure(context.Background(), m, w, machine.RunOptions{}); err == nil {
				t.Errorf("%s on %s: no error", name, m.Name())
			}
		}
	}
	if got := firstLevels.Len(); got != 0 {
		t.Errorf("rejected workloads left %d memo entries, want 0", got)
	}
}

// TestFirstLevelMemoSignedZero: a workload whose zero spec fields are
// negative zeros has the same pair as the original, so it reads the
// original's memo entry; its estimate equals the one it makes on an
// empty memo, bit for bit, on every registry entry and fleet machine.
func TestFirstLevelMemoSignedZero(t *testing.T) {
	defer emptyFirstLevels()
	fleet, err := machine.Fleet()
	if err != nil {
		t.Fatal(err)
	}
	entries := 0
	for _, w := range registryEntries() {
		neg, flipped := w, 0
		spec := reflect.ValueOf(&neg.Spec).Elem()
		for i := 0; i < spec.NumField(); i++ {
			if f := spec.Field(i); f.Kind() == reflect.Float64 && f.Float() == 0 {
				f.SetFloat(math.Copysign(0, -1))
				flipped++
			}
		}
		if flipped == 0 {
			continue
		}
		entries++
		for _, m := range fleet {
			if m.PairOf(neg) != m.PairOf(w) {
				t.Fatalf("%s on %s: negative zeros changed the pair", w.Key, m.Name())
			}
			opts := machine.RunOptions{Instructions: 20_000, WarmupInstructions: 4_000}
			emptyFirstLevels()
			cold := estimateJSON(t, m, neg, opts)
			emptyFirstLevels()
			estimateJSON(t, m, w, machine.RunOptions{})
			if shared := estimateJSON(t, m, neg, opts); !bytes.Equal(shared, cold) {
				t.Fatalf("%s on %s: with negative zeros, the estimate from the original's entry\n%s\ndiffers from memo-empty\n%s",
					w.Key, m.Name(), shared, cold)
			}
		}
	}
	if entries == 0 {
		t.Fatal("no registry entry has a zero spec field to flip")
	}
	t.Logf("%d registry entries with negative zeros", entries)
}

// TestFirstLevelMemoConcurrent: goroutines estimating one pair at
// several fidelities on an empty memo, racing to solve and store its
// times, each get the serial memo-empty estimate. Run it under -race
// (make race-engine).
func TestFirstLevelMemoConcurrent(t *testing.T) {
	defer emptyFirstLevels()
	fleet, err := machine.Fleet()
	if err != nil {
		t.Fatal(err)
	}
	m, w := fleet[0], workloads.All()[0].Workload()
	want := make([][]byte, len(pinFidelities))
	for i, opts := range pinFidelities {
		emptyFirstLevels()
		want[i] = estimateJSON(t, m, w, opts)
	}
	emptyFirstLevels()
	const goroutines = 8
	got := make([][]byte, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rc, err := (Analytic{}).Measure(context.Background(), m, w, pinFidelities[g%len(pinFidelities)])
			if err != nil {
				errs[g] = err
				return
			}
			got[g], errs[g] = json.Marshal(*rc)
		}()
	}
	wg.Wait()
	for g := range got {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if !bytes.Equal(got[g], want[g%len(pinFidelities)]) {
			t.Errorf("goroutine %d at %+v: concurrent estimate differs from the serial one", g, pinFidelities[g%len(pinFidelities)])
		}
	}
	if n := firstLevels.Len(); n != 1 {
		t.Errorf("memo holds %d entries after estimating one pair, want 1", n)
	}
}
