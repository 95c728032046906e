package experiments

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/store"
)

// BenchmarkCharacterizeColdAnalytic is the daemon's cold analytic
// characterization without HTTP: every registry entry on every fleet
// machine, through a shared store and scheduler, on the analytic
// engine. Each op asks for a fidelity no earlier op used, so every
// leaf whose key is new to the grid misses the store and is estimated.
func BenchmarkCharacterizeColdAnalytic(b *testing.B) {
	fleet, err := machine.Fleet()
	if err != nil {
		b.Fatal(err)
	}
	entries := Entries()
	st, err := store.Open(store.Config{})
	if err != nil {
		b.Fatal(err)
	}
	q := sched.NewPool(0, nil).Queue(0)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := machine.RunOptions{Instructions: 400_000 + i}
		if _, err := core.CharacterizeWith(ctx, entries, fleet, opts, st, q, engine.Analytic{}); err != nil {
			b.Fatal(err)
		}
	}
}
