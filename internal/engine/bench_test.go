package engine

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/machine"
	"repro/internal/workloads"
)

// registrySweep measures every registry workload on every fleet
// machine at default fidelity (400k instructions) — one op is the
// full sweep. The exact/analytic ns-per-op ratio is the analytic
// engine's headline number; `make bench-gate` pins it at ≥50×. With
// memoCold set, each op starts from an empty first-level memo, so it
// times a process's first sweep; otherwise every op after the first
// reads each pair's split first-level times from the memo.
func benchmarkRegistrySweep(b *testing.B, eng Engine, memoCold bool) {
	fleet, err := machine.Fleet()
	if err != nil {
		b.Fatal(err)
	}
	profiles := workloads.All()
	ctx := context.Background()
	opts := machine.RunOptions{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if memoCold {
			emptyFirstLevels()
		}
		for _, p := range profiles {
			w := p.Workload()
			for _, m := range fleet {
				if _, err := eng.Measure(ctx, m, w, opts); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

func BenchmarkExactRegistry(b *testing.B) { benchmarkRegistrySweep(b, Exact{}, false) }

func BenchmarkAnalyticRegistry(b *testing.B) {
	b.Run("memo-cold", func(b *testing.B) { benchmarkRegistrySweep(b, Analytic{}, true) })
	b.Run("memo-warm", func(b *testing.B) { benchmarkRegistrySweep(b, Analytic{}, false) })
}

// BenchmarkLevelMisses times the characteristic-time solver alone, per
// solve: over the 4096 levels needing a solve among seeded randomLevel
// draws, and over every level a registry sweep at default fidelity
// solves on the fleet's first machine. The sweep starts from an empty
// first-level memo, so it records the split first levels too, whatever
// ran before it in the process.
func BenchmarkLevelMisses(b *testing.B) {
	b.Run("random", func(b *testing.B) {
		r := rand.New(rand.NewSource(1))
		var levels []solveInput
		for len(levels) < 4096 {
			capacity, lineBytes, streams, arrival, _, _, _ := randomLevel(r, len(levels)%10 == 0)
			if sizes, mus, total := liveStreams(lineBytes, streams, arrival); len(sizes) > 0 && total > capacity {
				levels = append(levels, solveInput{capacity, sizes, mus})
			}
		}
		benchmarkSolves(b, levels)
	})
	b.Run("registry", func(b *testing.B) {
		fleet, err := machine.Fleet()
		if err != nil {
			b.Fatal(err)
		}
		var levels []solveInput
		emptyFirstLevels()
		recordSolve = func(capacity float64, sizes, mus []float64) {
			levels = append(levels, solveInput{capacity, sizes, mus})
		}
		for _, p := range workloads.All() {
			if _, err := (Analytic{}).Measure(context.Background(), fleet[0], p.Workload(), machine.RunOptions{}); err != nil {
				b.Fatal(err)
			}
		}
		recordSolve = nil
		benchmarkSolves(b, levels)
	})
}

// solveInput is one characteristic-time solve's inputs.
type solveInput struct {
	capacity   float64
	sizes, mus []float64
}

var solveSink float64

func benchmarkSolves(b *testing.B, levels []solveInput) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := levels[i%len(levels)]
		solveSink = characteristicTime(l.capacity, l.sizes, l.mus)
	}
}
