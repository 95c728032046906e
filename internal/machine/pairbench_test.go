package machine_test

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/workloads"
)

// BenchmarkPairFleet finds the pair of every registry workload (input
// sets included) on every fleet machine: cold from an empty pair
// table, as a process's first characterization does, encoding each
// workload once and digesting each pair's contents; and warm, as every
// later one finds them interned.
func BenchmarkPairFleet(b *testing.B) {
	fleet, err := machine.Fleet()
	if err != nil {
		b.Fatal(err)
	}
	var ws []machine.Workload
	for _, p := range workloads.All() {
		ws = append(ws, p.Workload())
		for i := 1; p.InputSets > 1 && i <= p.InputSets; i++ {
			ws = append(ws, p.WorkloadInput(i))
		}
	}
	pairAll := func() {
		for _, w := range ws {
			for _, m := range fleet {
				m.PairOf(w)
			}
		}
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			machine.ForgetPairs()
			pairAll()
		}
	})
	b.Run("warm", func(b *testing.B) {
		pairAll()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pairAll()
		}
	})
}
