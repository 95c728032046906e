package experiments

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/workloads"
)

// RateScalingRow reports one benchmark's SPECrate-style throughput
// scaling at one copy count on the Skylake machine.
type RateScalingRow struct {
	Benchmark string
	Copies    int
	// Throughput is aggregate instructions per cycle.
	Throughput float64
	// Efficiency is Throughput / (copies * single-copy throughput):
	// 1 = perfect scaling.
	Efficiency float64
	// L3MPKIPerCopy is the first copy's LLC misses per kilo
	// instruction — the contention signal.
	L3MPKIPerCopy float64
}

// RateScalingBenchmarks are the default subjects: the suite's
// memory-bound extreme (mcf), a streaming grid code (lbm), a
// cache-resident code (exchange2), and a compute-bound code (x264).
var RateScalingBenchmarks = []string{
	"505.mcf_r", "519.lbm_r", "548.exchange2_r", "525.x264_r",
}

// RateScaling extends the paper's single-copy rate/speed analysis
// (Section IV-D) with what the real SPECrate harness does: run
// multiple concurrent copies. Copies share the LLC and memory;
// benchmarks whose per-copy working set fits the shared LLC only when
// alone (mcf) lose throughput per copy, while cache-resident
// benchmarks scale linearly.
func RateScaling(lab *Lab, benchmarks []string, copies []int) ([]RateScalingRow, error) {
	if len(copies) == 0 {
		return nil, fmt.Errorf("experiments: no copy counts")
	}
	if benchmarks == nil {
		benchmarks = RateScalingBenchmarks
	}
	sky, err := lab.refMachine()
	if err != nil {
		return nil, err
	}

	opts := machine.RunOptions{Instructions: 60_000, WarmupInstructions: 15_000}
	var rows []RateScalingRow
	for _, name := range benchmarks {
		p, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		single, err := lab.RunStoredMulti(sky, p.Workload(), 1, opts)
		if err != nil {
			return nil, err
		}
		for _, n := range copies {
			mc := single
			if n != 1 {
				mc, err = lab.RunStoredMulti(sky, p.Workload(), n, opts)
				if err != nil {
					return nil, err
				}
			}
			first := mc.PerCopy[0]
			rows = append(rows, RateScalingRow{
				Benchmark:     name,
				Copies:        n,
				Throughput:    mc.Throughput,
				Efficiency:    mc.ScalingEfficiency(single.Throughput),
				L3MPKIPerCopy: float64(first.Cache.L3Misses) / float64(first.Instructions) * 1e3,
			})
		}
	}
	return rows, nil
}
