package experiments

import (
	"fmt"
	"math"

	"repro/internal/counters"
	"repro/internal/machine"
	"repro/internal/workloads"
)

// NoiseRow quantifies sampling noise for one benchmark: the
// coefficient of variation of each headline metric across independent
// trace samples (different random streams, same statistical profile).
type NoiseRow struct {
	Benchmark string
	// CV maps metric name to stddev/mean across replicas.
	CV map[string]float64
	// MaxCV is the worst metric's coefficient of variation.
	MaxCV float64
}

// MeasurementNoise replicates the paper's implicit methodological
// assumption — that one measurement per (benchmark, machine) pair
// suffices — by re-measuring benchmarks with independent sampling
// streams and reporting the metric variation. For the similarity
// analysis to be meaningful, this within-benchmark noise must be far
// below the across-benchmark differences the clustering consumes.
func MeasurementNoise(lab *Lab, benchmarks []string, replicas int) ([]NoiseRow, error) {
	if replicas < 2 {
		return nil, fmt.Errorf("experiments: need at least 2 replicas, got %d", replicas)
	}
	if benchmarks == nil {
		benchmarks = []string{"505.mcf_r", "541.leela_r", "525.x264_r", "549.fotonik3d_r"}
	}
	sky, err := lab.refMachine()
	if err != nil {
		return nil, err
	}

	metrics := []counters.Metric{
		counters.L1DMPKI, counters.L2DMPKI, counters.L3MPKI,
		counters.L1IMPKI, counters.BranchMPKI, counters.DTLBMPMI,
	}
	opts := machine.RunOptions{Instructions: 120_000, WarmupInstructions: 30_000}
	var rows []NoiseRow
	for _, name := range benchmarks {
		p, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		values := make(map[string][]float64)
		for rep := 0; rep < replicas; rep++ {
			w := p.Workload()
			w.Key = fmt.Sprintf("%s#rep%d", w.Key, rep)
			rc, err := lab.RunStored(sky, w, opts)
			if err != nil {
				return nil, err
			}
			s, err := counters.FromRaw(sky.Name(), false, rc)
			if err != nil {
				return nil, err
			}
			for _, m := range metrics {
				values[string(m)] = append(values[string(m)], s.MustValue(m))
			}
		}
		row := NoiseRow{Benchmark: name, CV: make(map[string]float64, len(metrics))}
		for _, m := range metrics {
			cv := coefficientOfVariation(values[string(m)])
			row.CV[string(m)] = cv
			if cv > row.MaxCV {
				row.MaxCV = cv
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// coefficientOfVariation regularizes near-zero means with a floor of
// 0.5 (the per-kilo-instruction noise floor used by the sensitivity
// analysis).
func coefficientOfVariation(xs []float64) float64 {
	mean := 0.0
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	sd := 0.0
	for _, x := range xs {
		d := x - mean
		sd += float64(d * d)
	}
	sd = math.Sqrt(sd / float64(len(xs)))
	return sd / (mean + 0.5)
}
