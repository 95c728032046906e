package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/counters"
)

// SensitivityClass buckets a benchmark's configuration sensitivity,
// per the paper's Table IX.
type SensitivityClass int

// Sensitivity classes, from least to most sensitive.
const (
	LowSensitivity SensitivityClass = iota
	MediumSensitivity
	HighSensitivity
)

// String returns the class name used in Table IX.
func (s SensitivityClass) String() string {
	switch s {
	case LowSensitivity:
		return "Low"
	case MediumSensitivity:
		return "Medium"
	case HighSensitivity:
		return "High"
	default:
		return fmt.Sprintf("SensitivityClass(%d)", int(s))
	}
}

// SensitivityResult ranks workloads by how much their metric moves
// across machines, normalized by its magnitude.
type SensitivityResult struct {
	Metric counters.Metric
	// Spread maps each label to its cross-machine dispersion (the
	// coefficient of variation of the metric across the machine set);
	// larger = more configuration-sensitive. The paper ranks by
	// cross-machine rank differences; the coefficient of variation is
	// the continuous analogue and is stable for benchmarks pinned at
	// the extremes of the ranking.
	Spread map[string]float64
	// Class maps each label to its Low/Medium/High bucket.
	Class map[string]SensitivityClass
}

// Labels returns the workloads of one class, sorted by descending
// spread (ties lexicographic).
func (r *SensitivityResult) Labels(class SensitivityClass) []string {
	var out []string
	for l, cl := range r.Class {
		if cl == class {
			out = append(out, l)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if r.Spread[out[i]] != r.Spread[out[j]] {
			return r.Spread[out[i]] > r.Spread[out[j]]
		}
		return out[i] < out[j]
	})
	return out
}

// Sensitivity implements the paper's Section V-G analysis: a workload
// whose metric moves a lot across differently-configured machines is
// sensitive to that structure's configuration; one whose metric is
// stable (whether uniformly good or uniformly bad — leela's branches
// are poor on every predictor) is insensitive. Dispersion is measured
// as the coefficient of variation of the metric across machines; the
// top ~15% of workloads are High, the next ~35% Medium, the rest Low.
func (c *Characterization) Sensitivity(metric counters.Metric, machines []string) (*SensitivityResult, error) {
	if machines == nil {
		machines = c.MachineNames
	}
	if len(machines) < 2 {
		return nil, fmt.Errorf("core: sensitivity needs at least 2 machines")
	}
	n := len(c.Labels)
	if n < 3 {
		return nil, fmt.Errorf("core: sensitivity needs at least 3 workloads")
	}

	res := &SensitivityResult{
		Metric: metric,
		Spread: make(map[string]float64, n),
		Class:  make(map[string]SensitivityClass, n),
	}
	// floor keeps near-zero metrics from reporting explosive relative
	// variation: differences below it are measurement noise.
	floor := metricFloor(metric)
	spreads := make([]float64, 0, n)
	for _, l := range c.Labels {
		vals, err := c.MetricAcross(l, metric, machines)
		if err != nil {
			return nil, err
		}
		mean, sd := meanStddev(vals)
		cv := sd / (mean + floor)
		res.Spread[l] = cv
		spreads = append(spreads, cv)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(spreads)))
	highCut := spreads[(n-1)*15/100] // ~top 15%
	medCut := spreads[(n-1)*50/100]  // next ~35%
	for _, l := range c.Labels {
		switch sp := res.Spread[l]; {
		case sp >= highCut:
			res.Class[l] = HighSensitivity
		case sp > medCut:
			res.Class[l] = MediumSensitivity
		default:
			res.Class[l] = LowSensitivity
		}
	}
	return res, nil
}

// metricFloor returns the noise floor used to regularize the
// coefficient of variation, in the metric's own units.
func metricFloor(metric counters.Metric) float64 {
	switch metric {
	case counters.ITLBMPMI, counters.DTLBMPMI, counters.L2TLBMPMI, counters.PageWalksPMI:
		return 100 // per-million-instruction metrics
	default:
		return 0.5 // per-kilo-instruction metrics
	}
}

func meanStddev(xs []float64) (mean, sd float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		d := x - mean
		sd += float64(d * d)
	}
	sd = math.Sqrt(sd / float64(len(xs)))
	return mean, sd
}
