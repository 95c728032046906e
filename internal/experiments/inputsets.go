package experiments

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// inputSetLabels returns the dendrogram leaves for the input-set
// analysis of one benchmark group: multi-input benchmarks contribute
// one leaf per input ("name-i"), single-input benchmarks their plain
// name — matching the labelling convention of Figures 7 and 8.
func inputSetLabels(suites ...workloads.Suite) []string {
	var labels []string
	for _, s := range suites {
		for _, p := range workloads.BySuite(s) {
			if p.InputSets == 1 {
				labels = append(labels, p.Name)
				continue
			}
			for i := 1; i <= p.InputSets; i++ {
				labels = append(labels, p.InputLabel(i))
			}
		}
	}
	return labels
}

// InputSetResult is the outcome of an input-set similarity analysis
// (Figure 7 for INT, Figure 8 for FP).
type InputSetResult struct {
	Similarity *core.Similarity `json:"-"`
	NumPCs     int
	VarCovered float64
	Rendered   string
	// Cohesion maps each multi-input benchmark to the maximum pairwise
	// distance among its own inputs divided by the median pairwise
	// distance over all leaves: values well below 1 confirm the
	// paper's finding that inputs of the same benchmark cluster
	// together.
	Cohesion map[string]float64
}

func inputSetAnalysis(lab *Lab, suites ...workloads.Suite) (*InputSetResult, error) {
	labels := inputSetLabels(suites...)
	_, sim, err := lab.analyze(labels, paperOptions())
	if err != nil {
		return nil, err
	}
	med, err := sim.MedianPairwiseDistance(labels)
	if err != nil {
		return nil, err
	}
	cohesion := make(map[string]float64)
	for _, s := range suites {
		for _, p := range workloads.BySuite(s) {
			if p.InputSets == 1 {
				continue
			}
			maxD := 0.0
			for i := 1; i <= p.InputSets; i++ {
				for j := i + 1; j <= p.InputSets; j++ {
					d, err := sim.EuclideanDistance(p.InputLabel(i), p.InputLabel(j))
					if err != nil {
						return nil, err
					}
					if d > maxD {
						maxD = d
					}
				}
			}
			cohesion[p.Name] = maxD / med
		}
	}
	return &InputSetResult{
		Similarity: sim,
		NumPCs:     sim.NumPCs,
		VarCovered: sim.PCA.CumVarExplained[sim.NumPCs-1],
		Rendered:   sim.Dendrogram.Render(60),
		Cohesion:   cohesion,
	}, nil
}

// Fig7 reproduces Figure 7: similarity between the input sets of all
// CPU2017 INT benchmarks (rate and speed).
func Fig7(lab *Lab) (*InputSetResult, error) {
	return inputSetAnalysis(lab, workloads.RateINT, workloads.SpeedINT)
}

// Fig8 reproduces Figure 8: similarity between the input sets of the
// CPU2017 FP benchmarks (bwaves is the only multi-input FP family).
func Fig8(lab *Lab) (*InputSetResult, error) {
	return inputSetAnalysis(lab, workloads.RateFP, workloads.SpeedFP)
}

// RepresentativeInput is one row of Table VII.
type RepresentativeInput struct {
	Benchmark string
	// Input is the 1-based index of the input set closest to the
	// benchmark's aggregate behaviour (the centroid of its inputs).
	Input int
}

// Table7 reproduces Table VII: the most representative input set of
// every multi-input CPU2017 benchmark, chosen as the input whose PC
// coordinates lie closest to the benchmark's aggregate (centroid).
func Table7(lab *Lab) ([]RepresentativeInput, error) {
	intRes, err := Fig7(lab)
	if err != nil {
		return nil, err
	}
	fpRes, err := Fig8(lab)
	if err != nil {
		return nil, err
	}
	var rows []RepresentativeInput
	pick := func(res *InputSetResult, suites ...workloads.Suite) error {
		for _, s := range suites {
			for _, p := range workloads.BySuite(s) {
				if p.InputSets == 1 {
					continue
				}
				best, err := closestToCentroid(res.Similarity, p)
				if err != nil {
					return err
				}
				rows = append(rows, RepresentativeInput{Benchmark: p.Name, Input: best})
			}
		}
		return nil
	}
	if err := pick(intRes, workloads.RateINT, workloads.SpeedINT); err != nil {
		return nil, err
	}
	if err := pick(fpRes, workloads.RateFP, workloads.SpeedFP); err != nil {
		return nil, err
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Benchmark < rows[j].Benchmark })
	return rows, nil
}

func closestToCentroid(sim *core.Similarity, p workloads.Profile) (int, error) {
	points := make([][]float64, 0, p.InputSets)
	for i := 1; i <= p.InputSets; i++ {
		idx := indexOf(sim.Labels, p.InputLabel(i))
		if idx < 0 {
			return 0, fmt.Errorf("experiments: input label %q missing", p.InputLabel(i))
		}
		points = append(points, sim.Points[idx])
	}
	dim := len(points[0])
	centroid := make([]float64, dim)
	for _, pt := range points {
		for d, v := range pt {
			centroid[d] += v
		}
	}
	for d := range centroid {
		centroid[d] /= float64(len(points))
	}
	best, bestD := 1, math.Inf(1)
	for i, pt := range points {
		if d := stats.Euclidean(pt, centroid); d < bestD {
			best, bestD = i+1, d
		}
	}
	return best, nil
}

func indexOf(labels []string, want string) int {
	for i, l := range labels {
		if l == want {
			return i
		}
	}
	return -1
}

// RateSpeedRow compares one benchmark family's rate and speed versions
// (Section IV-D).
type RateSpeedRow struct {
	Base  string
	Rate  string
	Speed string
	// Distance is the Euclidean distance between the two versions in
	// the reduced PC space; Divergent marks distances above the
	// divergence threshold (the median pairwise distance of the
	// analysis set).
	Distance  float64
	Divergent bool
}

// RateSpeed reproduces the Section IV-D comparison: for every family
// with both versions, how far apart do rate and speed land?
func RateSpeed(lab *Lab) ([]RateSpeedRow, error) {
	pairs := workloads.RateSpeedPairs()
	var labels []string
	for _, pr := range pairs {
		labels = append(labels, pr[0].Name, pr[1].Name)
	}
	_, sim, err := lab.analyze(labels, paperOptions())
	if err != nil {
		return nil, err
	}
	// A pair diverges when its distance clearly exceeds the typical
	// rate/speed pair distance (1.5x the median over the 19 pairs).
	dists := make([]float64, 0, len(pairs))
	for _, pr := range pairs {
		d, err := sim.EuclideanDistance(pr[0].Name, pr[1].Name)
		if err != nil {
			return nil, err
		}
		dists = append(dists, d)
	}
	sorted := append([]float64(nil), dists...)
	sort.Float64s(sorted)
	threshold := 1.5 * sorted[len(sorted)/2]
	var rows []RateSpeedRow
	for i, pr := range pairs {
		rows = append(rows, RateSpeedRow{
			Base: pr[0].Base, Rate: pr[0].Name, Speed: pr[1].Name,
			Distance: dists[i], Divergent: dists[i] > threshold,
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Distance > rows[j].Distance })
	return rows, nil
}
