package experiments

import (
	"fmt"
	"slices"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/workloads"
)

// This file holds ablations of the methodology's design choices.
// None of them is in the paper; they quantify how much each choice —
// linkage method, variance weighting of PC scores, Kaiser criterion,
// subset size — matters to the headline results.

// LinkageRow reports one (suite, linkage) subsetting outcome.
type LinkageRow struct {
	Suite workloads.Suite
	// Method is the linkage used for the hierarchical clustering.
	Method cluster.Linkage
	// Subset is the 3-benchmark subset under that linkage.
	Subset []string
	// AvgError is the subset's weighted validation error against the
	// full suite, averaged over the synthetic commercial systems.
	AvgError float64
	// MostDistinct is the benchmark merging last under that linkage.
	MostDistinct string
}

// AblateLinkage re-derives the Table V subsets under all four linkage
// methods. The paper uses Ward; single linkage is known to chain, and
// this ablation shows what that does to subset quality.
func AblateLinkage(lab *Lab) ([]LinkageRow, error) {
	var rows []LinkageRow
	for _, suite := range subSuites() {
		sub, _, err := lab.analyze(SuiteNames(suite), nil)
		if err != nil {
			return nil, err
		}
		v, err := newValidator(sub, suite)
		if err != nil {
			return nil, err
		}
		for _, method := range []cluster.Linkage{cluster.Single, cluster.Complete, cluster.Average, cluster.Ward} {
			opts := paperOptions()
			opts.Linkage = method
			_, sim, err := lab.analyze(v.all, opts)
			if err != nil {
				return nil, err
			}
			res := sim.Subset(3)
			val, err := v.subset(res)
			if err != nil {
				return nil, err
			}
			rows = append(rows, LinkageRow{
				Suite:        suite,
				Method:       method,
				Subset:       res.Representatives,
				AvgError:     val.Avg,
				MostDistinct: sim.MostDistinct(),
			})
		}
	}
	return rows, nil
}

// SubsetSizeRow reports subset quality at one size k.
type SubsetSizeRow struct {
	Suite workloads.Suite
	K     int
	// AvgError is the weighted validation error at this size.
	AvgError float64
	// SimTimeReduction is total-suite instructions over subset
	// instructions.
	SimTimeReduction float64
}

// SubsetSizeSweep quantifies the paper's remark that "including more
// benchmarks in the subset can reduce the prediction error, but will
// also increase the simulation time": it derives subsets of size
// 1..maxK per sub-suite and reports error and simulation-time
// reduction at each size.
func SubsetSizeSweep(lab *Lab, maxK int) ([]SubsetSizeRow, error) {
	if maxK < 1 {
		return nil, fmt.Errorf("experiments: maxK %d", maxK)
	}
	var rows []SubsetSizeRow
	for _, suite := range subSuites() {
		sub, sim, err := lab.analyze(SuiteNames(suite), paperOptions())
		if err != nil {
			return nil, err
		}
		v, err := newValidator(sub, suite)
		if err != nil {
			return nil, err
		}
		for k := 1; k <= min(maxK, len(v.all)); k++ {
			res := sim.Subset(k)
			val, err := v.subset(res)
			if err != nil {
				return nil, err
			}
			red, err := simTimeReduction(suite, res.Representatives)
			if err != nil {
				return nil, err
			}
			rows = append(rows, SubsetSizeRow{
				Suite: suite, K: k, AvgError: val.Avg, SimTimeReduction: red,
			})
		}
	}
	return rows, nil
}

// WeightingRow compares variance-weighted and unweighted PC scores.
type WeightingRow struct {
	Suite workloads.Suite
	// WeightedSubset / UnweightedSubset are the 3-benchmark subsets
	// under each scoring.
	WeightedSubset, UnweightedSubset []string
	// Agree reports whether the two subsets coincide.
	Agree bool
}

// AblateScoreWeighting re-derives the subsets with the
// sqrt-eigenvalue weighting of PC scores disabled. The weighting makes
// Euclidean distance respect each component's variance share; this
// ablation shows whether the headline subsets depend on it.
func AblateScoreWeighting(lab *Lab) ([]WeightingRow, error) {
	opts := paperOptions()
	opts.UnweightedScores = true
	return compareFits(lab, opts, func(suite workloads.Suite, weighted, unweighted *core.Similarity) WeightingRow {
		w := weighted.Subset(3).Representatives
		u := unweighted.Subset(3).Representatives
		return WeightingRow{
			Suite: suite, WeightedSubset: w, UnweightedSubset: u,
			Agree: slices.Equal(w, u),
		}
	})
}

// PCSelectionRow compares the Kaiser criterion against a cumulative
// variance target for dimensionality selection.
type PCSelectionRow struct {
	Suite workloads.Suite
	// KaiserPCs and VariancePCs are the retained component counts
	// under each rule (variance target 0.9).
	KaiserPCs, VariancePCs int
	// SubsetsAgree reports whether the 3-benchmark subsets coincide.
	SubsetsAgree bool
}

// AblatePCSelection compares Kaiser-criterion dimensionality against
// a 90% cumulative-variance target.
func AblatePCSelection(lab *Lab) ([]PCSelectionRow, error) {
	opts := paperOptions()
	opts.VarianceTarget = 0.9
	return compareFits(lab, opts, func(suite workloads.Suite, kaiser, variance *core.Similarity) PCSelectionRow {
		return PCSelectionRow{
			Suite:     suite,
			KaiserPCs: kaiser.NumPCs, VariancePCs: variance.NumPCs,
			SubsetsAgree: slices.Equal(
				kaiser.Subset(3).Representatives,
				variance.Subset(3).Representatives),
		}
	})
}

// compareFits fits each CPU2017 sub-suite the paper's way and under
// alt, and makes one row of each pair of fits.
func compareFits[R any](lab *Lab, alt *core.SimilarityOptions, row func(workloads.Suite, *core.Similarity, *core.Similarity) R) ([]R, error) {
	var rows []R
	for _, suite := range subSuites() {
		paper, err := fitSuite(lab, suite)
		if err != nil {
			return nil, err
		}
		_, other, err := lab.analyze(SuiteNames(suite), alt)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row(suite, paper, other))
	}
	return rows, nil
}
