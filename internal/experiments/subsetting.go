package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/perfdb"
	"repro/internal/workloads"
)

// DendrogramResult packages one of the paper's dendrogram figures
// (Figures 2, 3, 4, and 13).
type DendrogramResult struct {
	Suite workloads.Suite
	// Similarity holds the fitted PCA + clustering.
	Similarity *core.Similarity `json:"-"`
	// NumPCs and VarCovered report the Kaiser-selected dimensionality,
	// quoted in the figure captions ("seven PCs that cover more than
	// 91% of the variance").
	NumPCs     int
	VarCovered float64
	// MostDistinct is the benchmark joining the tree last.
	MostDistinct string
	// Rendered is the ASCII dendrogram.
	Rendered string
}

func dendrogramFor(lab *Lab, suite workloads.Suite) (*DendrogramResult, error) {
	sim, err := fitSuite(lab, suite)
	if err != nil {
		return nil, err
	}
	return &DendrogramResult{
		Suite:        suite,
		Similarity:   sim,
		NumPCs:       sim.NumPCs,
		VarCovered:   sim.PCA.CumVarExplained[sim.NumPCs-1],
		MostDistinct: sim.MostDistinct(),
		Rendered:     sim.Dendrogram.Render(60),
	}, nil
}

// Fig2 reproduces Figure 2: the SPECspeed INT dendrogram.
func Fig2(lab *Lab) (*DendrogramResult, error) { return dendrogramFor(lab, workloads.SpeedINT) }

// Fig3 reproduces Figure 3: the SPECspeed FP dendrogram.
func Fig3(lab *Lab) (*DendrogramResult, error) { return dendrogramFor(lab, workloads.SpeedFP) }

// Fig4 reproduces Figure 4: the SPECrate FP dendrogram.
func Fig4(lab *Lab) (*DendrogramResult, error) { return dendrogramFor(lab, workloads.RateFP) }

// RateINTDendrogram is the SPECrate INT dendrogram the paper describes
// but omits for space.
func RateINTDendrogram(lab *Lab) (*DendrogramResult, error) {
	return dendrogramFor(lab, workloads.RateINT)
}

// SubsetRow is one row of Table V: a sub-suite's 3-benchmark subset.
type SubsetRow struct {
	Suite workloads.Suite
	// Subset holds the representative benchmarks.
	Subset []string
	// Clusters are the full cluster memberships at the cut.
	Clusters [][]string
	// CutHeight is where the vertical line falls in the dendrogram.
	CutHeight float64
	// SimTimeReduction is the suite-instructions / subset-instructions
	// ratio ("reduces the total simulation time by 5.6x").
	SimTimeReduction float64
}

// Table5 reproduces Table V: representative 3-benchmark subsets of the
// four CPU2017 sub-suites, with their simulation-time reductions.
func Table5(lab *Lab) ([]SubsetRow, error) {
	return perSuite(subSuites(), func(s workloads.Suite) (SubsetRow, error) {
		sim, err := fitSuite(lab, s)
		if err != nil {
			return SubsetRow{}, err
		}
		res := sim.Subset(3)
		red, err := simTimeReduction(s, res.Representatives)
		return SubsetRow{
			Suite:            s,
			Subset:           res.Representatives,
			Clusters:         res.Clusters,
			CutHeight:        res.CutHeight,
			SimTimeReduction: red,
		}, err
	})
}

// simTimeReduction is the Table V saving of simulating subset instead
// of its whole sub-suite, from the published instruction counts.
func simTimeReduction(suite workloads.Suite, subset []string) (float64, error) {
	icounts := make(map[string]float64)
	for _, p := range workloads.BySuite(suite) {
		icounts[p.Name] = p.DynInstrBillions
	}
	return core.SimulationTimeReduction(subset, SuiteNames(suite), icounts)
}

// ValidationRow is one sub-suite's subset-validation outcome —
// Figures 5 and 6 (per-system errors) and a Table VI column.
type ValidationRow struct {
	Suite workloads.Suite
	// Subset is the identified representative subset.
	Subset []string
	// Identified is the subset's error against the full-suite score on
	// every synthetic commercial system.
	Identified perfdb.Validation
	// Rand1 and Rand2 are the same measurement for the two random
	// subsets of Table VI.
	Rand1, Rand2 perfdb.Validation
	RandSet1     []string
	RandSet2     []string
}

func validateSuite(lab *Lab, suite workloads.Suite) (*ValidationRow, error) {
	sub, sim, err := lab.analyze(SuiteNames(suite), paperOptions())
	if err != nil {
		return nil, err
	}
	v, err := newValidator(sub, suite)
	if err != nil {
		return nil, err
	}
	res := sim.Subset(3)
	out := &ValidationRow{
		Suite:    suite,
		Subset:   res.Representatives,
		RandSet1: perfdb.RandomSubset(v.all, 3, 1),
		RandSet2: perfdb.RandomSubset(v.all, 3, 2),
	}
	if out.Identified, err = v.subset(res); err != nil {
		return nil, err
	}
	// Random subsets have no cluster structure and are scored with the
	// plain geomean.
	if out.Rand1, err = v.db.Validate(out.RandSet1, v.all); err != nil {
		return nil, err
	}
	if out.Rand2, err = v.db.Validate(out.RandSet2, v.all); err != nil {
		return nil, err
	}
	return out, nil
}

// validator scores subsets of one CPU2017 sub-suite against the
// whole sub-suite's score on the synthetic commercial systems of its
// submission category.
type validator struct {
	all []string
	db  *perfdb.DB
}

// newValidator builds the validator of a sub-suite from its
// characterization, sub, on the reference machine.
func newValidator(sub *core.Characterization, suite workloads.Suite) (*validator, error) {
	category := map[workloads.Suite]string{
		workloads.SpeedINT: "speed-int", workloads.RateINT: "rate-int",
		workloads.SpeedFP: "speed-fp", workloads.RateFP: "rate-fp",
	}[suite]
	if category == "" {
		return nil, fmt.Errorf("experiments: suite %v has no submission category", suite)
	}
	db, err := sub.BuildPerfDB(machine.Skylake, perfdb.SystemsFor(category))
	if err != nil {
		return nil, err
	}
	return &validator{all: sub.Labels, db: db}, nil
}

// subset scores a clustered subset with cluster-size weights: each
// representative stands for its whole cluster.
func (v *validator) subset(res core.SubsetResult) (perfdb.Validation, error) {
	return v.db.ValidateWeighted(res.Representatives, clusterWeights(res), v.all)
}

// clusterWeights maps a subset's representatives to their cluster
// sizes, in representative order.
func clusterWeights(res core.SubsetResult) []float64 {
	weights := make([]float64, len(res.Representatives))
	for i, rep := range res.Representatives {
		for _, cl := range res.Clusters {
			for _, member := range cl {
				if member == rep {
					weights[i] = float64(len(cl))
				}
			}
		}
	}
	return weights
}

// Fig5 reproduces Figure 5: validation of the SPECspeed INT and
// SPECrate INT subsets against commercial-system scores.
func Fig5(lab *Lab) ([]*ValidationRow, error) {
	return validateSuites(lab, workloads.SpeedINT, workloads.RateINT)
}

// Fig6 reproduces Figure 6: validation of the FP subsets.
func Fig6(lab *Lab) ([]*ValidationRow, error) {
	return validateSuites(lab, workloads.SpeedFP, workloads.RateFP)
}

func validateSuites(lab *Lab, suites ...workloads.Suite) ([]*ValidationRow, error) {
	return perSuite(suites, func(s workloads.Suite) (*ValidationRow, error) {
		return validateSuite(lab, s)
	})
}

// Table6Result is Table VI: one validation row per sub-suite. It is
// named so that renderers can tell it from Figures 5 and 6, which
// carry the same rows but present their per-system errors.
type Table6Result []*ValidationRow

// Table6 reproduces Table VI: identified-subset accuracy versus two
// random subsets across all four sub-suites.
func Table6(lab *Lab) (Table6Result, error) {
	return validateSuites(lab, subSuites()...)
}

// RenderTable6 formats Table VI.
func RenderTable6(rows []*ValidationRow) string {
	out := fmt.Sprintf("%-15s %12s %10s %10s\n", "suite", "identified", "rand-set1", "rand-set2")
	for _, r := range rows {
		out += fmt.Sprintf("%-15s %11.1f%% %9.1f%% %9.1f%%\n",
			r.Suite, r.Identified.Avg*100, r.Rand1.Avg*100, r.Rand2.Avg*100)
	}
	return out
}
