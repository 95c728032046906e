package experiments

import (
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/workloads"
)

// TreeSimilarityRow quantifies the paper's remark that the SPECrate
// INT dendrogram (omitted from the paper for space) is "very similar"
// to the SPECspeed INT one: the cophenetic correlation between the two
// sub-suite dendrograms over their shared benchmark families.
type TreeSimilarityRow struct {
	// Pair names the compared sub-suites.
	Pair string
	// Families are the benchmark families present in both.
	Families []string
	// Correlation is the cophenetic correlation (1 = identical
	// similarity structure).
	Correlation float64
}

// RateSpeedTreeSimilarity compares the rate and speed dendrograms of
// both the INT and FP categories.
func RateSpeedTreeSimilarity(lab *Lab) ([]TreeSimilarityRow, error) {
	pairs := []struct {
		name        string
		rate, speed workloads.Suite
	}{
		{"INT rate vs speed", workloads.RateINT, workloads.SpeedINT},
		{"FP rate vs speed", workloads.RateFP, workloads.SpeedFP},
	}
	// The four fits, in pair order: rate then speed per pair.
	var suites []workloads.Suite
	for _, p := range pairs {
		suites = append(suites, p.rate, p.speed)
	}
	sims, err := perSuite(suites, func(s workloads.Suite) (*core.Similarity, error) {
		return fitSuite(lab, s)
	})
	if err != nil {
		return nil, err
	}
	var rows []TreeSimilarityRow
	for i, p := range pairs {
		rate, speed := sims[2*i], sims[2*i+1]
		// Pair by family: indices of each family's member in each tree.
		rateIdx := indexByBase(p.rate, rate.Labels)
		speedIdx := indexByBase(p.speed, speed.Labels)
		var families []string
		var ia, ib []int
		for base, ri := range rateIdx {
			si, ok := speedIdx[base]
			if !ok {
				continue
			}
			families = append(families, base)
			ia = append(ia, ri)
			ib = append(ib, si)
		}
		sortByFamily(families, ia, ib)
		corr, err := cluster.CopheneticCorrelation(rate.Dendrogram, speed.Dendrogram, ia, ib)
		if err != nil {
			return nil, err
		}
		rows = append(rows, TreeSimilarityRow{
			Pair: p.name, Families: families, Correlation: corr,
		})
	}
	return rows, nil
}

func indexByBase(suite workloads.Suite, labels []string) map[string]int {
	byName := make(map[string]string)
	for _, p := range workloads.BySuite(suite) {
		byName[p.Name] = p.Base
	}
	out := make(map[string]int)
	for i, l := range labels {
		if base, ok := byName[l]; ok {
			out[base] = i
		}
	}
	return out
}

// sortByFamily orders the three parallel slices by family name, so the
// result is deterministic regardless of map iteration order.
func sortByFamily(families []string, ia, ib []int) {
	for i := 1; i < len(families); i++ {
		for j := i; j > 0 && families[j] < families[j-1]; j-- {
			families[j], families[j-1] = families[j-1], families[j]
			ia[j], ia[j-1] = ia[j-1], ia[j]
			ib[j], ib[j-1] = ib[j-1], ib[j]
		}
	}
}
