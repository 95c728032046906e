package experiments

import (
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/workloads"
)

func TestAblateLinkage(t *testing.T) {
	rows, err := AblateLinkage(lab(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 16 { // 4 suites x 4 linkages
		t.Fatalf("linkage ablation has %d rows, want 16", len(rows))
	}
	perSuite := make(map[workloads.Suite]map[cluster.Linkage]LinkageRow)
	for _, r := range rows {
		if len(r.Subset) != 3 {
			t.Errorf("%v/%v: subset size %d", r.Suite, r.Method, len(r.Subset))
		}
		if r.AvgError < 0 || r.AvgError > 1 {
			t.Errorf("%v/%v: error %v out of range", r.Suite, r.Method, r.AvgError)
		}
		if r.MostDistinct == "" {
			t.Errorf("%v/%v: empty most-distinct", r.Suite, r.Method)
		}
		if perSuite[r.Suite] == nil {
			perSuite[r.Suite] = make(map[cluster.Linkage]LinkageRow)
		}
		perSuite[r.Suite][r.Method] = r
	}
	// The most-distinct benchmark is a property of the geometry more
	// than the linkage: Ward and complete must agree for the INT
	// suites (mcf).
	for _, suite := range []workloads.Suite{workloads.SpeedINT, workloads.RateINT} {
		w := perSuite[suite][cluster.Ward].MostDistinct
		c := perSuite[suite][cluster.Complete].MostDistinct
		if w != c {
			t.Errorf("%v: Ward (%s) and complete (%s) disagree on most distinct", suite, w, c)
		}
	}
}

func TestSubsetSizeSweep(t *testing.T) {
	rows, err := SubsetSizeSweep(lab(t), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 20 { // 4 suites x 5 sizes
		t.Fatalf("sweep has %d rows, want 20", len(rows))
	}
	bySuite := make(map[workloads.Suite][]SubsetSizeRow)
	for _, r := range rows {
		bySuite[r.Suite] = append(bySuite[r.Suite], r)
	}
	for suite, rs := range bySuite {
		for i := 1; i < len(rs); i++ {
			if rs[i].K != rs[i-1].K+1 {
				t.Fatalf("%v: rows out of order", suite)
			}
		}
		// Reduction is not monotone in k (representatives change
		// identity between cuts), but every subset must save time and
		// the densest cut must save less than the sparsest possible.
		for _, r := range rs {
			if r.SimTimeReduction < 1 {
				t.Errorf("%v k=%d: reduction %v < 1", suite, r.K, r.SimTimeReduction)
			}
		}
		// The paper's trade-off: larger subsets predict at least as
		// well on average. Require k=5 to be no worse than 1.5x the
		// k=1 error (errors are small and noisy; the trend matters).
		if rs[4].AvgError > rs[0].AvgError*1.5+0.01 {
			t.Errorf("%v: error at k=5 (%v) much worse than at k=1 (%v)",
				suite, rs[4].AvgError, rs[0].AvgError)
		}
	}
}

func TestSubsetSizeSweepBadK(t *testing.T) {
	if _, err := SubsetSizeSweep(lab(t), 0); err == nil {
		t.Fatal("maxK=0 must error")
	}
}

func TestAblateScoreWeighting(t *testing.T) {
	rows, err := AblateScoreWeighting(lab(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("weighting ablation has %d rows, want 4", len(rows))
	}
	for _, r := range rows {
		if len(r.WeightedSubset) != 3 || len(r.UnweightedSubset) != 3 {
			t.Errorf("%v: subset sizes wrong", r.Suite)
		}
		if r.Agree != slices.Equal(r.WeightedSubset, r.UnweightedSubset) {
			t.Errorf("%v: Agree flag inconsistent", r.Suite)
		}
	}
}

func TestAblatePCSelection(t *testing.T) {
	rows, err := AblatePCSelection(lab(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("PC-selection ablation has %d rows, want 4", len(rows))
	}
	for _, r := range rows {
		if r.KaiserPCs < 1 || r.VariancePCs < 1 {
			t.Errorf("%v: degenerate PC counts %d/%d", r.Suite, r.KaiserPCs, r.VariancePCs)
		}
	}
}

func TestClusterWeights(t *testing.T) {
	res := core.SubsetResult{
		Clusters:        [][]string{{"a", "b", "c"}, {"d"}},
		Representatives: []string{"b", "d"},
	}
	w := clusterWeights(res)
	if len(w) != 2 || w[0] != 3 || w[1] != 1 {
		t.Fatalf("clusterWeights = %v, want [3 1]", w)
	}
}

func TestTable9Extended(t *testing.T) {
	tables, err := Table9Extended(lab(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 7 {
		t.Fatalf("extended sensitivity has %d structures, want 7", len(tables))
	}
	seen := map[string]bool{}
	for _, tb := range tables {
		if seen[tb.Structure] {
			t.Fatalf("duplicate structure %q", tb.Structure)
		}
		seen[tb.Structure] = true
		if total := len(tb.High) + len(tb.Medium) + len(tb.Low); total != 43 {
			t.Errorf("%s classifies %d benchmarks", tb.Structure, total)
		}
	}
}

func TestRateSpeedTreeSimilarity(t *testing.T) {
	rows, err := RateSpeedTreeSimilarity(lab(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("tree similarity has %d rows, want 2", len(rows))
	}
	if got := len(rows[0].Families); got != 10 {
		t.Fatalf("INT shares %d families, want 10", got)
	}
	if got := len(rows[1].Families); got != 9 {
		t.Fatalf("FP shares %d families, want 9", got)
	}
	// The paper: the rate INT dendrogram is "very similar" to speed's.
	if rows[0].Correlation < 0.6 {
		t.Errorf("INT rate/speed tree correlation %v, expected strong similarity", rows[0].Correlation)
	}
	for _, r := range rows {
		if r.Correlation < -1 || r.Correlation > 1 {
			t.Errorf("%s: correlation %v out of range", r.Pair, r.Correlation)
		}
	}
}

func TestRateScaling(t *testing.T) {
	rows, err := RateScaling(lab(t), nil, []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 { // 4 benchmarks x 2 copy counts
		t.Fatalf("rate scaling has %d rows, want 8", len(rows))
	}
	eff := map[string]map[int]float64{}
	for _, r := range rows {
		if eff[r.Benchmark] == nil {
			eff[r.Benchmark] = map[int]float64{}
		}
		eff[r.Benchmark][r.Copies] = r.Efficiency
		if r.Copies == 1 && (r.Efficiency < 0.999 || r.Efficiency > 1.001) {
			t.Errorf("%s: single-copy efficiency %v, want 1", r.Benchmark, r.Efficiency)
		}
		if r.Throughput <= 0 {
			t.Errorf("%s x%d: throughput %v", r.Benchmark, r.Copies, r.Throughput)
		}
	}
	// mcf (memory-bound) must scale worse than exchange2 (resident).
	if eff["505.mcf_r"][4] >= eff["548.exchange2_r"][4] {
		t.Errorf("mcf 4-copy efficiency (%v) should be below exchange2's (%v)",
			eff["505.mcf_r"][4], eff["548.exchange2_r"][4])
	}
	if eff["548.exchange2_r"][4] < 0.9 {
		t.Errorf("exchange2 should scale near-linearly, got %v", eff["548.exchange2_r"][4])
	}
}

func TestRateScalingErrors(t *testing.T) {
	if _, err := RateScaling(lab(t), nil, nil); err == nil {
		t.Fatal("no copy counts must error")
	}
	if _, err := RateScaling(lab(t), []string{"nope"}, []int{1}); err == nil {
		t.Fatal("unknown benchmark must error")
	}
}

func TestMeasurementNoise(t *testing.T) {
	rows, err := MeasurementNoise(lab(t), nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("noise analysis has %d rows, want 4", len(rows))
	}
	for _, r := range rows {
		if len(r.CV) != 6 {
			t.Errorf("%s: %d metrics", r.Benchmark, len(r.CV))
		}
		// Sampling noise must stay far below across-benchmark
		// differences (which span orders of magnitude): a 20% CV cap
		// validates the single-measurement methodology. The slack is
		// consumed almost entirely by near-zero branch metrics, whose
		// absolute wobble is fractions of one MPKI.
		if r.MaxCV > 0.20 {
			t.Errorf("%s: max metric CV %v across replicas, want < 0.20", r.Benchmark, r.MaxCV)
		}
	}
}

func TestMeasurementNoiseErrors(t *testing.T) {
	if _, err := MeasurementNoise(lab(t), nil, 1); err == nil {
		t.Fatal("replicas < 2 must error")
	}
	if _, err := MeasurementNoise(lab(t), []string{"nope"}, 2); err == nil {
		t.Fatal("unknown benchmark must error")
	}
}
