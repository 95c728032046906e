package core

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/counters"
	"repro/internal/machine"
	"repro/internal/perfdb"
	"repro/internal/workloads"
)

// testFixture builds one small characterization shared by the tests in
// this package: six behaviourally distinct benchmarks on three
// machines, at reduced instruction counts.
var (
	fixtureOnce sync.Once
	fixture     *Characterization
	fixtureErr  error
)

var fixtureNames = []string{
	"505.mcf_r", "541.leela_r", "525.x264_r",
	"549.fotonik3d_r", "508.namd_r", "523.xalancbmk_r",
}

func testMachines(t *testing.T) []*machine.Machine {
	t.Helper()
	var ms []*machine.Machine
	for _, cfg := range []machine.Config{machine.SkylakeConfig(), machine.SparcT4Config(), machine.OpteronConfig()} {
		m, err := machine.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, m)
	}
	return ms
}

func getFixture(t *testing.T) *Characterization {
	t.Helper()
	fixtureOnce.Do(func() {
		var entries []Entry
		for _, name := range fixtureNames {
			p, err := workloads.ByName(name)
			if err != nil {
				fixtureErr = err
				return
			}
			entries = append(entries, Entry{Label: p.Name, Workload: p.Workload()})
		}
		fixture, fixtureErr = CharacterizeWith(context.Background(), entries, testMachines(t),
			machine.RunOptions{Instructions: 80_000, WarmupInstructions: 20_000}, nil, nil, nil)
	})
	if fixtureErr != nil {
		t.Fatal(fixtureErr)
	}
	return fixture
}

func TestCharacterizeShape(t *testing.T) {
	c := getFixture(t)
	if len(c.Labels) != len(fixtureNames) {
		t.Fatalf("labels %d, want %d", len(c.Labels), len(fixtureNames))
	}
	if len(c.MachineNames) != 3 {
		t.Fatalf("machines %d, want 3", len(c.MachineNames))
	}
	for _, l := range c.Labels {
		for _, m := range c.MachineNames {
			if _, err := c.Sample(l, m); err != nil {
				t.Fatalf("missing sample %s/%s: %v", l, m, err)
			}
			if _, err := c.Raw(l, m); err != nil {
				t.Fatalf("missing raw %s/%s: %v", l, m, err)
			}
		}
	}
}

func TestCharacterizeErrors(t *testing.T) {
	ms := testMachines(t)
	if _, err := CharacterizeWith(context.Background(), nil, ms, machine.RunOptions{}, nil, nil, nil); err == nil {
		t.Fatal("no entries must error")
	}
	p, _ := workloads.ByName("505.mcf_r")
	e := Entry{Label: "x", Workload: p.Workload()}
	if _, err := CharacterizeWith(context.Background(), []Entry{e}, nil, machine.RunOptions{}, nil, nil, nil); err == nil {
		t.Fatal("no machines must error")
	}
	if _, err := CharacterizeWith(context.Background(), []Entry{e, e}, ms, machine.RunOptions{}, nil, nil, nil); err == nil {
		t.Fatal("duplicate labels must error")
	}
	if _, err := CharacterizeWith(context.Background(), []Entry{{Label: "", Workload: p.Workload()}}, ms, machine.RunOptions{}, nil, nil, nil); err == nil {
		t.Fatal("empty label must error")
	}
	// Machine names key the results: a nil machine, an empty name or a
	// name given twice would lose a machine's measurements.
	opteron := machine.OpteronConfig()
	opteron.Name = ms[0].Name()
	renamed, err := machine.New(opteron)
	if err != nil {
		t.Fatal(err)
	}
	for name, fleet := range map[string][]*machine.Machine{
		"duplicate machine name": {ms[0], renamed},
		"empty machine name":     {ms[0], &machine.Machine{}},
		"nil machine":            {ms[0], nil},
	} {
		if _, err := CharacterizeWith(context.Background(), []Entry{e}, fleet, machine.RunOptions{Instructions: 1000}, nil, nil, nil); err == nil {
			t.Errorf("%s must error", name)
		}
	}
	bad := Entry{Label: "bad", Workload: machine.Workload{Key: "bad", ILP: 0}}
	if _, err := CharacterizeWith(context.Background(), []Entry{bad}, ms, machine.RunOptions{Instructions: 1000}, nil, nil, nil); err == nil {
		t.Fatal("invalid workload must surface an error")
	}
}

func TestCharacterizeDeterministicAcrossParallelism(t *testing.T) {
	p, _ := workloads.ByName("541.leela_r")
	entries := []Entry{{Label: p.Name, Workload: p.Workload()}}
	opts := machine.RunOptions{Instructions: 30_000, WarmupInstructions: 5_000}
	a, err := CharacterizeWith(context.Background(), entries, testMachines(t), opts, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CharacterizeWith(context.Background(), entries, testMachines(t), opts, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range a.MachineNames {
		ra, _ := a.Raw(p.Name, m)
		rb, _ := b.Raw(p.Name, m)
		if *ra != *rb {
			t.Fatalf("non-deterministic characterization on %s", m)
		}
	}
}

func TestMatrixShape(t *testing.T) {
	c := getFixture(t)
	m, cols, err := c.Matrix(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 19 base metrics on 3 machines + 3 power metrics on Skylake only.
	want := 19*3 + 3
	if m.Cols() != want || len(cols) != want {
		t.Fatalf("matrix has %d columns, want %d", m.Cols(), want)
	}
	if m.Rows() != len(fixtureNames) {
		t.Fatalf("matrix has %d rows", m.Rows())
	}
	// Column naming convention.
	if !strings.Contains(cols[0], ":") {
		t.Fatalf("column name %q missing machine prefix", cols[0])
	}
}

func TestMatrixMetricSubset(t *testing.T) {
	c := getFixture(t)
	m, cols, err := c.Matrix(counters.BranchMetrics(), []string{machine.Skylake})
	if err != nil {
		t.Fatal(err)
	}
	if m.Cols() != 3 || len(cols) != 3 {
		t.Fatalf("branch matrix has %d columns, want 3", m.Cols())
	}
	if _, _, err := c.Matrix(nil, []string{"no-such-machine"}); err == nil {
		t.Fatal("unknown machine must error")
	}
}

func TestSelectAndMerge(t *testing.T) {
	c := getFixture(t)
	sub, err := c.Select([]string{"505.mcf_r", "541.leela_r"})
	if err != nil {
		t.Fatal(err)
	}
	if len(sub.Labels) != 2 {
		t.Fatal("select failed")
	}
	if _, err := c.Select([]string{"nope"}); err == nil {
		t.Fatal("unknown label must error")
	}
	rest, err := c.Select([]string{"525.x264_r"})
	if err != nil {
		t.Fatal(err)
	}
	merged, err := sub.Merge(rest)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged.Labels) != 3 {
		t.Fatal("merge failed")
	}
	if _, err := sub.Merge(sub); err == nil {
		t.Fatal("duplicate merge must error")
	}
}

func TestMetricAcrossAndRange(t *testing.T) {
	c := getFixture(t)
	vals, err := c.MetricAcross("505.mcf_r", counters.L1DMPKI, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 3 {
		t.Fatalf("got %d values", len(vals))
	}
	min, max, err := c.MetricRange(c.Labels, machine.Skylake, counters.L1DMPKI)
	if err != nil {
		t.Fatal(err)
	}
	if min > max {
		t.Fatal("min > max")
	}
	if max < 20 {
		t.Fatalf("L1D MPKI max %v suspiciously low for a set containing mcf and fotonik3d", max)
	}
}

func TestBehaviouralSeparation(t *testing.T) {
	// The substrate must reproduce the paper's headline contrasts on
	// Skylake.
	c := getFixture(t)
	v := func(label string, m counters.Metric) float64 {
		s, err := c.Sample(label, machine.Skylake)
		if err != nil {
			t.Fatal(err)
		}
		return s.MustValue(m)
	}
	if v("505.mcf_r", counters.L1DMPKI) < 4*v("541.leela_r", counters.L1DMPKI) {
		t.Error("mcf should miss L1D far more than leela")
	}
	if v("549.fotonik3d_r", counters.L1DMPKI) < v("505.mcf_r", counters.L1DMPKI) {
		t.Error("fotonik3d should have the highest L1D MPKI")
	}
	if v("541.leela_r", counters.BranchMPKI) < v("508.namd_r", counters.BranchMPKI)*3 {
		t.Error("leela should mispredict far more than namd")
	}
	if v("523.xalancbmk_r", counters.PctBranch) < 25 {
		t.Error("xalancbmk should have ~33% branches")
	}
}

func TestSimilarityPipeline(t *testing.T) {
	c := getFixture(t)
	sim, err := c.Similarity(DefaultSimilarityOptions())
	if err != nil {
		t.Fatal(err)
	}
	if sim.NumPCs < 1 || sim.NumPCs > len(c.Labels)-1 {
		t.Fatalf("retained %d PCs for %d workloads", sim.NumPCs, len(c.Labels))
	}
	if len(sim.Points) != len(c.Labels) {
		t.Fatal("points/labels mismatch")
	}
	if sim.Dendrogram == nil || sim.Dendrogram.Root.Size() != len(c.Labels) {
		t.Fatal("dendrogram missing leaves")
	}
	// Subsetting invariants.
	res := sim.Subset(3)
	if len(res.Clusters) != 3 || len(res.Representatives) != 3 {
		t.Fatalf("subset = %+v", res)
	}
	total := 0
	for _, cl := range res.Clusters {
		total += len(cl)
	}
	if total != len(c.Labels) {
		t.Fatal("clusters must partition the workloads")
	}
	if res.CutHeight <= 0 {
		t.Fatal("cut height must be positive")
	}
}

func TestSimilarityMetricGroups(t *testing.T) {
	c := getFixture(t)
	sim, err := c.Similarity(SimilarityOptions{
		Metrics: counters.BranchMetrics(), Linkage: cluster.Ward,
	})
	if err != nil {
		t.Fatal(err)
	}
	// In branch space, leela (high mispredicts) should be far from
	// namd (predictable FP loops); x264 should be near namd.
	dLeelaNamd, err := sim.EuclideanDistance("541.leela_r", "508.namd_r")
	if err != nil {
		t.Fatal(err)
	}
	dX264Namd, err := sim.EuclideanDistance("525.x264_r", "508.namd_r")
	if err != nil {
		t.Fatal(err)
	}
	if dLeelaNamd < dX264Namd {
		t.Errorf("branch space: leela-namd (%v) should exceed x264-namd (%v)", dLeelaNamd, dX264Namd)
	}
}

func TestScatterPoints(t *testing.T) {
	c := getFixture(t)
	sim, _ := c.Similarity(DefaultSimilarityOptions())
	pts, err := sim.ScatterPoints(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(c.Labels) {
		t.Fatal("scatter points count wrong")
	}
	if _, err := sim.ScatterPoints(0, 999); err == nil {
		t.Fatal("out-of-range PC must error")
	}
	if cols := sim.DominantColumns(0, 3); len(cols) != 3 {
		t.Fatal("DominantColumns failed")
	}
}

func TestNearestNeighborAndMedian(t *testing.T) {
	c := getFixture(t)
	sim, _ := c.Similarity(DefaultSimilarityOptions())
	near, dist, err := sim.NearestNeighbor(
		[]string{"505.mcf_r"},
		[]string{"541.leela_r", "549.fotonik3d_r", "508.namd_r"})
	if err != nil {
		t.Fatal(err)
	}
	if near["505.mcf_r"] == "" || dist["505.mcf_r"] <= 0 {
		t.Fatalf("nearest = %v, dist = %v", near, dist)
	}
	med, err := sim.MedianPairwiseDistance(c.Labels)
	if err != nil {
		t.Fatal(err)
	}
	if med <= 0 {
		t.Fatal("median distance must be positive")
	}
	if _, err := sim.MedianPairwiseDistance([]string{"505.mcf_r"}); err == nil {
		t.Fatal("single label must error")
	}
	if _, _, err := sim.NearestNeighbor([]string{"nope"}, c.Labels); err == nil {
		t.Fatal("unknown query must error")
	}
}

func TestPairDistanceSymmetry(t *testing.T) {
	c := getFixture(t)
	sim, _ := c.Similarity(DefaultSimilarityOptions())
	ab, err := sim.PairDistance("505.mcf_r", "508.namd_r")
	if err != nil {
		t.Fatal(err)
	}
	ba, _ := sim.PairDistance("508.namd_r", "505.mcf_r")
	if ab != ba || ab <= 0 {
		t.Fatalf("pair distance %v/%v", ab, ba)
	}
}

func TestStacksAndPerfDB(t *testing.T) {
	c := getFixture(t)
	stacks, err := c.Stacks(machine.Skylake)
	if err != nil {
		t.Fatal(err)
	}
	if len(stacks) != len(c.Labels) {
		t.Fatal("stack count wrong")
	}
	// mcf's stack must be memory-dominated relative to x264's.
	if stacks["505.mcf_r"].Memory+stacks["505.mcf_r"].L3 <= stacks["525.x264_r"].Memory+stacks["525.x264_r"].L3 {
		t.Error("mcf should spend more CPI in memory than x264")
	}
	db, err := c.BuildPerfDB(machine.Skylake, perfdb.SystemsFor("rate-int"))
	if err != nil {
		t.Fatal(err)
	}
	v, err := db.Validate(c.Labels[:2], c.Labels)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(v.Avg) {
		t.Fatal("validation produced NaN")
	}
}

func TestSensitivity(t *testing.T) {
	c := getFixture(t)
	res, err := c.Sensitivity(counters.L1DMPKI, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Class) != len(c.Labels) {
		t.Fatal("every workload must be classified")
	}
	nHigh := len(res.Labels(HighSensitivity))
	if nHigh == 0 {
		t.Fatal("at least one workload must be High-sensitivity")
	}
	for _, l := range c.Labels {
		if res.Spread[l] < 0 {
			t.Fatal("negative spread")
		}
	}
	if _, err := c.Sensitivity(counters.L1DMPKI, []string{machine.Skylake}); err == nil {
		t.Fatal("single machine must error")
	}
}

func TestSimulationTimeReduction(t *testing.T) {
	icounts := map[string]float64{"a": 10, "b": 20, "c": 30}
	r, err := SimulationTimeReduction([]string{"a"}, []string{"a", "b", "c"}, icounts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-6) > 1e-12 {
		t.Fatalf("reduction = %v, want 6", r)
	}
	if _, err := SimulationTimeReduction([]string{"zz"}, []string{"a"}, icounts); err == nil {
		t.Fatal("unknown label must error")
	}
}

func TestSensitivityClassString(t *testing.T) {
	if LowSensitivity.String() != "Low" || MediumSensitivity.String() != "Medium" ||
		HighSensitivity.String() != "High" {
		t.Fatal("class names wrong")
	}
}
