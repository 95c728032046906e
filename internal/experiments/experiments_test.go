package experiments

import (
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/counters"
	"repro/internal/machine"
	"repro/internal/workloads"
)

// The test lab runs at reduced fidelity to keep the suite fast while
// preserving the qualitative shape the assertions check.
var (
	testLabOnce sync.Once
	testLab     *Lab
)

func lab(t *testing.T) *Lab {
	t.Helper()
	testLabOnce.Do(func() {
		testLab = NewLabWithEngine(machine.RunOptions{Instructions: 120_000, WarmupInstructions: 30_000}, nil, nil, nil)
	})
	if _, err := testLab.Characterization(); err != nil {
		t.Fatal(err)
	}
	return testLab
}

func TestEntriesUniqueAndComplete(t *testing.T) {
	entries := Entries()
	seen := make(map[string]bool)
	for _, e := range entries {
		if seen[e.Label] {
			t.Fatalf("duplicate entry label %q", e.Label)
		}
		seen[e.Label] = true
	}
	// 80 primary profiles + one entry per input set of multi-input
	// benchmarks.
	extra := 0
	for _, p := range workloads.All() {
		if p.InputSets > 1 {
			extra += p.InputSets
		}
	}
	if len(entries) != len(workloads.All())+extra {
		t.Fatalf("entries = %d, want %d", len(entries), len(workloads.All())+extra)
	}
}

func TestTable1(t *testing.T) {
	rows, err := Table1(lab(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 43 {
		t.Fatalf("Table 1 has %d rows, want 43", len(rows))
	}
	byName := make(map[string]Table1Row)
	for _, r := range rows {
		byName[r.Name] = r
		if r.PaperCPI == 0 {
			t.Errorf("%s missing paper CPI", r.Name)
		}
		// Measured mix must track the transcribed Table I mix.
		p, err := workloads.ByName(r.Name)
		if err != nil {
			t.Fatal(err)
		}
		if d := r.PctLoad - p.Spec.LoadFrac*100; d > 4 || d < -4 {
			t.Errorf("%s load%% measured %.1f vs spec %.1f", r.Name, r.PctLoad, p.Spec.LoadFrac*100)
		}
	}
	// CPI ordering sanity: mcf and omnetpp top the INT list (paper:
	// "mcf_r and omnetpp_r having the highest CPI among all").
	if byName["505.mcf_r"].CPI < byName["525.x264_r"].CPI*2 {
		t.Error("mcf CPI should dwarf x264's")
	}
	if byName["520.omnetpp_r"].CPI < byName["541.leela_r"].CPI {
		t.Error("omnetpp CPI should exceed leela's")
	}
}

func TestTable2Ranges(t *testing.T) {
	rows, err := Table2(lab(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 24 { // 6 metrics x 4 suites
		t.Fatalf("Table 2 has %d rows, want 24", len(rows))
	}
	get := func(suite workloads.Suite, metric string) RangeRow {
		for _, r := range rows {
			if r.Suite == suite && string(r.Metric) == metric {
				return r
			}
		}
		t.Fatalf("missing row %v/%s", suite, metric)
		return RangeRow{}
	}
	for _, r := range rows {
		if r.Min > r.Max {
			t.Errorf("%v %s: min %v > max %v", r.Suite, r.Metric, r.Min, r.Max)
		}
	}
	// Table II shape: FP has larger L1D maxima than INT (95-98 vs ~55);
	// INT has the larger L2D maxima (mcf ~20 vs FP ~7-8).
	if fp, in := get(workloads.RateFP, "l1d_mpki"), get(workloads.RateINT, "l1d_mpki"); fp.Max < in.Max {
		t.Errorf("rate FP L1D max (%v) should exceed rate INT (%v)", fp.Max, in.Max)
	}
	if in, fp := get(workloads.RateINT, "l2d_mpki"), get(workloads.RateFP, "l2d_mpki"); in.Max < fp.Max {
		t.Errorf("rate INT L2D max (%v) should exceed rate FP (%v)", in.Max, fp.Max)
	}
	// Branch misprediction maxima: INT well above FP.
	if in, fp := get(workloads.RateINT, "branch_mpki"), get(workloads.RateFP, "branch_mpki"); in.Max < fp.Max*2 {
		t.Errorf("INT branch MPKI max (%v) should dwarf FP (%v)", in.Max, fp.Max)
	}
}

func TestFig1Stacks(t *testing.T) {
	rows, err := Fig1(lab(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 23 {
		t.Fatalf("Figure 1 has %d bars, want 23 rate benchmarks", len(rows))
	}
	byName := make(map[string]StackRow)
	for _, r := range rows {
		byName[r.Name] = r
	}
	// mcf/omnetpp/xalancbmk/fotonik3d are back-end bound.
	for _, n := range []string{"505.mcf_r", "520.omnetpp_r", "549.fotonik3d_r"} {
		st := byName[n].Stack
		mem := st.L2 + st.L3 + st.Memory
		if mem < st.Total()*0.25 {
			t.Errorf("%s: memory share %.2f of %.2f CPI too low for a memory-bound benchmark",
				n, mem, st.Total())
		}
	}
	// imagick/blender: dependency stalls are the major cause.
	for _, n := range []string{"538.imagick_r", "526.blender_r"} {
		st := byName[n].Stack
		if st.Deps < st.L2+st.L3+st.Memory {
			t.Errorf("%s: dependency stalls (%.2f) should dominate memory stalls (%.2f)",
				n, st.Deps, st.L2+st.L3+st.Memory)
		}
	}
	out := RenderStacks(rows, 60)
	if !strings.Contains(out, "505.mcf_r") {
		t.Error("rendered stacks missing benchmark names")
	}
}

func TestFig2MostDistinctIsMcf(t *testing.T) {
	d, err := Fig2(lab(t))
	if err != nil {
		t.Fatal(err)
	}
	if d.MostDistinct != "605.mcf_s" {
		t.Errorf("SPECspeed INT most distinct = %s, paper says 605.mcf_s", d.MostDistinct)
	}
	if d.NumPCs < 2 {
		t.Errorf("Kaiser retained %d PCs, expected several", d.NumPCs)
	}
	if d.VarCovered < 0.7 {
		t.Errorf("retained PCs cover %.0f%% variance, expected >70%%", d.VarCovered*100)
	}
	if !strings.Contains(d.Rendered, "605.mcf_s") {
		t.Error("rendered dendrogram missing leaves")
	}
}

func TestFig3Fig4MostDistinctIsCactuBSSN(t *testing.T) {
	d3, err := Fig3(lab(t))
	if err != nil {
		t.Fatal(err)
	}
	d4, err := Fig4(lab(t))
	if err != nil {
		t.Fatal(err)
	}
	if d3.MostDistinct != "607.cactubSSN_s" && d3.MostDistinct != "649.fotonik3d_s" {
		t.Errorf("SPECspeed FP most distinct = %s, paper says cactuBSSN (fotonik3d acceptable)", d3.MostDistinct)
	}
	if d4.MostDistinct != "507.cactubSSN_r" && d4.MostDistinct != "549.fotonik3d_r" {
		t.Errorf("SPECrate FP most distinct = %s, paper says cactuBSSN (fotonik3d acceptable)", d4.MostDistinct)
	}
}

func TestRateINTDendrogramSimilarToSpeed(t *testing.T) {
	// Paper: the rate INT dendrogram is "very similar" to speed's; at
	// minimum, mcf must again be most distinct.
	d, err := RateINTDendrogram(lab(t))
	if err != nil {
		t.Fatal(err)
	}
	if d.MostDistinct != "505.mcf_r" {
		t.Errorf("SPECrate INT most distinct = %s, want 505.mcf_r", d.MostDistinct)
	}
}

func TestTable5Subsets(t *testing.T) {
	rows, err := Table5(lab(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("Table 5 has %d rows, want 4", len(rows))
	}
	for _, r := range rows {
		if len(r.Subset) != 3 {
			t.Errorf("%v subset size %d, want 3", r.Suite, len(r.Subset))
		}
		if r.SimTimeReduction <= 1 {
			t.Errorf("%v simulation-time reduction %v must exceed 1", r.Suite, r.SimTimeReduction)
		}
		total := 0
		for _, cl := range r.Clusters {
			total += len(cl)
		}
		if total != len(SuiteNames(r.Suite)) {
			t.Errorf("%v clusters don't partition the suite", r.Suite)
		}
	}
	// The INT subsets must include mcf (the most distinct benchmark
	// forms its own cluster).
	found := false
	for _, b := range rows[0].Subset {
		if b == "605.mcf_s" {
			found = true
		}
	}
	if !found {
		t.Errorf("speed INT subset %v should contain 605.mcf_s", rows[0].Subset)
	}
}

func TestFig5Fig6Validation(t *testing.T) {
	intRows, err := Fig5(lab(t))
	if err != nil {
		t.Fatal(err)
	}
	fpRows, err := Fig6(lab(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range append(intRows, fpRows...) {
		if len(r.Identified.PerSystem) < 4 {
			t.Errorf("%v validated on %d systems, want >=4", r.Suite, len(r.Identified.PerSystem))
		}
		if r.Identified.Avg > 0.20 {
			t.Errorf("%v identified-subset error %.1f%% too high (paper: <=11%%)",
				r.Suite, r.Identified.Avg*100)
		}
	}
}

func TestTable6RandomSubsetsWorse(t *testing.T) {
	rows, err := Table6(lab(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("Table 6 has %d rows", len(rows))
	}
	// Paper: random sets average 34.9% and 24.5% error vs identified
	// subsets' 3-11%. Require the aggregate ordering to hold.
	var ident, rnd float64
	for _, r := range rows {
		ident += r.Identified.Avg
		rnd += (r.Rand1.Avg + r.Rand2.Avg) / 2
	}
	if ident >= rnd {
		t.Errorf("identified subsets (avg %.1f%%) should beat random (avg %.1f%%)",
			ident/4*100, rnd/4*100)
	}
	out := RenderTable6(rows)
	if !strings.Contains(out, "identified") {
		t.Error("Table 6 rendering broken")
	}
}

func TestFig7InputSetsCluster(t *testing.T) {
	res, err := Fig7(lab(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cohesion) == 0 {
		t.Fatal("no multi-input benchmarks analyzed")
	}
	// Paper: "for all the benchmarks, different input sets have very
	// similar characteristics" — same-benchmark inputs sit well below
	// the median pairwise distance.
	for bench, coh := range res.Cohesion {
		if coh > 1.0 {
			t.Errorf("%s input sets spread %.2f of median distance; expected cohesive (<1)", bench, coh)
		}
	}
	if !strings.Contains(res.Rendered, "502.gcc_r-1") {
		t.Error("input-set dendrogram missing numbered labels")
	}
}

func TestFig8FPInputSets(t *testing.T) {
	res, err := Fig8(lab(t))
	if err != nil {
		t.Fatal(err)
	}
	// bwaves_r and bwaves_s are the only multi-input FP benchmarks.
	if len(res.Cohesion) != 2 {
		t.Fatalf("FP multi-input benchmarks = %d, want 2 (bwaves_r, bwaves_s)", len(res.Cohesion))
	}
}

func TestTable7RepresentativeInputs(t *testing.T) {
	rows, err := Table7(lab(t))
	if err != nil {
		t.Fatal(err)
	}
	// One row per multi-input benchmark: perlbench x2, gcc x2, x264 x2,
	// xz x2, bwaves x2 = 10.
	if len(rows) != 10 {
		t.Fatalf("Table 7 has %d rows, want 10", len(rows))
	}
	for _, r := range rows {
		p, err := workloads.ByName(r.Benchmark)
		if err != nil {
			t.Fatal(err)
		}
		if r.Input < 1 || r.Input > p.InputSets {
			t.Errorf("%s representative input %d out of range", r.Benchmark, r.Input)
		}
	}
}

func TestRateSpeedComparison(t *testing.T) {
	rows, err := RateSpeed(lab(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 19 {
		t.Fatalf("%d rate/speed pairs, want 19", len(rows))
	}
	dist := make(map[string]RateSpeedRow)
	divergentCount := 0
	for _, r := range rows {
		dist[r.Base] = r
		if r.Divergent {
			divergentCount++
		}
	}
	// Paper: MOST pairs are similar; imagick diverges most among FP.
	if divergentCount > len(rows)/2 {
		t.Errorf("%d of %d pairs divergent; paper says most pairs are similar", divergentCount, len(rows))
	}
	if !dist["imagick"].Divergent {
		t.Error("imagick rate/speed should diverge (paper: largest linkage distance)")
	}
	if dist["imagick"].Distance < dist["nab"].Distance {
		t.Error("imagick pair distance should exceed nab's (paper: nab similar, imagick divergent)")
	}
}

// topByMetric returns the n labels with the largest value of one
// Skylake metric, to check the paper's Figure 9/10 callouts ("leela
// and mcf suffer the highest branch misprediction rates").
func topByMetric(t *testing.T, labels []string, metric counters.Metric, n int) []string {
	t.Helper()
	c, err := lab(t).Characterization()
	if err != nil {
		t.Fatal(err)
	}
	value := make(map[string]float64, len(labels))
	for _, l := range labels {
		s, err := c.Sample(l, machine.Skylake)
		if err != nil {
			t.Fatal(err)
		}
		if value[l], err = s.Value(metric); err != nil {
			t.Fatal(err)
		}
	}
	top := append([]string(nil), labels...)
	sort.Slice(top, func(i, j int) bool {
		if value[top[i]] != value[top[j]] {
			return value[top[i]] > value[top[j]]
		}
		return top[i] < top[j]
	})
	return top[:min(n, len(top))]
}

func TestFig9BranchScatter(t *testing.T) {
	res, err := Fig9(lab(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 43 {
		t.Fatalf("Figure 9 has %d points, want 43", len(res.Points))
	}
	// Paper: leela and mcf suffer the highest branch misprediction
	// rates.
	top := topByMetric(t, res.Labels, "branch_mpki", 4)
	topSet := strings.Join(top, " ")
	if !strings.Contains(topSet, "leela") || !strings.Contains(topSet, "mcf") {
		t.Errorf("top mispredictors %v should include leela and mcf", top)
	}
	if out := RenderScatter(res, 60, 20); !strings.Contains(out, "PC1") {
		t.Error("scatter rendering broken")
	}
}

func TestFig10CacheScatters(t *testing.T) {
	dc, ic, err := Fig10(lab(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(dc.Points) != 43 || len(ic.Points) != 43 {
		t.Fatal("Figure 10 point counts wrong")
	}
	// Paper: worst data locality = mcf, cactuBSSN, fotonik3d.
	topD := topByMetric(t, dc.Labels, "l1d_mpki", 6)
	joined := strings.Join(topD, " ")
	for _, want := range []string{"mcf", "cactubSSN", "fotonik3d"} {
		if !strings.Contains(joined, want) {
			t.Errorf("worst data locality %v should include %s", topD, want)
		}
	}
	// Paper: perlbench and gcc have the highest I-cache activity among
	// the INT benchmarks (Table II caps INT L1I MPKI at ~5 while the
	// big Fortran FP codes reach ~11).
	var intLabels []string
	for _, s := range []workloads.Suite{workloads.RateINT, workloads.SpeedINT} {
		intLabels = append(intLabels, SuiteNames(s)...)
	}
	topI := topByMetric(t, intLabels, "l1i_mpki", 4)
	joinedI := strings.Join(topI, " ")
	if !strings.Contains(joinedI, "perlbench") || !strings.Contains(joinedI, "gcc") {
		t.Errorf("top INT I-cache list %v should include perlbench and gcc", topI)
	}
}

func TestTable8Domains(t *testing.T) {
	rows, err := Table8(lab(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 10 {
		t.Fatalf("Table 8 has %d domains, want >=10", len(rows))
	}
	for _, r := range rows {
		if len(r.Recommended) == 0 || len(r.Members) == 0 {
			t.Errorf("domain %s empty", r.Domain)
		}
		if len(r.Recommended) > len(r.Members) {
			t.Errorf("domain %s recommends more than it has", r.Domain)
		}
	}
}

func TestFig11Coverage(t *testing.T) {
	planes, uncovered, err := Fig11(lab(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(planes) != 2 {
		t.Fatalf("Figure 11 has %d planes, want 2", len(planes))
	}
	for _, pl := range planes {
		if pl.Area2017 <= 0 || pl.Area2006 <= 0 {
			t.Errorf("%s: degenerate hull areas %v / %v", pl.Plane, pl.Area2017, pl.Area2006)
		}
	}
	// Paper: >25% of CPU2017 benchmarks fall outside the CPU2006 space
	// in PC1-PC2; our substrate reproduces the direction (a noticeable
	// fraction outside) at a lower magnitude — see EXPERIMENTS.md.
	if planes[0].FracOutside < 0.08 {
		t.Errorf("PC1-PC2 fraction outside = %.2f, want >= 0.08 (paper: >0.25)", planes[0].FracOutside)
	}
	// Paper: the PC3-PC4 coverage area of CPU2017 is ~2x CPU2006's.
	if planes[1].Area2017 < planes[1].Area2006*1.5 {
		t.Errorf("PC3-PC4 area ratio %.2f, paper reports ~2x",
			planes[1].Area2017/planes[1].Area2006)
	}
	// Paper: only 429.mcf, 445.gobmk, 473.astar are uncovered.
	joined := strings.Join(uncovered, " ")
	for _, want := range []string{"429.mcf", "445.gobmk", "473.astar"} {
		if !strings.Contains(joined, want) {
			t.Errorf("uncovered set %v should include %s", uncovered, want)
		}
	}
	if len(uncovered) > 6 {
		t.Errorf("uncovered set %v too large; paper finds only 3", uncovered)
	}
}

func TestFig12PowerCoverage(t *testing.T) {
	cov, scatter, err := Fig12(lab(t))
	if err != nil {
		t.Fatal(err)
	}
	// Paper: CPU2017 has much higher power coverage than CPU2006.
	if cov.Area2017 <= cov.Area2006 {
		t.Errorf("CPU2017 power hull (%v) should exceed CPU2006's (%v)", cov.Area2017, cov.Area2006)
	}
	if len(scatter.Points) != 43+29 {
		t.Fatalf("power scatter has %d points", len(scatter.Points))
	}
}

func TestFig13EmergingWorkloads(t *testing.T) {
	res, err := Fig13(lab(t))
	if err != nil {
		t.Fatal(err)
	}
	// EDA lands near mcf.
	for _, eda := range []string{"175.vpr", "300.twolf"} {
		if n := res.NearestCPU2017[eda]; !strings.Contains(n, "mcf") {
			t.Errorf("%s nearest CPU2017 = %s, paper says mcf", eda, n)
		}
	}
	// Cassandra is far from everything; connected components is close
	// to existing INT benchmarks; pagerank is distinct.
	for _, cas := range []string{"cas-WA", "cas-WC"} {
		if res.NormDistance[cas] < res.NormDistance["cc-web"] {
			t.Errorf("%s (%.2f) should be farther from CPU2017 than cc-web (%.2f)",
				cas, res.NormDistance[cas], res.NormDistance["cc-web"])
		}
	}
	if res.NormDistance["pr-twitter"] < res.NormDistance["cc-twitter"] {
		t.Error("pagerank should be more distinct than connected components")
	}
	if !strings.Contains(res.Rendered, "cas-WA") {
		t.Error("Figure 13 dendrogram missing emerging workloads")
	}
}

func TestTable9Sensitivity(t *testing.T) {
	tables, err := Table9(lab(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 3 {
		t.Fatalf("Table 9 has %d structures, want 3", len(tables))
	}
	for _, tb := range tables {
		total := len(tb.High) + len(tb.Medium) + len(tb.Low)
		if total != 43 {
			t.Errorf("%s classifies %d benchmarks, want 43", tb.Structure, total)
		}
		if len(tb.High) == 0 {
			t.Errorf("%s has no High-sensitivity benchmarks", tb.Structure)
		}
	}
	// Paper anchors: bwaves is branch-sensitive; fotonik3d is
	// L1D-sensitive; leela/xz/mcf are NOT branch-sensitive (uniformly
	// poor everywhere).
	branch := tables[0]
	hm := strings.Join(append(append([]string{}, branch.High...), branch.Medium...), " ")
	if !strings.Contains(hm, "bwaves") {
		t.Errorf("branch High+Medium %v should include bwaves", hm)
	}
	low := strings.Join(branch.Low, " ")
	if !strings.Contains(low, "leela") {
		t.Errorf("branch Low %v should include leela", branch.Low)
	}
	l1d := tables[1]
	hmD := strings.Join(append(append([]string{}, l1d.High...), l1d.Medium...), " ")
	if !strings.Contains(hmD, "fotonik3d") {
		t.Errorf("L1D High+Medium should include fotonik3d, got High=%v Medium=%v", l1d.High, l1d.Medium)
	}
}
