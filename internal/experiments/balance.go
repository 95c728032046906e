package experiments

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/machine"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// ScatterResult is one PC-space scatter plot (Figures 9, 10, 12).
type ScatterResult struct {
	Labels []string
	Points []stats.Point
	// PCX/PCY are the plotted components (0-based); DominantX/Y name
	// the metrics dominating each axis, as the paper annotates.
	PCX, PCY             int
	DominantX, DominantY []string
	VarCovered           float64
	Similarity           *core.Similarity
}

// metricScatter fits CPU2017 in the PC space of one metric group and
// plots it (Figures 9 and 10).
func metricScatter(lab *Lab, metrics []counters.Metric) (*ScatterResult, error) {
	opts := paperOptions()
	opts.Metrics = metrics
	_, sim, err := lab.analyze(labelsOf(workloads.CPU2017()), opts)
	if err != nil {
		return nil, err
	}
	return scatterOf(sim)
}

// scatterOf plots a fitted space's first two PCs, naming the metrics
// that dominate each.
func scatterOf(sim *core.Similarity) (*ScatterResult, error) {
	pts, err := sim.ScatterPoints(0, 1)
	if err != nil {
		return nil, err
	}
	covered := 0.0
	if len(sim.PCA.CumVarExplained) > 1 {
		covered = sim.PCA.CumVarExplained[1]
	}
	return &ScatterResult{
		Labels: sim.Labels, Points: pts,
		PCX: 0, PCY: 1,
		DominantX:  sim.DominantColumns(0, 3),
		DominantY:  sim.DominantColumns(1, 3),
		VarCovered: covered,
		Similarity: sim,
	}, nil
}

// Fig9 reproduces Figure 9: all 43 CPU2017 benchmarks in the PC space
// of the branch metrics.
func Fig9(lab *Lab) (*ScatterResult, error) {
	return metricScatter(lab, counters.BranchMetrics())
}

// Fig10 reproduces Figure 10: the data-cache (a) and instruction-cache
// (b) PC scatters of the CPU2017 benchmarks.
func Fig10(lab *Lab) (dcache, icache *ScatterResult, err error) {
	if dcache, err = metricScatter(lab, counters.DCacheMetrics()); err != nil {
		return nil, nil, err
	}
	if icache, err = metricScatter(lab, counters.ICacheMetrics()); err != nil {
		return nil, nil, err
	}
	return dcache, icache, nil
}

// DomainRow is one row of Table VIII: an application domain and the
// benchmarks that must be run to cover its performance spectrum.
type DomainRow struct {
	Domain workloads.Domain
	// Members are all CPU2017 benchmarks in the domain.
	Members []string
	// Recommended are the benchmarks to run: the rate version when
	// rate and speed behave alike, both versions when they diverge.
	Recommended []string
}

// Table8 reproduces Table VIII: the domain classification with the
// benchmarks that cover each domain's spectrum.
func Table8(lab *Lab) ([]DomainRow, error) {
	rs, err := RateSpeed(lab)
	if err != nil {
		return nil, err
	}
	divergent := make(map[string]bool)
	for _, r := range rs {
		divergent[r.Base] = r.Divergent
	}
	byDomain := make(map[workloads.Domain][]workloads.Profile)
	for _, p := range workloads.CPU2017() {
		byDomain[p.Domain] = append(byDomain[p.Domain], p)
	}
	var domains []workloads.Domain
	for d := range byDomain {
		domains = append(domains, d)
	}
	sort.Slice(domains, func(i, j int) bool { return domains[i] < domains[j] })

	var rows []DomainRow
	for _, d := range domains {
		row := DomainRow{Domain: d}
		byBase := make(map[string][]workloads.Profile)
		for _, p := range byDomain[d] {
			row.Members = append(row.Members, p.Name)
			byBase[p.Base] = append(byBase[p.Base], p)
		}
		sort.Strings(row.Members)
		var bases []string
		for b := range byBase {
			bases = append(bases, b)
		}
		sort.Strings(bases)
		for _, b := range bases {
			versions := byBase[b]
			if len(versions) == 1 {
				row.Recommended = append(row.Recommended, versions[0].Name)
				continue
			}
			// Prefer the (shorter-running) rate version; add the speed
			// version only when the pair diverges.
			var rate, speed string
			for _, v := range versions {
				if v.Suite == workloads.RateINT || v.Suite == workloads.RateFP {
					rate = v.Name
				} else {
					speed = v.Name
				}
			}
			row.Recommended = append(row.Recommended, rate)
			if divergent[b] && speed != "" {
				row.Recommended = append(row.Recommended, speed)
			}
		}
		sort.Strings(row.Recommended)
		rows = append(rows, row)
	}
	return rows, nil
}

// CoverageResult is the Figure 11 (or Figure 12) comparison of the
// CPU2017 and CPU2006 workload spaces.
type CoverageResult struct {
	// Plane names the PC pair ("PC1-PC2" or "PC3-PC4").
	Plane string
	// Area2017 and Area2006 are the convex-hull areas of each suite.
	Area2017, Area2006 float64
	// FracOutside is the fraction of CPU2017 points outside the
	// CPU2006 hull.
	FracOutside            float64
	Points2017, Points2006 []stats.Point
	Labels2017, Labels2006 []string
}

// Fig11 reproduces Figure 11: the joint PCA of CPU2017 and CPU2006
// over all Table III metrics, compared on the PC1-PC2 and PC3-PC4
// planes, plus the list of removed CPU2006 benchmarks whose behaviour
// CPU2017 does not cover.
func Fig11(lab *Lab) (planes []CoverageResult, uncovered []string, err error) {
	l2017, l2006 := labelsOf(workloads.CPU2017()), labelsOf(workloads.CPU2006())
	_, sim, err := lab.analyze(slices.Concat(l2017, l2006), paperOptions())
	if err != nil {
		return nil, nil, err
	}
	for _, pcs := range [][2]int{{0, 1}, {2, 3}} {
		pts, err := sim.ScatterPoints(pcs[0], pcs[1])
		if err != nil {
			return nil, nil, err
		}
		planes = append(planes, coverage(fmt.Sprintf("PC%d-PC%d", pcs[0]+1, pcs[1]+1), sim.Labels, pts, len(l2017)))
	}

	// Coverage, the paper's way ("using PCA and hierarchical
	// clustering ... we identify those CPU2006 benchmarks whose
	// performance characteristics are not covered"): cluster the joint
	// set and flag CPU2006 programs whose cluster contains no CPU2017
	// member AND whose nearest CPU2017 benchmark is farther than the
	// suites' typical internal spacing (the 75th percentile of
	// CPU2017's own unrelated nearest-neighbour distances, scaled).
	// All 29 CPU2006 programs are evaluated — the paper finds the
	// carried-over 429.mcf uncovered too, because its 2017 namesake
	// behaves differently.
	_, dist, err := sim.NearestNeighbor(l2006, l2017)
	if err != nil {
		return nil, nil, err
	}
	scale, err := unrelatedNNScale(sim, l2017)
	if err != nil {
		return nil, nil, err
	}
	is2017 := make(map[string]bool, len(l2017))
	for _, l := range l2017 {
		is2017[l] = true
	}
	// Cut to ~2.8 benchmarks per cluster — fine enough that genuinely
	// novel behaviour isolates, coarse enough that near-misses stay
	// attached to a CPU2017 cluster.
	k := (len(l2017) + len(l2006)) * 36 / 100
	for _, cl := range sim.Subset(k).Clusters {
		has2017 := false
		for _, member := range cl {
			if is2017[member] {
				has2017 = true
				break
			}
		}
		if has2017 {
			continue
		}
		for _, member := range cl {
			if dist[member] > scale*0.75 {
				uncovered = append(uncovered, member)
			}
		}
	}
	sort.Strings(uncovered)
	return planes, uncovered, nil
}

// coverage compares the CPU2017 and CPU2006 hulls on one plane of a
// joint fit, whose first n2017 rows are CPU2017's.
func coverage(plane string, labels []string, pts []stats.Point, n2017 int) CoverageResult {
	res := CoverageResult{
		Plane:      plane,
		Points2017: pts[:n2017], Points2006: pts[n2017:],
		Labels2017: labels[:n2017], Labels2006: labels[n2017:],
	}
	res.Area2017 = stats.HullArea(res.Points2017)
	res.Area2006 = stats.HullArea(res.Points2006)
	res.FracOutside = stats.FractionOutside(res.Points2017, res.Points2006)
	return res
}

// unrelatedNNScale returns the 75th percentile of the distances from
// each CPU2017 benchmark to its nearest different-family CPU2017
// benchmark.
func unrelatedNNScale(sim *core.Similarity, l2017 []string) (float64, error) {
	baseOf := make(map[string]string, len(l2017))
	for _, l := range l2017 {
		p, err := workloads.ByName(l)
		if err != nil {
			return 0, err
		}
		baseOf[l] = p.Base
	}
	var nns []float64
	for _, q := range l2017 {
		best := -1.0
		for _, c := range l2017 {
			if c == q || baseOf[c] == baseOf[q] {
				continue
			}
			d, err := sim.EuclideanDistance(q, c)
			if err != nil {
				return 0, err
			}
			if best < 0 || d < best {
				best = d
			}
		}
		nns = append(nns, best)
	}
	sort.Float64s(nns)
	return nns[len(nns)*3/4], nil
}

// Fig12 reproduces Figure 12: the power-metric PC space of CPU2017
// versus CPU2006, measured on the three RAPL-capable Intel machines.
func Fig12(lab *Lab) (*CoverageResult, *ScatterResult, error) {
	l2017 := labelsOf(workloads.CPU2017())
	opts := paperOptions()
	opts.Metrics = counters.PowerMetrics()
	opts.Machines = []string{machine.Skylake, machine.Broadwell, machine.Ivybridge}
	_, sim, err := lab.analyze(slices.Concat(l2017, labelsOf(workloads.CPU2006())), opts)
	if err != nil {
		return nil, nil, err
	}
	scatter, err := scatterOf(sim)
	if err != nil {
		return nil, nil, err
	}
	cov := coverage("PC1-PC2 (power)", sim.Labels, scatter.Points, len(l2017))
	return &cov, scatter, nil
}

// EmergingResult is the Figure 13 analysis: CPU2017 versus EDA, graph,
// and database workloads in one dendrogram.
type EmergingResult struct {
	Similarity *core.Similarity `json:"-"`
	Rendered   string
	// NearestCPU2017 maps each emerging workload to its closest
	// CPU2017 benchmark and that distance, normalized by the median
	// pairwise distance (values >> 1 mean "not covered").
	NearestCPU2017 map[string]string
	NormDistance   map[string]float64
}

// Fig13 reproduces Figure 13: similarity among CPU2017, EDA, graph
// analytics, and database workloads.
func Fig13(lab *Lab) (*EmergingResult, error) {
	l2017, emerging := labelsOf(workloads.CPU2017()), labelsOf(workloads.Emerging())
	_, sim, err := lab.analyze(slices.Concat(l2017, emerging), paperOptions())
	if err != nil {
		return nil, err
	}
	nearest, dist, err := sim.NearestNeighbor(emerging, l2017)
	if err != nil {
		return nil, err
	}
	med, err := sim.MedianPairwiseDistance(sim.Labels)
	if err != nil {
		return nil, err
	}
	norm := make(map[string]float64, len(dist))
	for l, d := range dist {
		norm[l] = d / med
	}
	return &EmergingResult{
		Similarity:     sim,
		Rendered:       sim.Dendrogram.Render(60),
		NearestCPU2017: nearest,
		NormDistance:   norm,
	}, nil
}

// SensitivityTable is the Table IX reproduction: per structure, the
// benchmarks in each sensitivity class.
type SensitivityTable struct {
	// Structure names the varied hardware structure.
	Structure string
	Metric    counters.Metric
	High      []string
	Medium    []string
	Low       []string
}

// Table9 reproduces Table IX: CPU2017 benchmark sensitivity to branch
// predictor, L1 D-cache, and L1 D-TLB configuration across the four
// most architecturally diverse machines.
func Table9(lab *Lab) ([]SensitivityTable, error) {
	return classify(lab, []structure{
		{"Branch Prediction", counters.BranchMPKI},
		{"L1 D-cache", counters.L1DMPKI},
		{"L1 D-TLB", counters.DTLBMPMI},
	})
}

// Table9Extended runs the sensitivity classification over every
// Table III hardware-structure metric, not just the three the paper
// prints — an extension for studies targeting L2/L3 or the
// instruction side.
func Table9Extended(lab *Lab) ([]SensitivityTable, error) {
	return classify(lab, []structure{
		{"Branch Prediction", counters.BranchMPKI},
		{"L1 D-cache", counters.L1DMPKI},
		{"L1 I-cache", counters.L1IMPKI},
		{"L2 cache", counters.L2DMPKI},
		{"Last-level cache", counters.L3MPKI},
		{"L1 D-TLB", counters.DTLBMPMI},
		{"L1 I-TLB", counters.ITLBMPMI},
	})
}

// structure is a hardware structure Table IX classifies by, through
// the metric that exposes it.
type structure struct {
	name   string
	metric counters.Metric
}

// classify is Table IX's classifier: per structure, it ranks the
// CPU2017 benchmarks by how much the structure's metric varies across
// machine.SensitivityFleet.
func classify(lab *Lab, structures []structure) ([]SensitivityTable, error) {
	sub, _, err := lab.analyze(labelsOf(workloads.CPU2017()), nil)
	if err != nil {
		return nil, err
	}
	sens, err := machine.SensitivityFleet()
	if err != nil {
		return nil, err
	}
	machines := make([]string, len(sens))
	for i, m := range sens {
		machines[i] = m.Name()
	}
	var tables []SensitivityTable
	for _, st := range structures {
		res, err := sub.Sensitivity(st.metric, machines)
		if err != nil {
			return nil, err
		}
		tables = append(tables, SensitivityTable{
			Structure: st.name,
			Metric:    st.metric,
			High:      res.Labels(core.HighSensitivity),
			Medium:    res.Labels(core.MediumSensitivity),
			Low:       res.Labels(core.LowSensitivity),
		})
	}
	return tables, nil
}

// RenderScatter draws a PC scatter as an ASCII grid.
func RenderScatter(r *ScatterResult, width, height int) string {
	if width < 20 {
		width = 20
	}
	if height < 10 {
		height = 10
	}
	minX, maxX := r.Points[0].X, r.Points[0].X
	minY, maxY := r.Points[0].Y, r.Points[0].Y
	for _, p := range r.Points {
		if p.X < minX {
			minX = p.X
		}
		if p.X > maxX {
			maxX = p.X
		}
		if p.Y < minY {
			minY = p.Y
		}
		if p.Y > maxY {
			maxY = p.Y
		}
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = bytesRepeat(' ', width)
	}
	for i, p := range r.Points {
		x := int((p.X - minX) / (maxX - minX) * float64(width-1))
		y := int((p.Y - minY) / (maxY - minY) * float64(height-1))
		row := height - 1 - y
		mark := byte('a' + i%26)
		if i >= 26 {
			mark = byte('A' + (i-26)%26)
		}
		grid[row][x] = mark
	}
	var b strings.Builder
	fmt.Fprintf(&b, "PC%d (x) dominated by %v; PC%d (y) dominated by %v\n",
		r.PCX+1, r.DominantX, r.PCY+1, r.DominantY)
	for _, row := range grid {
		b.WriteString("|")
		b.Write(row)
		b.WriteString("|\n")
	}
	for i, l := range r.Labels {
		mark := byte('a' + i%26)
		if i >= 26 {
			mark = byte('A' + (i-26)%26)
		}
		fmt.Fprintf(&b, "  %c=%s", mark, l)
		if (i+1)%4 == 0 {
			b.WriteByte('\n')
		}
	}
	b.WriteByte('\n')
	return b.String()
}
