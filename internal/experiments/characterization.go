package experiments

import (
	"fmt"
	"strings"

	"repro/internal/counters"
	"repro/internal/cpistack"
	"repro/internal/machine"
	"repro/internal/workloads"
)

// Table1Row is one line of Table I: the Skylake-measured dynamic
// characteristics of a CPU2017 benchmark.
type Table1Row struct {
	Name      string
	Suite     workloads.Suite
	ICountB   float64 // published full-run count, billions
	PctLoad   float64
	PctStore  float64
	PctBranch float64
	CPI       float64
	PaperCPI  float64 // Table I's value, for side-by-side comparison
}

// Table1 reproduces Table I: instruction mix and CPI of all 43
// CPU2017 benchmarks measured on the Skylake machine.
func Table1(lab *Lab) ([]Table1Row, error) {
	c, err := lab.Characterization()
	if err != nil {
		return nil, err
	}
	paperCPI := paperCPIByName()
	var rows []Table1Row
	for _, p := range workloads.CPU2017() {
		s, err := c.Sample(p.Name, machine.Skylake)
		if err != nil {
			return nil, err
		}
		rc, err := c.Raw(p.Name, machine.Skylake)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table1Row{
			Name: p.Name, Suite: p.Suite, ICountB: p.DynInstrBillions,
			PctLoad:   s.MustValue(counters.PctLoad),
			PctStore:  s.MustValue(counters.PctStore),
			PctBranch: s.MustValue(counters.PctBranch),
			CPI:       rc.CPI,
			PaperCPI:  paperCPI[p.Name],
		})
	}
	return rows, nil
}

// paperCPIByName returns Table I's published CPI values.
func paperCPIByName() map[string]float64 {
	return map[string]float64{
		"600.perlbench_s": 0.42, "602.gcc_s": 0.58, "605.mcf_s": 1.22,
		"620.omnetpp_s": 1.21, "623.xalancbmk_s": 0.86, "625.x264_s": 0.36,
		"631.deepsjeng_s": 0.55, "641.leela_s": 0.80, "648.exchange2_s": 0.41,
		"657.xz_s":        1.00,
		"500.perlbench_r": 0.42, "502.gcc_r": 0.59, "505.mcf_r": 1.16,
		"520.omnetpp_r": 1.39, "523.xalancbmk_r": 0.86, "525.x264_r": 0.31,
		"531.deepsjeng_r": 0.57, "541.leela_r": 0.81, "548.exchange2_r": 0.41,
		"557.xz_r":     1.22,
		"603.bwaves_s": 0.34, "607.cactubSSN_s": 0.68, "619.lbm_s": 0.87,
		"621.wrf_s": 0.77, "627.cam4_s": 0.68, "628.pop2_s": 0.48,
		"638.imagick_s": 1.17, "644.nab_s": 0.68, "649.fotonik3d_s": 0.78,
		"654.roms_s":   0.52,
		"503.bwaves_r": 0.42, "507.cactubSSN_r": 0.69, "508.namd_r": 0.41,
		"510.parest_r": 0.48, "511.povray_r": 0.42, "519.lbm_r": 0.53,
		"521.wrf_r": 0.81, "526.blender_r": 0.53, "527.cam4_r": 0.56,
		"538.imagick_r": 0.90, "544.nab_r": 0.69, "549.fotonik3d_r": 0.96,
		"554.roms_r": 0.48,
	}
}

// RangeRow is one cell group of Table II: the min-max span of a metric
// within one sub-suite.
type RangeRow struct {
	Metric counters.Metric
	Suite  workloads.Suite
	Min    float64
	Max    float64
}

// Table2 reproduces Table II: per-sub-suite ranges of the key Skylake
// metrics.
func Table2(lab *Lab) ([]RangeRow, error) {
	c, err := lab.Characterization()
	if err != nil {
		return nil, err
	}
	metrics := []counters.Metric{
		counters.L1DMPKI, counters.L1IMPKI, counters.L2DMPKI,
		counters.L2IMPKI, counters.L3MPKI, counters.BranchMPKI,
	}
	var rows []RangeRow
	for _, suite := range []workloads.Suite{workloads.RateINT, workloads.SpeedINT, workloads.RateFP, workloads.SpeedFP} {
		labels := SuiteNames(suite)
		for _, m := range metrics {
			min, max, err := c.MetricRange(labels, machine.Skylake, m)
			if err != nil {
				return nil, err
			}
			rows = append(rows, RangeRow{Metric: m, Suite: suite, Min: min, Max: max})
		}
	}
	return rows, nil
}

// StackRow is one bar of Figure 1: a rate benchmark's CPI stack.
type StackRow struct {
	Name  string
	Stack cpistack.Stack
}

// Fig1 reproduces Figure 1: CPI stacks of the 23 SPECrate benchmarks
// on Skylake.
func Fig1(lab *Lab) ([]StackRow, error) {
	c, err := lab.Characterization()
	if err != nil {
		return nil, err
	}
	var rows []StackRow
	for _, suite := range []workloads.Suite{workloads.RateINT, workloads.RateFP} {
		for _, p := range workloads.BySuite(suite) {
			rc, err := c.Raw(p.Name, machine.Skylake)
			if err != nil {
				return nil, err
			}
			rows = append(rows, StackRow{Name: p.Name, Stack: rc.Stack})
		}
	}
	return rows, nil
}

// RenderStacks draws Figure 1 as a proportional ASCII bar chart.
func RenderStacks(rows []StackRow, width int) string {
	if width < 30 {
		width = 30
	}
	maxCPI := 0.0
	name := 0
	for _, r := range rows {
		if t := r.Stack.Total(); t > maxCPI {
			maxCPI = t
		}
		if len(r.Name) > name {
			name = len(r.Name)
		}
	}
	if maxCPI == 0 {
		return "(no data)\n"
	}
	glyphs := map[string]byte{
		"base": '#', "other": 'o', "frontend": 'f', "bad-spec": 'b',
		"L2": '2', "L3": '3', "memory": 'M',
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-*s  CPI   0%s%.2f\n", name, "benchmark", strings.Repeat(" ", width-5), maxCPI)
	fmt.Fprintf(&b, "%-*s  (legend: #=base o=other f=frontend b=bad-spec 2=L2 3=L3 M=memory)\n", name, "")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-*s  %.2f  ", name, r.Name, r.Stack.Total())
		for _, comp := range r.Stack.Components() {
			n := int(comp.Value / maxCPI * float64(width))
			b.Write(bytesRepeat(glyphs[comp.Label], n))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func bytesRepeat(c byte, n int) []byte {
	if n < 0 {
		n = 0
	}
	out := make([]byte, n)
	for i := range out {
		out[i] = c
	}
	return out
}
