// Package counters defines the performance-metric schema of the
// paper's Table III and converts raw simulation counts into named
// metric vectors. Treating each (metric, machine) pair as one variable
// — 19 metrics on each of 7 machines plus 3 power metrics on the 3
// RAPL-capable Intel machines, 142 variables in total — reproduces the
// paper's "140 metrics" measurement matrix.
package counters

import (
	"fmt"

	"repro/internal/machine"
)

// Metric names one performance characteristic measured on one machine.
type Metric string

// The Table III metric set.
//
// Cache metrics are misses per kilo-instruction (MPKI); TLB metrics
// are misses per million instructions (MPMI); branch metrics are per
// kilo-instruction; instruction-mix metrics are percentages; power
// metrics are watts.
const (
	L1IMPKI Metric = "l1i_mpki"
	L1DMPKI Metric = "l1d_mpki"
	L2IMPKI Metric = "l2i_mpki"
	L2DMPKI Metric = "l2d_mpki"
	L3MPKI  Metric = "l3_mpki"

	ITLBMPMI     Metric = "itlb_mpmi"
	DTLBMPMI     Metric = "dtlb_mpmi"
	L2TLBMPMI    Metric = "l2tlb_mpmi"
	PageWalksPMI Metric = "pagewalks_pmi"

	BranchMPKI Metric = "branch_mpki"
	TakenPKI   Metric = "taken_pki"

	PctKernel Metric = "pct_kernel"
	PctUser   Metric = "pct_user"
	PctInt    Metric = "pct_int"
	PctFP     Metric = "pct_fp"
	PctLoad   Metric = "pct_load"
	PctStore  Metric = "pct_store"
	PctBranch Metric = "pct_branch"
	PctSIMD   Metric = "pct_simd"

	CorePower Metric = "core_power_w"
	LLCPower  Metric = "llc_power_w"
	MemPower  Metric = "mem_power_w"
)

// BaseMetrics returns the 19 non-power metrics in canonical order.
func BaseMetrics() []Metric {
	return []Metric{
		L1IMPKI, L1DMPKI, L2IMPKI, L2DMPKI, L3MPKI,
		ITLBMPMI, DTLBMPMI, L2TLBMPMI, PageWalksPMI,
		BranchMPKI, TakenPKI,
		PctKernel, PctUser, PctInt, PctFP, PctLoad, PctStore, PctBranch, PctSIMD,
	}
}

// PowerMetrics returns the three RAPL-derived metrics of Figure 12.
func PowerMetrics() []Metric { return []Metric{CorePower, LLCPower, MemPower} }

// BranchMetrics returns the branch-behaviour group used for the
// Figure 9 scatter analysis.
func BranchMetrics() []Metric { return []Metric{BranchMPKI, TakenPKI, PctBranch} }

// DCacheMetrics returns the data-locality group of Figure 10(a).
func DCacheMetrics() []Metric {
	return []Metric{L1DMPKI, L2DMPKI, L3MPKI, PctLoad, PctStore}
}

// ICacheMetrics returns the instruction-locality group of Figure 10(b).
func ICacheMetrics() []Metric { return []Metric{L1IMPKI, L2IMPKI, ITLBMPMI} }

// metricIndex places each metric in a Sample's value array: the base
// metrics in canonical order, then the power metrics.
var metricIndex = func() map[Metric]int {
	idx := make(map[Metric]int, numMetrics)
	for i, m := range append(BaseMetrics(), PowerMetrics()...) {
		idx[m] = i
	}
	return idx
}()

// numBase and numMetrics size a Sample's value array.
const (
	numBase    = 19
	numMetrics = numBase + 3
)

// Sample is the metric vector measured for one workload on one machine.
type Sample struct {
	// Machine is the measuring machine's name.
	Machine string
	// HasPower reports whether the power metrics are meaningful.
	HasPower bool
	values   [numMetrics]float64 // indexed by metricIndex
}

// Value returns the sample's value for metric m.
func (s *Sample) Value(m Metric) (float64, error) {
	i, ok := metricIndex[m]
	if !ok || (i >= numBase && !s.HasPower) {
		return 0, fmt.Errorf("counters: machine %s has no metric %s", s.Machine, m)
	}
	return s.values[i], nil
}

// MustValue is Value for metrics known to exist; it panics otherwise.
func (s *Sample) MustValue(m Metric) float64 {
	v, err := s.Value(m)
	if err != nil {
		panic(err)
	}
	return v
}

// Metrics returns the metric names present in the sample, in canonical
// order.
func (s *Sample) Metrics() []Metric {
	ms := BaseMetrics()
	if s.HasPower {
		ms = append(ms, PowerMetrics()...)
	}
	return ms
}

// FromRaw converts raw simulation counts into a metric sample.
func FromRaw(machineName string, hasPower bool, rc *machine.RawCounts) (*Sample, error) {
	if rc.Instructions == 0 {
		return nil, fmt.Errorf("counters: zero instructions in sample from %s", machineName)
	}
	n := float64(rc.Instructions)
	perKI := func(c uint64) float64 { return float64(c) / n * 1e3 }
	perMI := func(c uint64) float64 { return float64(c) / n * 1e6 }
	pct := func(c uint64) float64 { return float64(c) / n * 100 }

	intOps := rc.Instructions - rc.Loads - rc.Stores - rc.Branches - rc.FPOps - rc.SIMDOps
	s := &Sample{Machine: machineName, HasPower: hasPower}
	// In canonical order: BaseMetrics, then PowerMetrics.
	s.values = [numMetrics]float64{
		perKI(rc.Cache.L1IMisses),
		perKI(rc.Cache.L1DMisses),
		perKI(rc.Cache.L2IMisses),
		perKI(rc.Cache.L2DMisses),
		perKI(rc.Cache.L3Misses),

		perMI(rc.TLB.ITLBMisses),
		perMI(rc.TLB.DTLBMisses),
		perMI(rc.TLB.L2Misses),
		perMI(rc.TLB.PageWalks),

		perKI(rc.Mispredicts),
		perKI(rc.TakenBranches),

		pct(rc.KernelInstrs),
		100 - float64(pct(rc.KernelInstrs)),
		pct(intOps),
		pct(rc.FPOps),
		pct(rc.Loads),
		pct(rc.Stores),
		pct(rc.Branches),
		pct(rc.SIMDOps),
	}
	if hasPower {
		s.values[numBase+0] = rc.Power.Core
		s.values[numBase+1] = rc.Power.LLC
		s.values[numBase+2] = rc.Power.DRAM
	}
	return s, nil
}

// ColumnID names one (machine, metric) variable in the assembled
// measurement matrix.
func ColumnID(machineName string, m Metric) string {
	return machineName + ":" + string(m)
}
