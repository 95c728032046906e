package engine

import (
	"math"

	"repro/internal/counters"
)

// Band bounds the allowed analytic-vs-exact disagreement for one
// metric: the two engines agree when
//
//	|analytic − exact| ≤ Abs + Rel·max(|analytic|, |exact|)
//
// Abs absorbs counting noise near zero (an MPKI of 0.02 vs 0.05 is
// agreement, not a 150% error); Rel bounds the proportional error once
// a metric is materially non-zero.
type Band struct {
	Abs float64 `json:"abs"`
	Rel float64 `json:"rel"`
}

// Holds reports whether analytic a and exact x agree within the band.
func (b Band) Holds(a, x float64) bool { return b.Ratio(a, x) <= 1 }

// Ratio returns the fraction of the band the disagreement between
// analytic a and exact x consumes:
//
//	|a − x| / (Abs + Rel·max(|a|, |x|))
//
// 0 is perfect agreement, 1 sits exactly on the band edge, and values
// above 1 are violations. The insight package's drift monitor feeds
// these ratios into the spec17d_engine_drift_ratio{metric} histograms,
// so "how close to the contract are we running" is one number per
// sample regardless of the metric's units. A degenerate zero-width
// band returns 0 on exact agreement and +Inf otherwise.
func (b Band) Ratio(a, x float64) float64 {
	diff := math.Abs(a - x)
	width := b.Abs + b.Rel*math.Max(math.Abs(a), math.Abs(x))
	if width == 0 {
		if diff == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return diff / width
}

// MetricCPI keys the CPI pseudo-metric in Tolerances; it is not part
// of the counters schema (CPI is a derived column of Table I) but the
// engines must agree on it, so it gets a band like everything else.
const MetricCPI counters.Metric = "cpi"

// Tolerances are the documented agreement bands between the analytic
// and exact engines, per metric, over the full CPU2006 + CPU2017 +
// emerging registry on the whole Table IV fleet. They are asserted two
// ways in internal/engine's tests: TestCrossValidation checks every
// (workload, machine) pair against them, and TestToleranceBandsPinned
// fails if the bands themselves drift — loosening a band is a
// deliberate, reviewed act, never a silent one.
//
// The values were set from the measured worst-case disagreement at
// 50k-instruction fidelity with roughly 50% headroom: tight enough
// that an estimator regression (a mis-modelled stream, a dropped
// term) trips them, loose enough that simulator sampling noise does
// not.
var Tolerances = map[counters.Metric]Band{
	counters.L1IMPKI: {Abs: 1.5, Rel: 0.45},
	counters.L1DMPKI: {Abs: 4.0, Rel: 0.30},
	counters.L2IMPKI: {Abs: 2.0, Rel: 0.80},
	counters.L2DMPKI: {Abs: 2.5, Rel: 0.28},
	counters.L3MPKI:  {Abs: 3.0, Rel: 0.45},

	counters.ITLBMPMI:     {Abs: 150, Rel: 0.45},
	counters.DTLBMPMI:     {Abs: 2500, Rel: 0.70},
	counters.L2TLBMPMI:    {Abs: 1000, Rel: 0.35},
	counters.PageWalksPMI: {Abs: 1000, Rel: 0.35},

	counters.BranchMPKI: {Abs: 3.5, Rel: 0.60},
	counters.TakenPKI:   {Abs: 9, Rel: 0.08},

	counters.PctKernel: {Abs: 0.6, Rel: 0.09},
	counters.PctUser:   {Abs: 0.6, Rel: 0.03},
	counters.PctInt:    {Abs: 0.4, Rel: 0.02},
	counters.PctFP:     {Abs: 0.3, Rel: 0.02},
	counters.PctLoad:   {Abs: 0.4, Rel: 0.025},
	counters.PctStore:  {Abs: 0.35, Rel: 0.02},
	counters.PctBranch: {Abs: 0.1, Rel: 0.01},
	counters.PctSIMD:   {Abs: 0.35, Rel: 0.03},

	counters.CorePower: {Abs: 2.0, Rel: 0.15},
	counters.LLCPower:  {Abs: 0.2, Rel: 0.08},
	counters.MemPower:  {Abs: 0.3, Rel: 0.07},

	MetricCPI: {Abs: 0.3, Rel: 0.45},
}
