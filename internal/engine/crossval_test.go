package engine

import (
	"context"
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/counters"
	"repro/internal/machine"
	"repro/internal/workloads"
)

// crossvalOpts is the fidelity the tolerance bands were calibrated at.
// Higher fidelity only shrinks simulator sampling noise, so the bands
// stay valid above it. Below it they do not: noise alone breaks some
// (TestToleranceFidelityFloor), so an analytic answer at a low served
// fidelity can leave its band, and the drift monitor that replays the
// contract in production stays.
var crossvalOpts = machine.RunOptions{Instructions: 50_000, WarmupInstructions: 10_000}

// metricsFor derives the comparable metric vector (schema metrics plus
// the CPI pseudo-metric) from one engine's counts.
func metricsFor(t *testing.T, m *machine.Machine, rc *machine.RawCounts) map[counters.Metric]float64 {
	t.Helper()
	s, err := counters.FromRaw(m.Name(), m.Config().HasRAPL, rc)
	if err != nil {
		t.Fatalf("FromRaw(%s): %v", m.Name(), err)
	}
	out := make(map[counters.Metric]float64, len(Tolerances))
	for _, metric := range s.Metrics() {
		out[metric] = s.MustValue(metric)
	}
	out[MetricCPI] = rc.CPI
	return out
}

// compareEngines measures every registry workload on every fleet
// machine with both engines at opts and calls visit with each metric
// of each pair: its band, the analytic and exact values, the
// disagreement |a−x| and what the band allows, Abs + Rel·max.
func compareEngines(t *testing.T, opts machine.RunOptions,
	visit func(pair string, metric counters.Metric, band Band, a, x, diff, allowed float64)) {
	t.Helper()
	fleet, err := machine.Fleet()
	if err != nil {
		t.Fatal(err)
	}
	exact, analytic := Exact{}, Analytic{}
	ctx := context.Background()
	for _, p := range workloads.All() {
		w := p.Workload()
		for _, m := range fleet {
			xr, err := exact.Measure(ctx, m, w, opts)
			if err != nil {
				t.Fatalf("exact %s on %s: %v", w.Key, m.Name(), err)
			}
			ar, err := analytic.Measure(ctx, m, w, opts)
			if err != nil {
				t.Fatalf("analytic %s on %s: %v", w.Key, m.Name(), err)
			}
			am := metricsFor(t, m, ar)
			for metric, x := range metricsFor(t, m, xr) {
				band, ok := Tolerances[metric]
				if !ok {
					t.Fatalf("metric %s has no tolerance band", metric)
				}
				a := am[metric]
				visit(w.Key+" on "+m.Name(), metric, band, a, x,
					math.Abs(a-x), band.Abs+band.Rel*math.Max(a, x))
			}
		}
	}
}

// TestCrossValidation measures every registry workload on every fleet
// machine with both engines and asserts the documented Tolerances
// hold for every metric of every pair. This is the contract that lets
// the serving layer hand out analytic answers: they are always within
// a known band of what the simulator would say.
func TestCrossValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry × fleet cross-validation is not -short")
	}
	type worst struct {
		ratio  float64 // |a−x| / (Abs + Rel·max) — >1 is out of band
		detail string
		a, x   float64
	}
	worstBy := make(map[counters.Metric]worst)
	compareEngines(t, crossvalOpts, func(pair string, metric counters.Metric, band Band, a, x, diff, allowed float64) {
		ratio := 0.0
		if allowed > 0 {
			ratio = diff / allowed
		}
		if ratio > worstBy[metric].ratio {
			worstBy[metric] = worst{ratio: ratio, detail: pair, a: a, x: x}
		}
		if !band.Holds(a, x) {
			t.Errorf("%s: metric %s out of band: analytic %.4g vs exact %.4g (|Δ|=%.4g > %.4g)",
				pair, metric, a, x, diff, allowed)
		}
	})

	// The calibration record: how much of each band the worst pair
	// used. Read with -v when retuning the estimator or the bands.
	metricsSorted := make([]counters.Metric, 0, len(worstBy))
	for metric := range worstBy {
		metricsSorted = append(metricsSorted, metric)
	}
	sort.Slice(metricsSorted, func(i, j int) bool { return metricsSorted[i] < metricsSorted[j] })
	for _, metric := range metricsSorted {
		wv := worstBy[metric]
		t.Logf("band usage %-16s %5.1f%%  (worst: %s, analytic %.4g vs exact %.4g)",
			metric, wv.ratio*100, wv.detail, wv.a, wv.x)
	}
}

// TestToleranceFidelityFloor records where the contract holds beyond
// crossvalOpts: at the default fidelity every band holds, and below
// 50,000 measured instructions simulator sampling noise breaks some.
// docs/ENGINES.md ("The tolerance contract") quotes its -v log. If a
// sub-floor fidelity ever held everywhere, the floor, and whether the
// drift monitor earns its place, would need revisiting.
func TestToleranceFidelityFloor(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("four registry × fleet passes are neither -short nor worth the race detector")
	}
	for _, c := range []struct {
		opts  machine.RunOptions
		holds bool
	}{
		{machine.RunOptions{Instructions: 400_000}, true},
		{machine.RunOptions{Instructions: 20_000, WarmupInstructions: 4_000}, false},
		{machine.RunOptions{Instructions: 5_000, WarmupInstructions: 1_000}, false},
		{machine.RunOptions{Instructions: 1_000}, false},
	} {
		var n, out int
		var worstRatio float64
		var worstAt string
		compareEngines(t, c.opts, func(pair string, metric counters.Metric, band Band, a, x, diff, allowed float64) {
			n++
			if band.Holds(a, x) {
				return
			}
			out++
			if r := diff / allowed; r > worstRatio {
				worstRatio, worstAt = r, fmt.Sprintf("%s, %s", metric, pair)
			}
		})
		t.Logf("%d/%d: %d of %d comparisons out of band", c.opts.Instructions, c.opts.WarmupInstructions, out, n)
		if out > 0 {
			t.Logf("    worst %.2f× its band (%s)", worstRatio, worstAt)
		}
		if c.holds && out > 0 {
			t.Errorf("%d/%d: %d comparisons out of band, want none", c.opts.Instructions, c.opts.WarmupInstructions, out)
		}
		if !c.holds && out == 0 {
			t.Errorf("%d/%d: every band holds below the floor", c.opts.Instructions, c.opts.WarmupInstructions)
		}
	}
}

// TestToleranceBandsPinned pins the committed band values: an edit to
// Tolerances (loosening the analytic engine's contract) must show up
// here as a deliberate change, not ride in silently with an estimator
// tweak.
func TestToleranceBandsPinned(t *testing.T) {
	pinned := map[counters.Metric]Band{
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
	if len(Tolerances) != len(pinned) {
		t.Fatalf("Tolerances has %d bands, pinned copy has %d", len(Tolerances), len(pinned))
	}
	for metric, want := range pinned {
		if got, ok := Tolerances[metric]; !ok || got != want {
			t.Errorf("Tolerances[%s] = %+v, pinned %+v", metric, Tolerances[metric], want)
		}
	}
}
