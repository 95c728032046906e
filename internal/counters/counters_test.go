package counters

import (
	"math"
	"testing"

	"repro/internal/cache"
	"repro/internal/machine"
	"repro/internal/power"
	"repro/internal/tlb"
)

func sampleRaw() *machine.RawCounts {
	return &machine.RawCounts{
		Instructions:  1_000_000,
		Loads:         250_000,
		Stores:        100_000,
		Branches:      120_000,
		TakenBranches: 80_000,
		FPOps:         50_000,
		SIMDOps:       20_000,
		KernelInstrs:  30_000,
		Mispredicts:   6_000,
		Cache: cache.Counts{
			L1IMisses: 2_000, L1DMisses: 40_000,
			L2IMisses: 300, L2DMisses: 9_000, L3Misses: 2_500,
		},
		TLB: tlb.Counts{
			ITLBMisses: 500, DTLBMisses: 8_000, L2Misses: 1_300, PageWalks: 1_200,
		},
		Power: power.Breakdown{Core: 25, LLC: 3, DRAM: 5},
	}
}

func TestFromRawMetricValues(t *testing.T) {
	s, err := FromRaw("skylake", true, sampleRaw())
	if err != nil {
		t.Fatal(err)
	}
	cases := map[Metric]float64{
		L1DMPKI:      40,
		L1IMPKI:      2,
		L2IMPKI:      0.3,
		L2DMPKI:      9,
		L3MPKI:       2.5,
		BranchMPKI:   6,
		TakenPKI:     80,
		ITLBMPMI:     500,
		DTLBMPMI:     8000,
		L2TLBMPMI:    1300,
		PageWalksPMI: 1200,
		PctLoad:      25,
		PctStore:     10,
		PctBranch:    12,
		PctFP:        5,
		PctSIMD:      2,
		PctKernel:    3,
		PctUser:      97,
		PctInt:       46, // 100 - 25 - 10 - 12 - 5 - 2
		CorePower:    25,
		LLCPower:     3,
		MemPower:     5,
	}
	for m, want := range cases {
		got, err := s.Value(m)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", m, got, want)
		}
	}
}

func TestFromRawWithoutPower(t *testing.T) {
	s, err := FromRaw("sparc-t4", false, sampleRaw())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Value(CorePower); err == nil {
		t.Fatal("power metric must be absent without RAPL")
	}
	if len(s.Metrics()) != len(BaseMetrics()) {
		t.Fatal("metric list should exclude power")
	}
}

func TestFromRawZeroInstructions(t *testing.T) {
	if _, err := FromRaw("m", false, &machine.RawCounts{}); err == nil {
		t.Fatal("zero instructions must error")
	}
}

func TestMetricCounts(t *testing.T) {
	if len(BaseMetrics()) != 19 {
		t.Fatalf("base metrics = %d, want 19", len(BaseMetrics()))
	}
	if len(PowerMetrics()) != 3 {
		t.Fatal("power metrics must be 3")
	}
	// Paper: ~20 metrics x 7 machines = ~140 variables. Our schema:
	// 19*7 + 3*3 = 142.
	total := len(BaseMetrics())*7 + len(PowerMetrics())*3
	if total != 142 {
		t.Fatalf("total variables = %d, want 142", total)
	}
}

func TestMetricGroupsSubsetOfSchema(t *testing.T) {
	all := make(map[Metric]bool)
	for _, m := range BaseMetrics() {
		all[m] = true
	}
	for _, m := range PowerMetrics() {
		all[m] = true
	}
	for _, grp := range [][]Metric{BranchMetrics(), DCacheMetrics(), ICacheMetrics()} {
		for _, m := range grp {
			if !all[m] {
				t.Errorf("group metric %s not in schema", m)
			}
		}
	}
}

func TestMustValuePanics(t *testing.T) {
	s, _ := FromRaw("m", false, sampleRaw())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.MustValue(CorePower)
}

func TestColumnID(t *testing.T) {
	if got := ColumnID("skylake", L1DMPKI); got != "skylake:l1d_mpki" {
		t.Fatalf("ColumnID = %q", got)
	}
}

func TestSampleMetricsOrderDeterministic(t *testing.T) {
	s, _ := FromRaw("m", true, sampleRaw())
	a := s.Metrics()
	b := s.Metrics()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("metric order must be deterministic")
		}
	}
	if a[len(a)-1] != MemPower {
		t.Fatal("power metrics must come last")
	}
}
