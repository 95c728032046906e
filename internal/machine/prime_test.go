package machine

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/trace"
)

// TestPrimeEstablishesSteadyState verifies the purpose of the priming
// pass: a workload whose entire working set fits the caches must show
// essentially zero misses from the very first measured instruction,
// without needing a long warmup. The 32-byte-line machine pins that
// priming steps by the hierarchy's line size: a fixed 64-byte step
// primed only every other line there and missed L3 thousands of times.
func TestPrimeEstablishesSteadyState(t *testing.T) {
	line32 := SkylakeConfig()
	line32.Name = "skylake-32B"
	for _, c := range []*cache.Config{&line32.Caches.L1I, &line32.Caches.L1D, &line32.Caches.L2, line32.Caches.L3} {
		c.LineBytes = 32
	}
	for _, cfg := range []Config{SkylakeConfig(), line32} {
		t.Run(cfg.Name, func(t *testing.T) { testPrimeSteadyState(t, cfg) })
	}
}

func testPrimeSteadyState(t *testing.T, cfg Config) {
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := Workload{
		Key: "resident",
		Spec: trace.Spec{
			LoadFrac: 0.3, StoreFrac: 0.1, BranchFrac: 0.12,
			// Everything fits: 8K hot within L1D, warm 512K within L3.
			HotBytes: 8 << 10, MidBytes: 8 << 10, WarmBytes: 512 << 10,
			FootprintBytes: 512 << 10,
			HotFrac:        0.7, MidFrac: 0, WarmFrac: 0.29, StrideFrac: 0,
			CodeBytes: 8 << 10, HotCodeBytes: 8 << 10, HotCodeFrac: 1,
			BranchEntropy: 0, TakenFrac: 0.9,
		},
		ILP: 3,
	}
	// Minimal warmup: priming alone must carry the steady state.
	rc, err := m.Run(w, RunOptions{Instructions: 50_000, WarmupInstructions: 1_000})
	if err != nil {
		t.Fatal(err)
	}
	if rc.Cache.L3Misses > rc.Instructions/1000 {
		t.Errorf("resident working set missed LLC %d times in %d instructions",
			rc.Cache.L3Misses, rc.Instructions)
	}
	if rc.TLB.PageWalks > rc.Instructions/1000 {
		t.Errorf("resident working set walked %d times", rc.TLB.PageWalks)
	}
}

// TestColdFootprintStillMisses verifies the complement: the region
// beyond WarmBytes is deliberately unprimed, so a DRAM-sized footprint
// keeps missing in steady state.
func TestColdFootprintStillMisses(t *testing.T) {
	m, _ := New(SkylakeConfig())
	w := testWorkload()
	w.Key = "cold"
	w.Spec.HotFrac, w.Spec.MidFrac, w.Spec.WarmFrac, w.Spec.StrideFrac = 0.1, 0, 0, 0
	w.Spec.FootprintBytes = 1 << 30
	rc, err := m.Run(w, RunOptions{Instructions: 50_000, WarmupInstructions: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	if rc.Cache.L3Misses < rc.Loads/2 {
		t.Errorf("cold 1 GiB footprint should miss LLC on most references: %d misses for %d loads",
			rc.Cache.L3Misses, rc.Loads)
	}
}
