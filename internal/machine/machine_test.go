package machine

import (
	"math"
	"testing"

	"repro/internal/trace"
)

func testWorkload() Workload {
	return Workload{
		Key: "test-wl",
		Spec: trace.Spec{
			LoadFrac: 0.25, StoreFrac: 0.10, BranchFrac: 0.12,
			FPFrac: 0.05, SIMDFrac: 0.02,
			HotBytes: 16 << 10, MidBytes: 128 << 10, WarmBytes: 1 << 20, FootprintBytes: 64 << 20,
			HotFrac: 0.5, MidFrac: 0.05, WarmFrac: 0.25, StrideFrac: 0.1,
			CodeBytes: 128 << 10, HotCodeBytes: 16 << 10, HotCodeFrac: 0.9,
			BranchEntropy: 0.15, TakenFrac: 0.6,
		},
		ILP: 2.5,
	}
}

func quickOpts() RunOptions {
	return RunOptions{Instructions: 60_000, WarmupInstructions: 15_000}
}

func TestFleetConstruction(t *testing.T) {
	fleet, err := Fleet()
	if err != nil {
		t.Fatal(err)
	}
	if len(fleet) != 7 {
		t.Fatalf("fleet has %d machines, want 7", len(fleet))
	}
	names := make(map[string]bool)
	for _, m := range fleet {
		if names[m.Name()] {
			t.Fatalf("duplicate machine name %q", m.Name())
		}
		names[m.Name()] = true
	}
	isas := map[ISA]int{}
	for _, m := range fleet {
		isas[m.Config().ISA]++
	}
	if isas[SPARC] != 2 || isas[X86] != 5 {
		t.Fatalf("ISA split %v, want 5 x86 + 2 sparc", isas)
	}
}

func TestSensitivityFleet(t *testing.T) {
	sens, err := SensitivityFleet()
	if err != nil {
		t.Fatal(err)
	}
	if len(sens) != 4 {
		t.Fatalf("sensitivity fleet has %d machines, want 4", len(sens))
	}
}

func TestNewRejectsBadConfigs(t *testing.T) {
	bad := SkylakeConfig()
	bad.Name = ""
	if _, err := New(bad); err == nil {
		t.Fatal("empty name must be rejected")
	}
	bad = SkylakeConfig()
	bad.IssueWidth = 0
	if _, err := New(bad); err == nil {
		t.Fatal("zero issue width must be rejected")
	}
	bad = SkylakeConfig()
	bad.Caches.L1D.SizeBytes = 1000 // invalid geometry
	if _, err := New(bad); err == nil {
		t.Fatal("invalid cache must be rejected")
	}
	bad = SkylakeConfig()
	bad.Penalties.MLP = 0
	if _, err := New(bad); err == nil {
		t.Fatal("invalid penalties must be rejected")
	}
}

func TestRunProducesPlausibleCounts(t *testing.T) {
	m, err := New(SkylakeConfig())
	if err != nil {
		t.Fatal(err)
	}
	w := testWorkload()
	rc, err := m.Run(w, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	n := float64(rc.Instructions)
	if rc.Instructions != 60_000 {
		t.Fatalf("measured %d instructions, want 60000", rc.Instructions)
	}
	if f := float64(rc.Loads) / n; math.Abs(f-w.Spec.LoadFrac) > 0.05 {
		t.Errorf("load fraction %v, want ≈%v", f, w.Spec.LoadFrac)
	}
	if rc.Branches == 0 || rc.TakenBranches == 0 {
		t.Error("expected branches and taken branches")
	}
	if rc.Mispredicts == 0 {
		t.Error("nonzero branch entropy should cause mispredicts")
	}
	if rc.CPI <= 0.25 {
		t.Errorf("CPI %v should exceed the issue-width ideal", rc.CPI)
	}
	if rc.Cycles == 0 {
		t.Error("cycles must be derived")
	}
	if got := rc.Stack.Total(); math.Abs(got-rc.CPI) > 1e-9 {
		t.Errorf("stack total %v != CPI %v", got, rc.CPI)
	}
	if rc.Power.Total() <= 0 {
		t.Error("Skylake has RAPL; power must be positive")
	}
}

func TestRunDeterministic(t *testing.T) {
	m, _ := New(SkylakeConfig())
	w := testWorkload()
	a, err := m.Run(w, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Run(w, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if *a != *b {
		t.Fatalf("runs differ:\n%+v\n%+v", a, b)
	}
}

func TestRunNoPowerWithoutRAPL(t *testing.T) {
	m, _ := New(SparcT4Config())
	rc, err := m.Run(testWorkload(), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if rc.Power.Total() != 0 {
		t.Fatal("non-RAPL machine must report zero power")
	}
}

func TestRunRejectsBadWorkload(t *testing.T) {
	m, _ := New(SkylakeConfig())
	w := testWorkload()
	w.ILP = 0
	if _, err := m.Run(w, quickOpts()); err == nil {
		t.Fatal("ILP=0 must be rejected")
	}
	w = testWorkload()
	w.Spec.HotBytes = 0
	if _, err := m.Run(w, quickOpts()); err == nil {
		t.Fatal("invalid spec must be rejected")
	}
}

func TestMachinesDisagree(t *testing.T) {
	// The same workload must produce different metric values on
	// different machines — that diversity is what PCA consumes.
	sky, _ := New(SkylakeConfig())
	t4, _ := New(SparcT4Config())
	w := testWorkload()
	a, err := sky.Run(w, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	b, err := t4.Run(w, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if a.Cache.L1DMisses == b.Cache.L1DMisses {
		t.Error("32K vs 16K L1D should give different miss counts")
	}
	if a.CPI == b.CPI {
		t.Error("machines should disagree on CPI")
	}
}

func TestBigFootprintMissesMore(t *testing.T) {
	m, _ := New(SkylakeConfig())
	small := testWorkload()
	small.Key = "small"
	small.Spec.HotFrac, small.Spec.WarmFrac = 0.95, 0.05
	big := testWorkload()
	big.Key = "big"
	big.Spec.HotFrac, big.Spec.WarmFrac = 0.05, 0.05 // 90% cold over 64 MB
	a, err := m.Run(small, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Run(big, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if b.Cache.L3Misses <= a.Cache.L3Misses*5 {
		t.Errorf("cold-heavy workload should miss LLC far more: %d vs %d",
			b.Cache.L3Misses, a.Cache.L3Misses)
	}
	if b.CPI <= a.CPI {
		t.Errorf("memory-bound workload should have higher CPI: %v vs %v", b.CPI, a.CPI)
	}
}

func TestSPARCAdjustment(t *testing.T) {
	sparc, _ := New(SparcIVConfig())
	w := testWorkload()
	adjusted := sparc.adjustSpec(w)
	if adjusted.CodeBytes <= w.Spec.CodeBytes {
		t.Error("SPARC recompilation should grow code footprint")
	}
	if err := adjusted.Validate(); err != nil {
		t.Fatalf("adjusted spec invalid: %v", err)
	}
}

func TestAdjustSpecAlwaysValid(t *testing.T) {
	// Even near-boundary specs must stay valid after jitter.
	fleet, _ := Fleet()
	w := testWorkload()
	w.Spec.LoadFrac, w.Spec.StoreFrac, w.Spec.BranchFrac = 0.45, 0.20, 0.33
	w.Spec.HotFrac, w.Spec.WarmFrac, w.Spec.StrideFrac = 0.5, 0.3, 0.2
	for _, m := range fleet {
		if err := m.adjustSpec(w).Validate(); err != nil {
			t.Errorf("machine %s produced invalid adjusted spec: %v", m.Name(), err)
		}
	}
}

func TestRunDefaults(t *testing.T) {
	m, _ := New(HarpertownConfig())
	rc, err := m.Run(testWorkload(), RunOptions{Instructions: 30_000})
	if err != nil {
		t.Fatal(err)
	}
	if rc.Instructions != 30_000 {
		t.Fatalf("instructions %d", rc.Instructions)
	}
	// Harpertown has no L3: no L3 accesses may be recorded.
	if rc.Cache.L3Accesses != 0 {
		t.Fatal("machine without L3 recorded L3 accesses")
	}
}

func TestRunOptionsCanonical(t *testing.T) {
	cases := []struct {
		in   RunOptions
		want RunOptions
	}{
		// Zero value takes all measurement defaults.
		{RunOptions{}, RunOptions{Instructions: 400_000, WarmupInstructions: 80_000}},
		// Default warmup is instructions/5.
		{RunOptions{Instructions: 5000}, RunOptions{Instructions: 5000, WarmupInstructions: 1000}},
		// Explicit values survive.
		{RunOptions{Instructions: 5000, WarmupInstructions: 42}, RunOptions{Instructions: 5000, WarmupInstructions: 42}},
		// Parallelism is a scheduling knob, not a measurement
		// identity: Canonical clears it.
		{RunOptions{Instructions: 5000, Parallelism: 7}, RunOptions{Instructions: 5000, WarmupInstructions: 1000}},
	}
	for _, c := range cases {
		if got := c.in.Canonical(); got != c.want {
			t.Errorf("Canonical(%+v) = %+v, want %+v", c.in, got, c.want)
		}
	}
	// Spelling the default warmup explicitly lands on the same
	// canonical identity — the property the server's cache key needs.
	a := RunOptions{Instructions: 5000}.Canonical()
	b := RunOptions{Instructions: 5000, WarmupInstructions: 1000}.Canonical()
	if a != b {
		t.Errorf("equivalent fidelities canonicalize differently: %+v vs %+v", a, b)
	}
}

// TestNaNRejected: a NaN or infinite frequency, penalty, power
// coefficient or ILP, or a NaN spec fraction, fails validation the way
// an out-of-range value does, and so does a non-finite power
// coefficient on a machine without RAPL, whose power model is never
// consulted but is part of the configuration. Passed through, it would
// run, and the content hash, which reads the JSON encoding that NaN and
// ±Inf have none of, could not tell two such inputs apart.
func TestNaNRejected(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		for name, mutate := range map[string]func(*Config){
			"FreqGHz":             func(c *Config) { c.FreqGHz = bad },
			"MLP":                 func(c *Config) { c.Penalties.MLP = bad },
			"MemLatency":          func(c *Config) { c.Penalties.MemLatency = bad },
			"DRAMPerMPC":          func(c *Config) { c.Power.DRAMPerMPC = bad },
			"non-RAPL CoreStatic": func(c *Config) { c.HasRAPL = false; c.Power.CoreStatic = bad },
		} {
			cfg := SkylakeConfig()
			mutate(&cfg)
			if _, err := New(cfg); err == nil {
				t.Errorf("New with %v %s: no error", bad, name)
			}
		}
	}
	m, err := New(SkylakeConfig())
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(*Workload){
		"NaN ILP":      func(w *Workload) { w.ILP = math.NaN() },
		"+Inf ILP":     func(w *Workload) { w.ILP = math.Inf(1) },
		"NaN LoadFrac": func(w *Workload) { w.Spec.LoadFrac = math.NaN() },
	} {
		w := testWorkload()
		mutate(&w)
		if _, err := m.Run(w, quickOpts()); err == nil {
			t.Errorf("Run with %s: no error", name)
		}
		if _, err := m.RunMulti(w, 2, quickOpts()); err == nil {
			t.Errorf("RunMulti with %s: no error", name)
		}
	}
}
