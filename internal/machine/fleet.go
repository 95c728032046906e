package machine

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/cpistack"
	"repro/internal/power"
	"repro/internal/tlb"
)

// Canonical machine names from Table IV of the paper.
const (
	Skylake    = "skylake-i7-6700"
	Broadwell  = "broadwell-e5-2650v4"
	Ivybridge  = "ivybridge-e5-2430v2"
	Harpertown = "harpertown-e5405"
	SparcIV    = "sparc-iv-v490"
	SparcT4    = "sparc-t4"
	Opteron    = "opteron-2435"
)

func kb(n int) int { return n << 10 }
func mb(n int) int { return n << 20 }

// SkylakeConfig returns the Intel Core i7-6700 model — the machine on
// which the paper's Section II characterization (Table I, Figure 1) is
// performed.
func SkylakeConfig() Config {
	l3 := cache.Config{SizeBytes: mb(8), Ways: 16, LineBytes: 64}
	stlb := tlb.Config{Entries: 1024, Ways: 8}
	return Config{
		Name: Skylake, ISA: X86, FreqGHz: 3.4, IssueWidth: 4,
		Caches: cache.HierarchyConfig{
			L1I: cache.Config{SizeBytes: kb(32), Ways: 8, LineBytes: 64},
			L1D: cache.Config{SizeBytes: kb(32), Ways: 8, LineBytes: 64},
			L2:  cache.Config{SizeBytes: kb(256), Ways: 4, LineBytes: 64},
			L3:  &l3,
		},
		TLBs: tlb.HierarchyConfig{
			ITLB: tlb.Config{Entries: 128, Ways: 8},
			DTLB: tlb.Config{Entries: 64, Ways: 4},
			L2:   &stlb,
		},
		Predictor: branch.Config{Kind: branch.Tournament, TableBits: 14, HistoryBits: 12},
		Penalties: cpistack.Penalties{
			MispredictPenalty: 16,
			L2HitLatency:      10, L3HitLatency: 34, MemLatency: 190,
			PageWalkLatency: 40, MLP: 3,
		},
		HasRAPL: true,
		Power:   power.DefaultModel(),
	}
}

// BroadwellConfig returns the Xeon E5-2650 v4 model. The real part's
// 30 MB LLC is rounded up to 32 MB for a power-of-two set count.
func BroadwellConfig() Config {
	cfg := SkylakeConfig()
	cfg.Name = Broadwell
	cfg.FreqGHz = 2.2
	l3 := cache.Config{SizeBytes: mb(32), Ways: 16, LineBytes: 64}
	cfg.Caches.L3 = &l3
	cfg.Penalties.L3HitLatency = 45 // bigger, slower shared LLC
	cfg.Penalties.MemLatency = 210
	cfg.Power = power.Model{
		CoreStatic: 10, CorePerIPC: 11, FPWeight: 6, SIMDWeight: 13,
		LLCStatic: 4, LLCPerAPC: 55, DRAMStatic: 3, DRAMPerMPC: 340,
	}
	return cfg
}

// IvybridgeConfig returns the Xeon E5-2430 v2 model (15 MB LLC rounded
// to 16 MB). Its predictor and TLBs are a generation older and smaller
// than Skylake's.
func IvybridgeConfig() Config {
	cfg := SkylakeConfig()
	cfg.Name = Ivybridge
	cfg.FreqGHz = 2.5
	l3 := cache.Config{SizeBytes: mb(16), Ways: 16, LineBytes: 64}
	cfg.Caches.L3 = &l3
	stlb := tlb.Config{Entries: 512, Ways: 4}
	cfg.TLBs = tlb.HierarchyConfig{
		ITLB: tlb.Config{Entries: 64, Ways: 4},
		DTLB: tlb.Config{Entries: 64, Ways: 4},
		L2:   &stlb,
	}
	cfg.Predictor = branch.Config{Kind: branch.Tournament, TableBits: 13, HistoryBits: 10}
	cfg.Penalties.MispredictPenalty = 15
	cfg.Penalties.L3HitLatency = 38
	cfg.Penalties.MemLatency = 230
	cfg.Penalties.MLP = 2.5
	cfg.Power = power.Model{
		CoreStatic: 9, CorePerIPC: 14, FPWeight: 7, SIMDWeight: 16,
		LLCStatic: 3, LLCPerAPC: 50, DRAMStatic: 2.5, DRAMPerMPC: 360,
	}
	return cfg
}

// HarpertownConfig returns the Xeon E5405 model: a Core2-era part with
// a large L2 and no L3 (the paper's Table IV lists "N/A"). The per-die
// 2x6 MB L2 is modelled as a unified 4 MB cache.
func HarpertownConfig() Config {
	return Config{
		Name: Harpertown, ISA: X86, FreqGHz: 2.0, IssueWidth: 4,
		Caches: cache.HierarchyConfig{
			L1I: cache.Config{SizeBytes: kb(32), Ways: 8, LineBytes: 64},
			L1D: cache.Config{SizeBytes: kb(32), Ways: 8, LineBytes: 64},
			L2:  cache.Config{SizeBytes: mb(4), Ways: 16, LineBytes: 64},
		},
		TLBs: tlb.HierarchyConfig{
			ITLB: tlb.Config{Entries: 128, Ways: 4},
			DTLB: tlb.Config{Entries: 256, Ways: 4},
		},
		Predictor: branch.Config{Kind: branch.GShare, TableBits: 12, HistoryBits: 8},
		Penalties: cpistack.Penalties{
			MispredictPenalty: 13,
			L2HitLatency:      15, L3HitLatency: 0, MemLatency: 280,
			PageWalkLatency: 80, MLP: 1.8,
		},
	}
}

// SparcIVConfig returns the SPARC-IV+ (Sun Fire V490) model: large
// L1s, a modest on-chip L2 and a huge off-chip L3, narrow issue, and a
// simple bimodal predictor.
func SparcIVConfig() Config {
	l3 := cache.Config{SizeBytes: mb(32), Ways: 4, LineBytes: 64}
	return Config{
		Name: SparcIV, ISA: SPARC, FreqGHz: 1.8, IssueWidth: 2,
		Caches: cache.HierarchyConfig{
			L1I: cache.Config{SizeBytes: kb(64), Ways: 2, LineBytes: 64},
			L1D: cache.Config{SizeBytes: kb(64), Ways: 2, LineBytes: 64},
			L2:  cache.Config{SizeBytes: mb(2), Ways: 4, LineBytes: 64},
			L3:  &l3,
		},
		TLBs: tlb.HierarchyConfig{
			ITLB: tlb.Config{Entries: 16, Ways: 16},
			DTLB: tlb.Config{Entries: 512, Ways: 2},
		},
		Predictor: branch.Config{Kind: branch.Bimodal, TableBits: 12},
		Penalties: cpistack.Penalties{
			MispredictPenalty: 9,
			L2HitLatency:      12, L3HitLatency: 60, MemLatency: 340,
			PageWalkLatency: 120, MLP: 1.5,
		},
	}
}

// SparcT4Config returns the SPARC T4 model: tiny L1s and L2, a shared
// 4 MB L3, and an aggressive-for-SPARC gshare predictor.
func SparcT4Config() Config {
	l3 := cache.Config{SizeBytes: mb(4), Ways: 16, LineBytes: 64}
	l2t := tlb.Config{Entries: 512, Ways: 4}
	return Config{
		Name: SparcT4, ISA: SPARC, FreqGHz: 3.0, IssueWidth: 2,
		Caches: cache.HierarchyConfig{
			L1I: cache.Config{SizeBytes: kb(16), Ways: 4, LineBytes: 64},
			L1D: cache.Config{SizeBytes: kb(16), Ways: 4, LineBytes: 64},
			L2:  cache.Config{SizeBytes: kb(128), Ways: 8, LineBytes: 64},
			L3:  &l3,
		},
		TLBs: tlb.HierarchyConfig{
			ITLB: tlb.Config{Entries: 64, Ways: 64},
			DTLB: tlb.Config{Entries: 128, Ways: 64},
			L2:   &l2t,
		},
		Predictor: branch.Config{Kind: branch.GShare, TableBits: 13, HistoryBits: 11},
		Penalties: cpistack.Penalties{
			MispredictPenalty: 11,
			L2HitLatency:      10, L3HitLatency: 40, MemLatency: 300,
			PageWalkLatency: 90, MLP: 2,
		},
	}
}

// OpteronConfig returns the AMD Opteron 2435 model (Istanbul): large
// 2-way L1s, a 512 KB L2, and a 6 MB shared L3 modelled as 4 MB.
func OpteronConfig() Config {
	l3 := cache.Config{SizeBytes: mb(4), Ways: 16, LineBytes: 64}
	l2t := tlb.Config{Entries: 512, Ways: 4}
	return Config{
		Name: Opteron, ISA: X86, FreqGHz: 2.6, IssueWidth: 3,
		Caches: cache.HierarchyConfig{
			L1I: cache.Config{SizeBytes: kb(64), Ways: 2, LineBytes: 64},
			L1D: cache.Config{SizeBytes: kb(64), Ways: 2, LineBytes: 64},
			L2:  cache.Config{SizeBytes: kb(512), Ways: 16, LineBytes: 64},
			L3:  &l3,
		},
		TLBs: tlb.HierarchyConfig{
			ITLB: tlb.Config{Entries: 32, Ways: 32},
			DTLB: tlb.Config{Entries: 48, Ways: 48},
			L2:   &l2t,
		},
		Predictor: branch.Config{Kind: branch.GShare, TableBits: 13, HistoryBits: 9},
		Penalties: cpistack.Penalties{
			MispredictPenalty: 12,
			L2HitLatency:      12, L3HitLatency: 45, MemLatency: 250,
			PageWalkLatency: 60, MLP: 2,
		},
	}
}

// Fleet returns the seven machines of Table IV, in the paper's order.
// The machines are built once per process, so every caller shares
// their simulator-state pools and configuration digests; each call
// returns a fresh slice of them.
func Fleet() ([]*Machine, error) {
	machines, err := fleet()
	if err != nil {
		return nil, err
	}
	return slices.Clone(machines), nil
}

// fleet builds the process's fleet on first use.
var fleet = sync.OnceValues(func() ([]*Machine, error) {
	cfgs := []Config{
		SkylakeConfig(), BroadwellConfig(), IvybridgeConfig(),
		HarpertownConfig(), SparcIVConfig(), SparcT4Config(), OpteronConfig(),
	}
	machines := make([]*Machine, 0, len(cfgs))
	for _, c := range cfgs {
		m, err := New(c)
		if err != nil {
			return nil, fmt.Errorf("machine fleet: %w", err)
		}
		machines = append(machines, m)
	}
	return machines, nil
})

// SensitivityFleet returns the four machines used for the paper's
// Table IX sensitivity ranking (the paper uses "four different
// machines"; we pick the four most architecturally diverse, including
// the bimodal-predictor SPARC-IV+ so predictor quality varies).
func SensitivityFleet() ([]*Machine, error) {
	all, err := Fleet()
	if err != nil {
		return nil, err
	}
	want := map[string]bool{Skylake: true, SparcIV: true, SparcT4: true, Opteron: true}
	var out []*Machine
	for _, m := range all {
		if want[m.Name()] {
			out = append(out, m)
		}
	}
	return out, nil
}
