package machine

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/tlb"
)

// reuseWorkloads differ in every region size, so a run that inherited
// any cache, TLB or predictor state from the previous one would count
// differently.
func reuseWorkloads() []Workload {
	a := testWorkload()
	a.Key = "reuse-a"
	b := testWorkload()
	b.Key = "reuse-b"
	b.Spec.KernelFrac = 0.05
	b.Spec.WarmBytes, b.Spec.FootprintBytes = 6<<20, 256<<20
	b.Spec.CodeBytes, b.Spec.HotCodeBytes = 2<<20, 64<<10
	b.Spec.PatternFrac = 0.3
	return []Workload{a, b}
}

func freshRun(t testing.TB, cfg Config, w Workload, opts RunOptions) *RawCounts {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := m.Run(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	return rc
}

// TestRunReuseBitIdentical runs workloads A, B, A on one Machine, whose
// later runs reuse the pooled simulator state of the earlier ones, and
// checks each against the same run on a freshly built Machine.
func TestRunReuseBitIdentical(t *testing.T) {
	ws := reuseWorkloads()
	opts := RunOptions{Instructions: 20_000, WarmupInstructions: 4_000}
	for _, cfg := range []Config{SkylakeConfig(), HarpertownConfig(), SparcT4Config()} {
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range []Workload{ws[0], ws[1], ws[0]} {
			got, err := m.Run(w, opts)
			if err != nil {
				t.Fatal(err)
			}
			if want := freshRun(t, cfg, w, opts); *got != *want {
				t.Errorf("%s: run %d (%s) on a reused machine differs from a fresh one:\n got %+v\nwant %+v",
					cfg.Name, i, w.Key, got, want)
			}
		}
	}
}

// TestConcurrentRunsShareMachine runs workloads concurrently on one
// shared Machine; every result must equal the serial one. `make
// race-machine` runs it under the race detector.
func TestConcurrentRunsShareMachine(t *testing.T) {
	ws := reuseWorkloads()
	opts := RunOptions{Instructions: 5_000, WarmupInstructions: 1_000}
	cfg := SkylakeConfig()
	want := make([]*RawCounts, len(ws))
	for i, w := range ws {
		want[i] = freshRun(t, cfg, w, opts)
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 4
	errs := make(chan error, goroutines*len(ws)*2)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 2; rep++ {
				for k := range ws {
					i := (g + k) % len(ws)
					rc, err := m.Run(ws[i], opts)
					switch {
					case err != nil:
						errs <- err
					case *rc != *want[i]:
						errs <- fmt.Errorf("goroutine %d: %s differs from the serial run", g, ws[i].Key)
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestNewValidatesGeometryText pins New's error for each invalid
// cache, TLB and predictor geometry. New validates the configs instead
// of building and discarding the components, and the messages are the
// ones the built components used to report.
func TestNewValidatesGeometryText(t *testing.T) {
	cases := []struct {
		edit func(*Config)
		want string
	}{
		{func(c *Config) { c.Caches.L1I.SizeBytes = 0 },
			"machine skylake-i7-6700: L1I: cache: non-positive geometry {SizeBytes:0 Ways:8 LineBytes:64}"},
		{func(c *Config) { c.Caches.L1D.SizeBytes = 1000 },
			"machine skylake-i7-6700: L1D: cache: size 1000 not divisible by ways*line (8*64)"},
		{func(c *Config) { c.Caches.L2.LineBytes = 48 },
			"machine skylake-i7-6700: L2: cache: line size 48 not a power of two"},
		{func(c *Config) { c.Caches.L3 = &cache.Config{SizeBytes: 3 << 20, Ways: 16, LineBytes: 64} },
			"machine skylake-i7-6700: L3: cache: set count 3072 not a power of two"},
		{func(c *Config) { c.Caches.L3 = &cache.Config{SizeBytes: 256 * 64, Ways: 256, LineBytes: 64} },
			"machine skylake-i7-6700: L3: cache: associativity 256 exceeds supported maximum 255"},
		{func(c *Config) { c.TLBs.ITLB = tlb.Config{Entries: 0, Ways: 1} },
			"machine skylake-i7-6700: ITLB: tlb: non-positive geometry {Entries:0 Ways:1}"},
		{func(c *Config) { c.TLBs.DTLB = tlb.Config{Entries: 64, Ways: 5} },
			"machine skylake-i7-6700: DTLB: tlb: entries 64 not divisible by ways 5"},
		{func(c *Config) { c.TLBs.L2 = &tlb.Config{Entries: 96, Ways: 8} },
			"machine skylake-i7-6700: L2 TLB: tlb: set count 12 not a power of two"},
		{func(c *Config) { c.TLBs.L2 = &tlb.Config{Entries: 512, Ways: 256} },
			"machine skylake-i7-6700: L2 TLB: tlb: cache: associativity 256 exceeds supported maximum 255"},
		{func(c *Config) { c.Predictor = branch.Config{Kind: branch.GShare, TableBits: 30} },
			"machine skylake-i7-6700: branch: table bits 30 out of range [1,24]"},
	}
	for _, tc := range cases {
		cfg := SkylakeConfig()
		tc.edit(&cfg)
		if _, err := New(cfg); err == nil || err.Error() != tc.want {
			t.Errorf("New() error = %v\nwant %q", err, tc.want)
		}
	}
}

// TestFleetAllocs bounds the cost of building the fleet, which happens
// once per Lab: New validates geometry without building the megabytes
// of simulator state a run needs.
func TestFleetAllocs(t *testing.T) {
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Fleet(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 40 {
		t.Errorf("Fleet() made %v allocations, want at most 40", allocs)
	}
}

// BenchmarkPrime measures clearing a hierarchy and priming it with a
// warm region larger than any L2 and a multi-megabyte code footprint,
// on the smallest and the largest L3 of the fleet. Clear is O(1) and a
// sweep defers whatever it can, so most sets are materialized only on
// their first touch after priming — a cost BenchmarkExactLeaf counts
// and this benchmark does not.
func BenchmarkPrime(b *testing.B) {
	spec := testWorkload().Spec
	spec.KernelFrac = 0.05
	spec.WarmBytes, spec.FootprintBytes = 6<<20, 256<<20
	spec.CodeBytes, spec.HotCodeBytes = 2<<20, 64<<10
	for _, cfg := range []Config{SkylakeConfig(), BroadwellConfig()} {
		b.Run(cfg.Name, func(b *testing.B) {
			caches, _ := cache.NewHierarchy(cfg.Caches)
			tlbs, _ := tlb.NewHierarchy(cfg.TLBs)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				caches.Clear()
				tlbs.Clear()
				prime(caches, tlbs, spec)
			}
		})
	}
}
