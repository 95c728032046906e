package machine

import (
	"fmt"
	"runtime"
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

// TestFleetAllocs bounds the cost of asking for the fleet, which every
// Lab does: the machines are built once per process, so a call copies
// only the slice of them.
func TestFleetAllocs(t *testing.T) {
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Fleet(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Errorf("Fleet() made %v allocations, want at most 1", allocs)
	}
}

// TestFleetShared: every Fleet call returns the same seven machines,
// in a slice of its own, and the sensitivity fleet is four of them.
func TestFleetShared(t *testing.T) {
	a, err := Fleet()
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Fleet()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("machine %d: two Fleet calls built two machines", i)
		}
	}
	first := a[0]
	a[0] = nil
	if c, _ := Fleet(); c[0] != first {
		t.Fatal("writing one Fleet slice changed another")
	}
	shared := map[*Machine]bool{}
	for _, m := range b {
		shared[m] = true
	}
	sens, _ := SensitivityFleet()
	for _, m := range sens {
		if !shared[m] {
			t.Errorf("sensitivity machine %s is not a fleet machine", m.Name())
		}
	}
}

// TestConfigDetached: a Machine's configuration is its own. Writing
// through the pointers of a Config it returns, or of the Config it was
// built from, changes neither its digest nor what it measures.
func TestConfigDetached(t *testing.T) {
	opts := RunOptions{Instructions: 5_000, WarmupInstructions: 1_000}
	w := testWorkload()
	for _, build := range []func() Config{SkylakeConfig, SparcT4Config} {
		cfg := build()
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		digest := m.ConfigDigest()
		want, err := m.Run(w, opts)
		if err != nil {
			t.Fatal(err)
		}
		got := m.Config()
		got.Caches.L3.SizeBytes, got.Caches.L3.Ways = 1<<20, 1
		got.TLBs.L2.Entries, got.TLBs.L2.Ways = 16, 1
		cfg.Caches.L3.SizeBytes = 2 << 20
		cfg.TLBs.L2.Ways = 2
		if m.ConfigDigest() != digest {
			t.Errorf("%s: digest changed after writing through returned pointers", cfg.Name)
		}
		if again := m.Config(); *again.Caches.L3 != *build().Caches.L3 || *again.TLBs.L2 != *build().TLBs.L2 {
			t.Errorf("%s: Config() = L3 %+v, L2 TLB %+v after writes through copies", cfg.Name, *again.Caches.L3, *again.TLBs.L2)
		}
		// A fresh state, as a process that has never run the machine
		// builds it from the configuration.
		m.state = sync.Pool{}
		if rc, err := m.Run(w, opts); err != nil || *rc != *want {
			t.Errorf("%s: a run after writes through copies differs (err %v)", cfg.Name, err)
		}
	}
}

// warmRunBytes bounds the heap bytes of a Run on pooled simulator
// state, for a workload that never enters the kernel: the generator,
// its hot-branch table and stream positions, and the RawCounts. The
// kernel's branch table and the event slab are not among them.
const warmRunBytes = 12 << 10

// TestWarmRunAllocBytes pins what a warm exact leaf allocates. Each
// Run is measured alone and the least is kept, since a collection can
// empty the pool under any one of them.
func TestWarmRunAllocBytes(t *testing.T) {
	m, err := New(SkylakeConfig())
	if err != nil {
		t.Fatal(err)
	}
	w := testWorkload()
	opts := RunOptions{Instructions: 5_000, WarmupInstructions: 1_000}
	if _, err := m.Run(w, opts); err != nil {
		t.Fatal(err)
	}
	least := ^uint64(0)
	var before, after runtime.MemStats
	for i := 0; i < 10; i++ {
		runtime.ReadMemStats(&before)
		if _, err := m.Run(w, opts); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least > warmRunBytes {
		t.Errorf("a warm Run allocated %d bytes, want at most %d", least, warmRunBytes)
	}
	t.Logf("a warm Run allocated %d bytes", least)
}

// TestConcurrentCallersShareFleet: two callers, each holding its own
// Fleet slice as two Labs do, run Runs and RunMultis on the shared
// machines at once; every result must equal the serial one. `make
// race-machine` runs it under the race detector.
func TestConcurrentCallersShareFleet(t *testing.T) {
	opts := RunOptions{Instructions: 3_000, WarmupInstructions: 600}
	ws := reuseWorkloads()
	fleet, err := Fleet()
	if err != nil {
		t.Fatal(err)
	}
	fleet = fleet[:3]
	type result struct {
		rc *RawCounts
		mc *MultiCounts
	}
	measure := func(m *Machine, w Workload, multi bool) (result, error) {
		if multi {
			mc, err := m.RunMulti(w, 2, opts)
			return result{mc: mc}, err
		}
		rc, err := m.Run(w, opts)
		return result{rc: rc}, err
	}
	equal := func(a, b result) bool {
		if a.rc != nil {
			return b.rc != nil && *a.rc == *b.rc
		}
		if b.mc == nil || a.mc.Copies != b.mc.Copies || a.mc.Throughput != b.mc.Throughput {
			return false
		}
		for i := range a.mc.PerCopy {
			if *a.mc.PerCopy[i] != *b.mc.PerCopy[i] {
				return false
			}
		}
		return true
	}
	want := map[[3]int]result{}
	for mi, m := range fleet {
		for wi, w := range ws {
			for multi := 0; multi < 2; multi++ {
				r, err := measure(m, w, multi == 1)
				if err != nil {
					t.Fatal(err)
				}
				want[[3]int{mi, wi, multi}] = r
			}
		}
	}
	errs := make(chan error, 64)
	var wg sync.WaitGroup
	for caller := 0; caller < 2; caller++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			own, err := Fleet()
			if err != nil {
				errs <- err
				return
			}
			for k := range 2 * len(fleet) * len(ws) {
				mi := (k + caller) % len(fleet)
				wi, multi := k/len(fleet)%len(ws), (k+caller)%2
				got, err := measure(own[mi], ws[wi], multi == 1)
				switch {
				case err != nil:
					errs <- err
				case !equal(got, want[[3]int{mi, wi, multi}]):
					errs <- fmt.Errorf("caller %d: %s on %s (multi %d) differs from the serial run", caller, ws[wi].Key, own[mi].Name(), multi)
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
