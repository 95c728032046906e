package cache

import (
	"math"
	"math/bits"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func small() Config { return Config{SizeBytes: 1024, Ways: 2, LineBytes: 64} } // 8 sets

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{SizeBytes: 0, Ways: 1, LineBytes: 64},
		{SizeBytes: 1024, Ways: 0, LineBytes: 64},
		{SizeBytes: 1024, Ways: 2, LineBytes: 48},         // not power of two
		{SizeBytes: 1000, Ways: 2, LineBytes: 64},         // not divisible
		{SizeBytes: 64 * 3 * 1, Ways: 1, LineBytes: 64},   // 3 sets, not pow2
		{SizeBytes: 1 << 20, Ways: 4, LineBytes: 1 << 62}, // ways*line overflows to 0
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %+v should be invalid", c)
		}
	}
	if err := small().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if small().Sets() != 8 {
		t.Fatalf("Sets() = %d, want 8", small().Sets())
	}
}

func TestColdMissThenHit(t *testing.T) {
	c, err := New(small())
	if err != nil {
		t.Fatal(err)
	}
	if c.Access(0x1000) {
		t.Fatal("first access must be a cold miss")
	}
	if !c.Access(0x1000) {
		t.Fatal("second access to same address must hit")
	}
	if !c.Access(0x1004) {
		t.Fatal("same-line access must hit")
	}
	acc, miss := c.Stats()
	if acc != 3 || miss != 1 {
		t.Fatalf("stats = %d/%d, want 3/1", acc, miss)
	}
}

func TestLRUEviction(t *testing.T) {
	// 2-way cache: three distinct lines mapping to the same set must
	// evict the least recently used.
	c, _ := New(small())
	sets := uint64(c.Config().Sets())
	line := uint64(c.Config().LineBytes)
	a := uint64(0)
	b := a + sets*line   // same set, different tag
	d := a + 2*sets*line // same set, third tag
	c.Access(a)
	c.Access(b)
	c.Access(a) // a is now MRU, b is LRU
	if c.Access(d) {
		t.Fatal("third tag must miss")
	}
	if !c.Access(a) {
		t.Fatal("a must still be resident (was MRU)")
	}
	if c.Access(b) {
		t.Fatal("b must have been evicted (was LRU)")
	}
}

func TestWorkingSetFitsVsOverflows(t *testing.T) {
	c, _ := New(Config{SizeBytes: 4096, Ways: 4, LineBytes: 64})
	r := rng.New(1)
	// Working set half the cache: after warmup, miss rate ≈ 0.
	c.ResetStats()
	for i := 0; i < 20000; i++ {
		c.Access(uint64(r.Intn(2048)))
	}
	c.ResetStats()
	for i := 0; i < 20000; i++ {
		c.Access(uint64(r.Intn(2048)))
	}
	if mr := c.MissRate(); mr > 0.001 {
		t.Fatalf("fitting working set miss rate %v, want ~0", mr)
	}
	// Working set 16x the cache: most accesses miss.
	big, _ := New(Config{SizeBytes: 4096, Ways: 4, LineBytes: 64})
	for i := 0; i < 40000; i++ {
		big.Access(uint64(r.Intn(64 * 4096)))
	}
	big.ResetStats()
	for i := 0; i < 40000; i++ {
		big.Access(uint64(r.Intn(64 * 4096)))
	}
	if mr := big.MissRate(); mr < 0.5 {
		t.Fatalf("overflowing working set miss rate %v, want > 0.5", mr)
	}
}

func TestMissRateBeforeAccess(t *testing.T) {
	c, _ := New(small())
	if c.MissRate() != 0 {
		t.Fatal("MissRate before any access should be 0")
	}
}

func TestResetStatsKeepsContents(t *testing.T) {
	c, _ := New(small())
	c.Access(0x40)
	c.ResetStats()
	if acc, miss := c.Stats(); acc != 0 || miss != 0 {
		t.Fatal("ResetStats must zero counters")
	}
	if !c.Access(0x40) {
		t.Fatal("contents must survive ResetStats")
	}
}

func TestAssociativityMatters(t *testing.T) {
	// Direct-mapped thrashing: alternating between two same-set lines
	// always misses; 2-way holds both.
	dm, _ := New(Config{SizeBytes: 512, Ways: 1, LineBytes: 64})
	tw, _ := New(Config{SizeBytes: 512, Ways: 2, LineBytes: 64})
	sets := uint64(dm.Config().Sets())
	a, b := uint64(0), sets*64
	for i := 0; i < 100; i++ {
		dm.Access(a)
		dm.Access(b)
		tw.Access(a)
		tw.Access(b % (sets / 2 * 64 * 2)) // same-set pair for 2-way too
	}
	if dm.MissRate() < 0.99 {
		t.Fatalf("direct-mapped ping-pong should thrash, miss rate %v", dm.MissRate())
	}
	if tw.MissRate() > 0.05 {
		t.Fatalf("2-way should hold both lines, miss rate %v", tw.MissRate())
	}
}

// Property: miss count never exceeds access count, and re-accessing the
// same address immediately always hits.
func TestCacheInvariantsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		c, err := New(Config{SizeBytes: 2048, Ways: 4, LineBytes: 32})
		if err != nil {
			return false
		}
		r := rng.New(seed)
		for i := 0; i < 2000; i++ {
			addr := uint64(r.Intn(1 << 20))
			c.Access(addr)
			if !c.Access(addr) {
				return false
			}
		}
		acc, miss := c.Stats()
		return miss <= acc && acc == 4000
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func newTestHierarchy(t *testing.T, withL3 bool) *Hierarchy {
	t.Helper()
	cfg := HierarchyConfig{
		L1I: Config{SizeBytes: 1024, Ways: 2, LineBytes: 64},
		L1D: Config{SizeBytes: 1024, Ways: 2, LineBytes: 64},
		L2:  Config{SizeBytes: 8192, Ways: 4, LineBytes: 64},
	}
	if withL3 {
		cfg.L3 = &Config{SizeBytes: 65536, Ways: 8, LineBytes: 64}
	}
	h, err := NewHierarchy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestHierarchyLevels(t *testing.T) {
	h := newTestHierarchy(t, true)
	if lvl := h.AccessData(0x10000); lvl != 3 {
		t.Fatalf("cold access level %d, want 3 (memory)", lvl)
	}
	if lvl := h.AccessData(0x10000); lvl != 0 {
		t.Fatalf("hot access level %d, want 0 (L1)", lvl)
	}
	cts := h.Counts()
	if cts.L1DAccesses != 2 || cts.L1DMisses != 1 {
		t.Fatalf("L1D counts %+v", cts)
	}
	if cts.L2DAccesses != 1 || cts.L2DMisses != 1 {
		t.Fatalf("L2D counts %+v", cts)
	}
	if cts.L3Accesses != 1 || cts.L3Misses != 1 {
		t.Fatalf("L3 counts %+v", cts)
	}
}

func TestHierarchyInstrVsDataAccounting(t *testing.T) {
	h := newTestHierarchy(t, true)
	h.FetchInstr(0x4000)
	h.AccessData(0x8000)
	cts := h.Counts()
	if cts.L1IMisses != 1 || cts.L1DMisses != 1 {
		t.Fatalf("split L1 accounting wrong: %+v", cts)
	}
	if cts.L2IMisses != 1 || cts.L2DMisses != 1 {
		t.Fatalf("split L2 accounting wrong: %+v", cts)
	}
}

func TestHierarchyNoL3(t *testing.T) {
	h := newTestHierarchy(t, false)
	if lvl := h.AccessData(0x999999); lvl != 3 {
		t.Fatalf("without L3, L2 miss should go to memory (3), got %d", lvl)
	}
	if cts := h.Counts(); cts.L3Accesses != 0 {
		t.Fatal("no L3 accesses should be recorded without an L3")
	}
}

func TestHierarchyL2CatchesL1Miss(t *testing.T) {
	h := newTestHierarchy(t, true)
	// Fill L1D beyond capacity but within L2: re-walk should hit L2.
	for pass := 0; pass < 2; pass++ {
		for a := uint64(0); a < 4096; a += 64 {
			h.AccessData(a)
		}
	}
	h.ResetStats()
	for a := uint64(0); a < 4096; a += 64 {
		h.AccessData(a)
	}
	cts := h.Counts()
	if cts.L2DMisses != 0 {
		t.Fatalf("all lines should be in L2, got %d L2D misses", cts.L2DMisses)
	}
	if cts.L1DMisses == 0 {
		t.Fatal("working set exceeds L1D, expected L1D misses")
	}
}

func TestHierarchyValidatesLevels(t *testing.T) {
	_, err := NewHierarchy(HierarchyConfig{
		L1I: Config{SizeBytes: 1000, Ways: 2, LineBytes: 64}, // invalid
		L1D: small(),
		L2:  small(),
	})
	if err == nil {
		t.Fatal("expected validation error")
	}
}

func TestHierarchyResetStats(t *testing.T) {
	h := newTestHierarchy(t, true)
	h.AccessData(0x1234)
	h.FetchInstr(0x5678)
	h.ResetStats()
	cts := h.Counts()
	if cts != (Counts{}) {
		t.Fatalf("counts after reset: %+v", cts)
	}
}

// TestAddrLimitIsTagBound: below a geometry's AddrLimit every address
// has a 32-bit tag that is not invalidTag, and the limit itself has
// invalidTag, for set counts from one to past 2^32 lines.
func TestAddrLimitIsTagBound(t *testing.T) {
	for _, cfg := range []Config{
		{SizeBytes: 64 << 10, Ways: 64 << 10 / 4096, LineBytes: 4096}, // one set of pages
		{SizeBytes: 16 << 10, Ways: 4, LineBytes: 64},
		{SizeBytes: 32 << 20, Ways: 16, LineBytes: 64},
		{SizeBytes: 1 << 40, Ways: 1, LineBytes: 1 << 20},
	} {
		if err := cfg.Validate(); err != nil {
			t.Fatal(err)
		}
		shift := uint(bits.TrailingZeros(uint(cfg.SizeBytes / cfg.Ways)))
		limit := cfg.AddrLimit()
		tag := func(addr uint64) uint64 { return addr >> shift }
		if shift > 32 {
			if limit != math.MaxUint64 || tag(math.MaxUint64) >= uint64(invalidTag) {
				t.Errorf("%+v: limit %#x, top tag %#x", cfg, limit, tag(math.MaxUint64))
			}
			continue
		}
		if got := tag(limit - 1); got >= uint64(invalidTag) {
			t.Errorf("%+v: address %#x below the limit has tag %#x", cfg, limit-1, got)
		}
		if got := tag(limit); got != uint64(invalidTag) {
			t.Errorf("%+v: the limit %#x has tag %#x, want invalidTag", cfg, limit, got)
		}
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if c.Access(limit-1) || !c.Access(limit-1) {
			t.Errorf("%+v: the highest address below the limit is not held after a miss", cfg)
		}
	}
}
