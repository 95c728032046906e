package tlb

import (
	"testing"

	"repro/internal/rng"
)

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Entries: 0, Ways: 1},
		{Entries: 64, Ways: 0},
		{Entries: 64, Ways: 5}, // not divisible
		{Entries: 96, Ways: 8}, // 12 sets, not pow2
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %+v should be invalid", c)
		}
	}
	if err := (Config{Entries: 64, Ways: 4}).Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestLookupSamePage(t *testing.T) {
	tl, err := New(Config{Entries: 16, Ways: 16})
	if err != nil {
		t.Fatal(err)
	}
	if tl.Lookup(0x1000) {
		t.Fatal("first page touch must miss")
	}
	if !tl.Lookup(0x1ABC) {
		t.Fatal("same-page access must hit")
	}
	if tl.Lookup(0x2000) {
		t.Fatal("next page must miss")
	}
	lookups, misses := tl.Stats()
	if lookups != 3 || misses != 2 {
		t.Fatalf("stats %d/%d, want 3/2", lookups, misses)
	}
}

func TestCapacityEviction(t *testing.T) {
	tl, _ := New(Config{Entries: 4, Ways: 4})
	// Touch 5 distinct pages; the first must be evicted (LRU).
	for p := uint64(0); p < 5; p++ {
		tl.Lookup(p << PageShift)
	}
	if tl.Lookup(0) {
		t.Fatal("page 0 should have been evicted")
	}
	if !tl.Lookup(4 << PageShift) {
		t.Fatal("page 4 should still be resident")
	}
}

func newHier(t *testing.T, withL2 bool) *Hierarchy {
	t.Helper()
	cfg := HierarchyConfig{
		ITLB: Config{Entries: 8, Ways: 8},
		DTLB: Config{Entries: 8, Ways: 8},
	}
	if withL2 {
		cfg.L2 = &Config{Entries: 64, Ways: 8}
	}
	h, err := NewHierarchy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestHierarchyLevels(t *testing.T) {
	h := newHier(t, true)
	if lvl := h.TranslateData(0x5000); lvl != 2 {
		t.Fatalf("cold translation level %d, want 2 (walk)", lvl)
	}
	if lvl := h.TranslateData(0x5000); lvl != 0 {
		t.Fatalf("warm translation level %d, want 0", lvl)
	}
	c := h.Counts()
	if c.PageWalks != 1 || c.L2Misses != 1 || c.DTLBMisses != 1 {
		t.Fatalf("counts %+v", c)
	}
}

func TestHierarchyL2Catch(t *testing.T) {
	h := newHier(t, true)
	// Touch 32 pages: beyond L1 DTLB (8) but within L2 (64).
	for pass := 0; pass < 2; pass++ {
		for p := uint64(0); p < 32; p++ {
			h.TranslateData(p << PageShift)
		}
	}
	h.ResetStats()
	for p := uint64(0); p < 32; p++ {
		h.TranslateData(p << PageShift)
	}
	c := h.Counts()
	if c.PageWalks != 0 {
		t.Fatalf("all pages fit in L2 TLB, got %d walks", c.PageWalks)
	}
	if c.DTLBMisses == 0 {
		t.Fatal("32 pages exceed the 8-entry DTLB, expected misses")
	}
}

func TestHierarchyNoL2(t *testing.T) {
	h := newHier(t, false)
	if lvl := h.TranslateInstr(0x9000); lvl != 2 {
		t.Fatalf("without L2, L1 miss must walk, got %d", lvl)
	}
	if c := h.Counts(); c.L2Lookups != 0 || c.PageWalks != 1 {
		t.Fatalf("counts %+v", c)
	}
}

func TestInstrDataSplit(t *testing.T) {
	h := newHier(t, true)
	h.TranslateInstr(0x1000)
	h.TranslateData(0x2000)
	c := h.Counts()
	if c.ITLBLookups != 1 || c.DTLBLookups != 1 {
		t.Fatalf("split accounting wrong: %+v", c)
	}
}

func TestHierarchyResetStats(t *testing.T) {
	h := newHier(t, true)
	h.TranslateData(0xABC000)
	h.ResetStats()
	if c := h.Counts(); c != (Counts{}) {
		t.Fatalf("counts after reset: %+v", c)
	}
	if lvl := h.TranslateData(0xABC000); lvl != 0 {
		t.Fatal("contents must survive ResetStats")
	}
}

func TestRandomPagesMissMore(t *testing.T) {
	local := newHier(t, true)
	random := newHier(t, true)
	r := rng.New(42)
	for i := 0; i < 20000; i++ {
		local.TranslateData(uint64(r.Intn(8)) << PageShift)       // 8 pages: fits L1
		random.TranslateData(uint64(r.Intn(100000)) << PageShift) // 100k pages
	}
	lc, rc := local.Counts(), random.Counts()
	if lc.PageWalks*100 >= rc.PageWalks {
		t.Fatalf("random pages should walk far more: local %d vs random %d", lc.PageWalks, rc.PageWalks)
	}
}

// TestClearMatchesNew checks that Clear returns a used hierarchy to
// the state NewHierarchy builds, as far as a user can see it: a seeded
// probe stream of translations gets the same level for every lookup,
// and the same counts after every lookup, from the cleared hierarchy
// as from a fresh one.
func TestClearMatchesNew(t *testing.T) {
	fresh := newHier(t, true)
	h := newHier(t, true)
	r := rng.New(5)
	var used []uint64
	for i := 0; i < 2000; i++ {
		addr := r.Uint64n(1 << 30)
		used = append(used, addr)
		h.TranslateData(addr)
		h.TranslateInstr(addr ^ 1<<29)
	}
	h.Clear()
	if got, want := h.Counts(), fresh.Counts(); got != want {
		t.Fatalf("counts after Clear %+v, want %+v", got, want)
	}
	// Probe the pages the used hierarchy touched last, most recent
	// first, then new ones: a page the Clear forgot would hit where a
	// fresh TLB misses.
	probe := rng.New(6)
	for i := 0; i < 4000; i++ {
		addr := probe.Uint64n(1 << 30)
		if i < 2*len(used) {
			addr = used[len(used)-1-i/2]
		}
		var got, want int
		if i%2 == 0 {
			got, want = h.TranslateData(addr), fresh.TranslateData(addr)
		} else {
			addr ^= 1 << 29
			got, want = h.TranslateInstr(addr), fresh.TranslateInstr(addr)
		}
		if got != want {
			t.Fatalf("probe %d (%#x): level %d after Clear, %d when fresh", i, addr, got, want)
		}
		if g, w := h.Counts(), fresh.Counts(); g != w {
			t.Fatalf("probe %d (%#x): counts %+v after Clear, %+v when fresh", i, addr, g, w)
		}
	}
}

// TestValidateErrorText pins HierarchyConfig.Validate to the error text
// NewHierarchy reports, including the associativity limit of the
// cache a TLB level is built on.
func TestValidateErrorText(t *testing.T) {
	ok := Config{Entries: 8, Ways: 8}
	cases := []struct {
		cfg  HierarchyConfig
		want string
	}{
		{HierarchyConfig{ITLB: Config{Entries: 0, Ways: 1}, DTLB: ok},
			"ITLB: tlb: non-positive geometry {Entries:0 Ways:1}"},
		{HierarchyConfig{ITLB: ok, DTLB: Config{Entries: 64, Ways: 5}},
			"DTLB: tlb: entries 64 not divisible by ways 5"},
		{HierarchyConfig{ITLB: ok, DTLB: ok, L2: &Config{Entries: 96, Ways: 8}},
			"L2 TLB: tlb: set count 12 not a power of two"},
		{HierarchyConfig{ITLB: ok, DTLB: ok, L2: &Config{Entries: 512, Ways: 256}},
			"L2 TLB: tlb: cache: associativity 256 exceeds supported maximum 255"},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if err == nil || err.Error() != tc.want {
			t.Errorf("Validate() = %v, want %q", err, tc.want)
		}
		if _, err := NewHierarchy(tc.cfg); err == nil || err.Error() != tc.want {
			t.Errorf("NewHierarchy() error = %v, want %q", err, tc.want)
		}
	}
}
