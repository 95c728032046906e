package cache

import (
	"fmt"
	"testing"

	"repro/internal/rng"
)

// sweepGeometries are small hierarchies, so random sweeps cover empty,
// partly filled and wrapped-around sets. "mixed-lines" has a level
// whose lines are larger than the sweep step, which always takes the
// per-access path.
func sweepGeometries() []struct {
	name string
	cfg  HierarchyConfig
} {
	l3 := Config{SizeBytes: 16 << 10, Ways: 8, LineBytes: 64}
	l3mixed := Config{SizeBytes: 16 << 10, Ways: 4, LineBytes: 64}
	return []struct {
		name string
		cfg  HierarchyConfig
	}{
		{"three-level", HierarchyConfig{
			L1I: Config{SizeBytes: 1 << 10, Ways: 2, LineBytes: 64},
			L1D: Config{SizeBytes: 1 << 10, Ways: 4, LineBytes: 64},
			L2:  Config{SizeBytes: 4 << 10, Ways: 4, LineBytes: 64},
			L3:  &l3,
		}},
		{"no-L3", HierarchyConfig{
			L1I: Config{SizeBytes: 512, Ways: 1, LineBytes: 32},
			L1D: Config{SizeBytes: 1 << 10, Ways: 2, LineBytes: 32},
			L2:  Config{SizeBytes: 4 << 10, Ways: 8, LineBytes: 32},
		}},
		{"mixed-lines", HierarchyConfig{
			L1I: Config{SizeBytes: 1 << 10, Ways: 2, LineBytes: 32},
			L1D: Config{SizeBytes: 1 << 10, Ways: 2, LineBytes: 32},
			L2:  Config{SizeBytes: 4 << 10, Ways: 4, LineBytes: 64},
			L3:  &l3mixed,
		}},
	}
}

// sweepPreStates fill h with some lines of [base, base+size) at one
// level only — by accessing that level directly, bypassing the ones
// above — or with unrelated lines that fill sets partway.
var sweepPreStates = []struct {
	name string
	fill func(h *Hierarchy, r *rng.Rand, base, size uint64)
}{
	{"empty", func(*Hierarchy, *rng.Rand, uint64, uint64) {}},
	{"unrelated", func(h *Hierarchy, r *rng.Rand, base, size uint64) {
		for n := r.Intn(200); n > 0; n-- {
			addr := base + size + 64 + r.Uint64n(64<<10)
			if r.Bool(0.5) {
				h.AccessData(addr)
			} else {
				h.FetchInstr(addr)
			}
		}
	}},
	{"range-in-L1", func(h *Hierarchy, r *rng.Rand, base, size uint64) {
		touchRange(h.L1D, r, base, size)
		touchRange(h.L1I, r, base, size)
	}},
	{"range-in-L2", func(h *Hierarchy, r *rng.Rand, base, size uint64) {
		touchRange(h.L2, r, base, size)
	}},
	{"range-in-L3", func(h *Hierarchy, r *rng.Rand, base, size uint64) {
		if h.L3 != nil {
			touchRange(h.L3, r, base, size)
		}
	}},
	{"range-everywhere", func(h *Hierarchy, r *rng.Rand, base, size uint64) {
		for n := 1 + r.Intn(20); n > 0; n-- {
			h.AccessData(base + r.Uint64n(size+1))
		}
	}},
}

func touchRange(c *Cache, r *rng.Rand, base, size uint64) {
	for n := 1 + r.Intn(6); n > 0; n-- {
		c.Access(base + r.Uint64n(size+1))
	}
}

// TestSweepMatchesAccess checks SweepData and SweepInstr against the
// per-access loop they replace, on whole hierarchies: tags, recency
// order and every counter must be identical. The swept hierarchy is
// one reused across cases and cleared between them, as a machine's
// pooled state is.
func TestSweepMatchesAccess(t *testing.T) {
	r := rng.New(15)
	sizes := []uint64{0, 1, 63, 64, 65, 1000, 4 << 10, 5<<10 + 17, 16 << 10, 40<<10 + 3}
	for _, g := range sweepGeometries() {
		got, _ := NewHierarchy(g.cfg)
		for _, pre := range sweepPreStates {
			for i := 0; i < 40; i++ {
				size := sizes[r.Intn(len(sizes))]
				base := uint64(1<<20) + r.Uint64n(1<<16)
				if r.Bool(0.5) {
					base &^= 63 // aligned as well as unaligned bases
				}
				instr := r.Bool(0.5)
				name := fmt.Sprintf("%s/%s/base=%#x/size=%d/instr=%v", g.name, pre.name, base, size, instr)

				want, _ := NewHierarchy(g.cfg)
				got.Clear()
				seed := r.Uint64()
				pre.fill(want, rng.New(seed), base, size)
				pre.fill(got, rng.New(seed), base, size)

				step := uint64(want.minLineBytes())
				for off := uint64(0); off < size; off += step {
					if instr {
						want.FetchInstr(base + off)
					} else {
						want.AccessData(base + off)
					}
				}
				if instr {
					got.SweepInstr(base, size)
				} else {
					got.SweepData(base, size)
				}
				if d := diffHierarchies(got, want); d != "" {
					t.Fatalf("%s: sweep state differs from the per-access loop: %s", name, d)
				}
			}
		}
	}
}

// TestSweepMissesClosedForm pins that the closed form is what runs on
// a level that holds none of the range — so TestSweepMatchesAccess
// compares it, not only the fallback — and that a level holding one
// line of the range declines without changing anything observable.
// The caches under test are used and cleared first.
func TestSweepMissesClosedForm(t *testing.T) {
	cfg := Config{SizeBytes: 4 << 10, Ways: 4, LineBytes: 64} // 16 sets
	const base, n = 0x10_0010, 100                            // unaligned; k > ways in every set
	used := func() *Cache {
		c := newCache(cfg)
		c.sweepMisses(base, 64, 2*n)
		for i := uint64(0); i < 2*n; i += 3 {
			c.Access(base + i*64)
		}
		c.Clear()
		if d := diffState(c.state(), newCache(cfg).state()); d != "" {
			t.Fatalf("a cleared cache differs from a new one: %s", d)
		}
		return c
	}
	got, want := used(), newCache(cfg)
	got.Access(0x90_0000) // a line outside the range
	want.Access(0x90_0000)
	if !got.sweepMisses(base, 64, n) {
		t.Fatal("a cache holding no line of the range must take the closed form")
	}
	for i := uint64(0); i < n; i++ {
		want.Access(base + i*64)
	}
	if d := diffState(got.state(), want.state()); d != "" {
		t.Fatalf("closed form differs from the per-access loop: %s", d)
	}

	held := used()
	held.Access(base + 50*64)
	before := held.state()
	if held.sweepMisses(base, 64, n) {
		t.Fatal("a cache holding a line of the range must decline the closed form")
	}
	if d := diffState(held.state(), before); d != "" {
		t.Fatalf("a declined closed form must leave the cache unchanged: %s", d)
	}
	if newCache(cfg).sweepMisses(base, 32, n) {
		t.Fatal("a step other than the line size must decline the closed form")
	}
}

// TestClearMatchesNew checks that Clear returns a used cache and
// hierarchy — primed by sweeps as well as accessed — to exactly the
// observable state their constructors build: every counter zero and
// every set empty.
func TestClearMatchesNew(t *testing.T) {
	cfg := sweepGeometries()[0].cfg
	fresh, _ := NewHierarchy(cfg)
	h, _ := NewHierarchy(cfg)
	r := rng.New(3)
	h.SweepInstr(1<<24, 6<<10)
	h.SweepData(1<<20, 20<<10)
	h.SweepData(1<<20, 2<<10)
	for i := 0; i < 5000; i++ {
		h.AccessData(r.Uint64n(1 << 20))
		h.FetchInstr(r.Uint64n(1 << 20))
	}
	h.SweepData(1<<22, 20<<10)
	h.Clear()
	if d := diffHierarchies(h, fresh); d != "" {
		t.Fatalf("Hierarchy.Clear does not restore the NewHierarchy state: %s", d)
	}

	c, _ := New(small())
	c.Access(0x40)
	c.sweepMisses(0x1000, 64, 5)
	c.Clear()
	if want, _ := New(small()); diffState(c.state(), want.state()) != "" {
		t.Fatalf("Cache.Clear does not restore the New state: %s", diffState(c.state(), want.state()))
	}
}

// TestValidateErrorText pins the error of each invalid geometry, now
// that Validate and not New reports the associativity limit.
func TestValidateErrorText(t *testing.T) {
	ok := Config{SizeBytes: 1 << 10, Ways: 2, LineBytes: 64}
	cases := []struct {
		cfg  HierarchyConfig
		want string
	}{
		{HierarchyConfig{L1I: Config{SizeBytes: 0, Ways: 2, LineBytes: 64}, L1D: ok, L2: ok},
			"L1I: cache: non-positive geometry {SizeBytes:0 Ways:2 LineBytes:64}"},
		{HierarchyConfig{L1I: ok, L1D: Config{SizeBytes: 1 << 10, Ways: 2, LineBytes: 48}, L2: ok},
			"L1D: cache: line size 48 not a power of two"},
		{HierarchyConfig{L1I: ok, L1D: ok, L2: Config{SizeBytes: 1000, Ways: 2, LineBytes: 64}},
			"L2: cache: size 1000 not divisible by ways*line (2*64)"},
		{HierarchyConfig{L1I: ok, L1D: ok, L2: ok, L3: &Config{SizeBytes: 192, Ways: 1, LineBytes: 64}},
			"L3: cache: set count 3 not a power of two"},
		{HierarchyConfig{L1I: ok, L1D: ok, L2: ok, L3: &Config{SizeBytes: 256 * 64, Ways: 256, LineBytes: 64}},
			"L3: cache: associativity 256 exceeds supported maximum 255"},
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
