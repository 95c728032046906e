package cache

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/rng"
)

// cacheState is what a cache shows to its users: both counters and
// every set's tags in recency order.
type cacheState struct {
	accesses, misses uint64
	sets             [][]uint32
}

// state returns c's observable state. A stale set is materialized into
// a copy, so taking the state changes nothing.
func (c *Cache) state() cacheState {
	st := cacheState{accesses: c.accesses, misses: c.misses, sets: make([][]uint32, c.sets)}
	ways := c.cfg.Ways
	for set := range st.sets {
		s := make([]uint32, ways)
		if c.stamp[set] == c.gen {
			copy(s, c.lines[set*ways:(set+1)*ways])
		} else {
			c.fillSet(s, uint64(set))
		}
		st.sets[set] = s
	}
	return st
}

func (c *eagerCache) state() cacheState {
	st := cacheState{accesses: c.accesses, misses: c.misses, sets: make([][]uint32, c.sets)}
	for set := range st.sets {
		st.sets[set] = append([]uint32(nil), c.set(set)...)
	}
	return st
}

// diffState describes the first difference between two states, or
// returns "" if they are equal.
func diffState(got, want cacheState) string {
	if got.accesses != want.accesses || got.misses != want.misses {
		return fmt.Sprintf("counters %d/%d, want %d/%d", got.accesses, got.misses, want.accesses, want.misses)
	}
	for set := range want.sets {
		if !reflect.DeepEqual(got.sets[set], want.sets[set]) {
			return fmt.Sprintf("set %d holds %x, want %x", set, got.sets[set], want.sets[set])
		}
	}
	return ""
}

// levels returns h's levels, L1I, L1D, L2 and L3 if present.
func (h *Hierarchy) levels() []*Cache {
	if h.L3 == nil {
		return []*Cache{h.L1I, h.L1D, h.L2}
	}
	return []*Cache{h.L1I, h.L1D, h.L2, h.L3}
}

// diffLevels describes the first observable difference between two
// hierarchies — a counter or one level's contents — or returns "".
func diffLevels(gotCounts, wantCounts Counts, got, want []cacheState) string {
	if gotCounts != wantCounts {
		return fmt.Sprintf("counts %+v, want %+v", gotCounts, wantCounts)
	}
	if len(got) != len(want) {
		return fmt.Sprintf("%d levels, want %d", len(got), len(want))
	}
	for i := range want {
		if d := diffState(got[i], want[i]); d != "" {
			return fmt.Sprintf("level %d: %s", i, d)
		}
	}
	return ""
}

func (h *Hierarchy) states() []cacheState {
	var st []cacheState
	for _, c := range h.levels() {
		st = append(st, c.state())
	}
	return st
}

func (h *eagerHierarchy) states() []cacheState {
	var st []cacheState
	for _, c := range h.levels() {
		st = append(st, c.state())
	}
	return st
}

// diffHierarchies compares two deferred hierarchies by what they show.
func diffHierarchies(got, want *Hierarchy) string {
	return diffLevels(got.Counts(), want.Counts(), got.states(), want.states())
}

// invariant checks the deferred representation's bookkeeping.
func (c *Cache) invariant() string {
	live := 0
	for _, s := range c.stamp {
		if s == c.gen {
			live++
		}
	}
	switch {
	case c.gen == 0:
		return "generation 0"
	case live != c.live:
		return fmt.Sprintf("live count %d, stamps say %d", c.live, live)
	case len(c.log) > logCap:
		return fmt.Sprintf("log of %d entries", len(c.log))
	}
	return ""
}

// deferredPair drives one deferred Cache and one eagerCache through
// the same operations, compares results and observable state after
// every step, and counts which path of the deferred cache each step
// took.
type deferredPair struct {
	t     *testing.T
	name  string
	got   *Cache
	want  *eagerCache
	ops   int
	paths map[string]int
}

func newDeferredPair(t *testing.T, name string, cfg Config, paths map[string]int) *deferredPair {
	return &deferredPair{t: t, name: name, got: newCache(cfg), want: newEagerCache(cfg), paths: paths}
}

func (p *deferredPair) check(op string) {
	p.t.Helper()
	p.ops++
	if d := p.got.invariant(); d != "" {
		p.t.Fatalf("%s: op %d (%s): %s", p.name, p.ops, op, d)
	}
	if d := diffState(p.got.state(), p.want.state()); d != "" {
		p.t.Fatalf("%s: op %d (%s): %s", p.name, p.ops, op, d)
	}
}

func (p *deferredPair) access(addr uint64) {
	p.t.Helper()
	op := fmt.Sprintf("Access(%#x)", addr)
	if g, w := p.got.Access(addr), p.want.Access(addr); g != w {
		p.t.Fatalf("%s: op %d (%s) hit=%v, want %v", p.name, p.ops+1, op, g, w)
	}
	p.check(op)
}

// sweep runs sweepMisses (hit false) or sweepHits (hit true) on both
// caches and classifies the deferred cache's path by its log.
func (p *deferredPair) sweep(hit bool, base, step, n uint64) {
	p.t.Helper()
	kind := "miss"
	if hit {
		kind = "hit"
	}
	op := fmt.Sprintf("sweep-%s(%#x, %d, %d)", kind, base, step, n)
	before := len(p.got.log)
	var g, w bool
	if hit {
		g, w = p.got.sweepHits(base, step, n), p.want.sweepHits(base, step, n)
	} else {
		g, w = p.got.sweepMisses(base, step, n), p.want.sweepMisses(base, step, n)
	}
	if g != w {
		p.t.Fatalf("%s: op %d (%s) = %v, want %v", p.name, p.ops+1, op, g, w)
	}
	after := len(p.got.log)
	switch {
	case !g:
		p.paths[kind+"/declined"]++
	case before == logCap && after == 0:
		p.paths[kind+"/flushed"]++
	case after == before+1:
		p.paths[kind+"/deferred"]++
	case after == before:
		p.paths[kind+"/eager"]++
	default:
		p.t.Fatalf("%s: op %d (%s): log went from %d to %d entries", p.name, p.ops+1, op, before, after)
	}
	p.check(op)
}

func (p *deferredPair) resetStats() {
	p.t.Helper()
	p.got.ResetStats()
	p.want.ResetStats()
	p.check("ResetStats")
}

func (p *deferredPair) clear() {
	p.t.Helper()
	if p.got.gen == math.MaxUint8 {
		p.paths["clear/wrapped"]++
	}
	p.got.Clear()
	p.want.Clear()
	p.check("Clear")
}

// deferredGeometries are small caches, so random operations reach
// every set, fill and overflow them, and wrap ranges around the sets.
var deferredGeometries = []Config{
	{SizeBytes: 2 << 10, Ways: 4, LineBytes: 64},  // 8 sets
	{SizeBytes: 8 << 10, Ways: 8, LineBytes: 32},  // 32 sets
	{SizeBytes: 1 << 10, Ways: 1, LineBytes: 64},  // 16 sets, direct mapped
	{SizeBytes: 16 << 10, Ways: 2, LineBytes: 64}, // 128 sets
}

// TestDeferredMatchesEager drives random mixes of Access, both sweeps,
// ResetStats and Clear through the deferred Cache and the eager one it
// replaced, comparing every result, both counters and every set's
// contents after every step; then constructed cases; then SweepData and
// SweepInstr on whole hierarchies. Every path of the deferred cache
// must be reached.
func TestDeferredMatchesEager(t *testing.T) {
	paths := map[string]int{}
	r := rng.New(24)
	for gi, cfg := range deferredGeometries {
		for run := 0; run < 30; run++ {
			p := newDeferredPair(t, fmt.Sprintf("random/%d/%d", gi, run), cfg, paths)
			randomOps(p, r, 120)
		}
	}
	for _, cfg := range deferredGeometries {
		constructedCases(t, cfg, paths)
	}
	for _, want := range []string{
		"miss/deferred", "miss/eager", "miss/declined", "miss/flushed",
		"hit/deferred", "hit/eager", "hit/declined", "clear/wrapped",
	} {
		if paths[want] == 0 {
			t.Errorf("path %s never reached (reached: %v)", want, paths)
		}
	}
	t.Logf("paths: %v", paths)
}

// randomOps runs ops random operations on p. Sweeps favour ranges
// nested in, adjacent to or disjoint from earlier ones, with aligned
// and unaligned bases and lengths from one line to past the capacity.
func randomOps(p *deferredPair, r *rng.Rand, ops int) {
	p.t.Helper()
	cfg := p.got.cfg
	line, sets, ways := uint64(cfg.LineBytes), uint64(cfg.Sets()), uint64(cfg.Ways)
	window := uint64(1<<20) + r.Uint64n(1<<12)
	type sweepRange struct{ base, n uint64 }
	var recent []sweepRange
	lengths := []uint64{1, 2, sets / 2, sets, sets + 1, sets * ways / 2, sets * ways, sets*ways + 3, 3 * sets * ways}
	for i := 0; i < ops; i++ {
		switch op := r.Intn(20); {
		case op < 6:
			p.access(window + r.Uint64n(4*sets*ways*line))
		case op < 17:
			var base, n uint64
			switch {
			case len(recent) > 0 && r.Bool(0.5): // nested in an earlier range
				prev := recent[r.Intn(len(recent))]
				off := r.Uint64n(prev.n)
				base, n = prev.base+off*line, 1+r.Uint64n(prev.n-off)
			case len(recent) > 0 && r.Bool(0.3): // adjacent to one
				prev := recent[r.Intn(len(recent))]
				base, n = prev.base+prev.n*line, lengths[r.Intn(len(lengths))]
			default:
				base, n = window+r.Uint64n(6*sets*ways)*line, lengths[r.Intn(len(lengths))]
			}
			if n == 0 {
				n = 1
			}
			if r.Bool(0.2) {
				base += r.Uint64n(line) // unaligned
			}
			step := line
			if r.Bool(0.05) {
				step = line / 2
			}
			p.sweep(r.Bool(0.4), base, step, n)
			recent = append(recent, sweepRange{base &^ (line - 1), n})
		case op < 19:
			p.resetStats()
		default:
			p.clear()
			recent = recent[:0]
		}
	}
}

// constructedCases runs the shapes priming produces and the corners
// of the deferred representation on one geometry.
func constructedCases(t *testing.T, cfg Config, paths map[string]int) {
	t.Helper()
	line, sets, ways := uint64(cfg.LineBytes), uint64(cfg.Sets()), uint64(cfg.Ways)
	capLines := sets * ways
	const base = 1 << 24
	name := func(s string) string { return fmt.Sprintf("%s/%+v", s, cfg) }

	// Nested ranges, as priming lays them out: code, then a warm data
	// region, then mid ⊂ warm, hot ⊂ mid and hot code ⊂ code, both
	// while everything fits and after warm has overflowed the cache.
	for _, warm := range []uint64{capLines / 2, capLines - 1, 2*capLines + 5} {
		p := newDeferredPair(t, name(fmt.Sprintf("nested/warm=%d", warm)), cfg, paths)
		code := uint64(base << 4)
		p.sweep(false, code, line, max(1, capLines/4))
		p.sweep(false, base, line, warm)
		for _, sub := range []uint64{warm / 2, warm / 4, 1} {
			p.sweep(true, base, line, max(1, sub))
			p.sweep(false, base, line, max(1, sub))
		}
		p.sweep(true, code, line, max(1, capLines/8))
		p.sweep(false, code, line, max(1, capLines/8))
		for a := uint64(0); a < 3*capLines; a += 3 {
			p.access(base + a*line)
		}
	}

	// Adjacent and disjoint ranges, a range shorter than the set count
	// and one longer than the whole cache, at unaligned bases.
	p := newDeferredPair(t, name("adjacent"), cfg, paths)
	p.sweep(false, base+7, line, sets/2+1)
	p.sweep(false, base+(sets/2+1)*line, line, sets)
	p.sweep(false, base+100*capLines*line+3, line, capLines+sets+1)
	p.sweep(true, base+7, line, 1)
	p.access(base + 7)
	p.sweep(false, base-line, line, 2) // overlaps the first range's first line

	// More miss ranges than the log holds, without a Clear: the next
	// disjoint range flushes.
	p = newDeferredPair(t, name("flush"), cfg, paths)
	for i := uint64(0); i < logCap+3; i++ {
		p.sweep(false, base+i*4*capLines*line, line, 1+i%3)
	}
	for i := uint64(0); i < logCap+3; i++ {
		p.sweep(true, base+i*4*capLines*line, line, 1)
	}

	// The generation wraps: sets live at generation 1 must not look
	// live again when the stamps restart there.
	p = newDeferredPair(t, name("wrap"), cfg, paths)
	for a := uint64(0); a < capLines; a++ {
		p.access(base + a*line)
	}
	p.clear()
	p.got.gen = math.MaxUint8 - 1 // no set is live right after Clear
	p.sweep(false, base, line, capLines/2+1)
	p.access(base + line)
	p.clear()
	p.sweep(false, base+capLines*line, line, sets)
	p.access(base)
	p.clear()
	if p.got.gen != 1 {
		t.Fatalf("generation after wrapping = %d, want 1", p.got.gen)
	}
	for a := uint64(0); a < capLines; a++ {
		p.access(base + a*line)
	}

	// Unforced, the generation wraps every 255 Clears.
	p = newDeferredPair(t, name("wrap-unforced"), cfg, paths)
	for i := uint64(0); i < 300; i++ {
		p.sweep(false, base+i*line, line, 1+i%sets)
		p.access(base + (i/2)*line)
		p.clear()
	}
}

// TestDeferredHierarchyMatchesEager runs random AccessData, FetchInstr,
// SweepData, SweepInstr, ResetStats and Clear on whole hierarchies —
// including one whose levels have different line sizes — against the
// eager per-access hierarchy, comparing every result, counter and
// level's contents after every step.
func TestDeferredHierarchyMatchesEager(t *testing.T) {
	r := rng.New(2417)
	for _, g := range sweepGeometries() {
		for run := 0; run < 20; run++ {
			got, _ := NewHierarchy(g.cfg)
			want := newEagerHierarchy(g.cfg)
			var ranges [][2]uint64
			for i := 0; i < 80; i++ {
				var op string
				switch k := r.Intn(10); {
				case k < 4:
					addr := uint64(1<<20) + r.Uint64n(64<<10)
					op = fmt.Sprintf("access %#x", addr)
					var gl, wl int
					if r.Bool(0.5) {
						gl, wl = got.AccessData(addr), want.AccessData(addr)
					} else {
						gl, wl = got.FetchInstr(addr), want.FetchInstr(addr)
					}
					if gl != wl {
						t.Fatalf("%s/%d: op %d (%s) level %d, want %d", g.name, run, i, op, gl, wl)
					}
				case k < 8:
					base, size := uint64(1<<20)+r.Uint64n(48<<10), r.Uint64n(24<<10)
					if len(ranges) > 0 && r.Bool(0.6) { // nested, as priming nests mid in warm
						prev := ranges[r.Intn(len(ranges))]
						base, size = prev[0], r.Uint64n(prev[1]+1)
					}
					ranges = append(ranges, [2]uint64{base, size})
					op = fmt.Sprintf("sweep %#x+%d", base, size)
					if r.Bool(0.5) {
						got.SweepData(base, size)
						want.SweepData(base, size)
					} else {
						got.SweepInstr(base, size)
						want.SweepInstr(base, size)
					}
				case k < 9:
					op = "ResetStats"
					got.ResetStats()
					want.ResetStats()
				default:
					op = "Clear"
					got.Clear()
					want.Clear()
					ranges = ranges[:0]
				}
				if d := diffEagerHierarchy(got, want); d != "" {
					t.Fatalf("%s/%d: op %d (%s): %s", g.name, run, i, op, d)
				}
			}
		}
	}
}

func diffEagerHierarchy(got *Hierarchy, want *eagerHierarchy) string {
	for i, c := range got.levels() {
		if d := c.invariant(); d != "" {
			return fmt.Sprintf("level %d: %s", i, d)
		}
	}
	return diffLevels(got.Counts(), want.Counts(), got.states(), want.states())
}
