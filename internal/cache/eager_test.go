package cache

import "math/bits"

// eagerCache is the cache as it was before sweeps were deferred: every
// set's block is always valid, Clear rewrites the whole tag array, and
// a closed-form sweep writes every set it touches at once. It is kept
// as the oracle the deferred Cache is compared against.
type eagerCache struct {
	cfg       Config
	sets      int
	lineShift uint
	setShift  uint
	setMask   uint64
	lines     []uint32 // sets × ways, recency-ordered tags
	accesses  uint64
	misses    uint64
}

func newEagerCache(cfg Config) *eagerCache {
	sets := cfg.Sets()
	c := &eagerCache{
		cfg:       cfg,
		sets:      sets,
		lineShift: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		setShift:  uint(bits.TrailingZeros(uint(sets))),
		setMask:   uint64(sets - 1),
		lines:     make([]uint32, sets*cfg.Ways),
	}
	c.Clear()
	return c
}

func (c *eagerCache) Clear() {
	for i := range c.lines {
		c.lines[i] = invalidTag
	}
	c.accesses, c.misses = 0, 0
}

func (c *eagerCache) ResetStats() { c.accesses, c.misses = 0, 0 }

func (c *eagerCache) Access(addr uint64) bool {
	line := addr >> c.lineShift
	set := int(line & c.setMask)
	tag := uint32(line >> c.setShift)
	ways := c.cfg.Ways
	base := set * ways
	c.accesses++

	s := c.lines[base : base+ways : base+ways]
	if s[0] == tag {
		return true
	}
	for p := 1; p < ways; p++ {
		if s[p] == tag {
			copy(s[1:p+1], s[:p])
			s[0] = tag
			return true
		}
	}
	c.misses++
	copy(s[1:], s[:ways-1])
	s[0] = tag
	return false
}

// holds reports whether the cache holds the line of addr, without
// touching recency order or counters.
func (c *eagerCache) holds(addr uint64) bool {
	line := addr >> c.lineShift
	set := int(line & c.setMask)
	for _, tag := range c.lines[set*c.cfg.Ways : (set+1)*c.cfg.Ways] {
		if tag == uint32(line>>c.setShift) {
			return true
		}
	}
	return false
}

func (c *eagerCache) sweepMisses(base, step, n uint64) bool {
	if step != uint64(c.cfg.LineBytes) {
		return false
	}
	ways, sets := uint64(c.cfg.Ways), uint64(c.sets)
	lo := base >> c.lineShift
	hi := lo + n - 1
	touched := min(n, sets)
	for j := uint64(0); j < touched; j++ {
		set := (lo + j) & c.setMask
		for _, tag := range c.lines[set*ways : (set+1)*ways] {
			if tag == invalidTag {
				break
			}
			if line := uint64(tag)<<c.setShift | set; line >= lo && line <= hi {
				return false
			}
		}
	}
	for j := uint64(0); j < touched; j++ {
		set := (lo + j) & c.setMask
		s := c.lines[set*ways : (set+1)*ways]
		k := (n-1-j)>>c.setShift + 1
		m := min(k, ways)
		if m < ways {
			copy(s[m:], s[:ways-m])
		}
		last := lo + j + (k-1)*sets
		for p := uint64(0); p < m; p++ {
			s[p] = uint32((last - p*sets) >> c.setShift)
		}
	}
	c.accesses += n
	c.misses += n
	return true
}

// sweepHits is, by definition, the n Accesses when every one of them
// hits, and nothing otherwise: hits never evict, so a range whose
// lines are all held before the sweep hits throughout.
func (c *eagerCache) sweepHits(base, step, n uint64) bool {
	if step != uint64(c.cfg.LineBytes) {
		return false
	}
	for i := uint64(0); i < n; i++ {
		if !c.holds(base + i*step) {
			return false
		}
	}
	for i := uint64(0); i < n; i++ {
		c.Access(base + i*step)
	}
	return true
}

func (c *eagerCache) set(set int) []uint32 {
	return c.lines[set*c.cfg.Ways : (set+1)*c.cfg.Ways]
}

// eagerHierarchy is Hierarchy over eagerCache levels, with sweeps that
// are, by definition, the per-access loop at the smallest line size.
type eagerHierarchy struct {
	L1I, L1D, L2, L3       *eagerCache
	l2IAccesses, l2IMisses uint64
	l2DAccesses, l2DMisses uint64
	l3Accesses, l3Misses   uint64
	step                   uint64
}

func newEagerHierarchy(cfg HierarchyConfig) *eagerHierarchy {
	h := &eagerHierarchy{L1I: newEagerCache(cfg.L1I), L1D: newEagerCache(cfg.L1D), L2: newEagerCache(cfg.L2)}
	line := min(cfg.L1I.LineBytes, cfg.L1D.LineBytes, cfg.L2.LineBytes)
	if cfg.L3 != nil {
		h.L3 = newEagerCache(*cfg.L3)
		line = min(line, cfg.L3.LineBytes)
	}
	h.step = uint64(line)
	return h
}

func (h *eagerHierarchy) levels() []*eagerCache {
	if h.L3 == nil {
		return []*eagerCache{h.L1I, h.L1D, h.L2}
	}
	return []*eagerCache{h.L1I, h.L1D, h.L2, h.L3}
}

func (h *eagerHierarchy) FetchInstr(addr uint64) int {
	if h.L1I.Access(addr) {
		return 0
	}
	h.l2IAccesses++
	if h.L2.Access(addr) {
		return 1
	}
	h.l2IMisses++
	return h.accessL3(addr)
}

func (h *eagerHierarchy) AccessData(addr uint64) int {
	if h.L1D.Access(addr) {
		return 0
	}
	h.l2DAccesses++
	if h.L2.Access(addr) {
		return 1
	}
	h.l2DMisses++
	return h.accessL3(addr)
}

func (h *eagerHierarchy) accessL3(addr uint64) int {
	if h.L3 == nil {
		return 3
	}
	h.l3Accesses++
	if h.L3.Access(addr) {
		return 2
	}
	h.l3Misses++
	return 3
}

func (h *eagerHierarchy) SweepData(base, size uint64) {
	for off := uint64(0); off < size; off += h.step {
		h.AccessData(base + off)
	}
}

func (h *eagerHierarchy) SweepInstr(base, size uint64) {
	for off := uint64(0); off < size; off += h.step {
		h.FetchInstr(base + off)
	}
}

func (h *eagerHierarchy) Counts() Counts {
	c := Counts{
		L1IAccesses: h.L1I.accesses, L1IMisses: h.L1I.misses,
		L1DAccesses: h.L1D.accesses, L1DMisses: h.L1D.misses,
		L2IAccesses: h.l2IAccesses, L2IMisses: h.l2IMisses,
		L2DAccesses: h.l2DAccesses, L2DMisses: h.l2DMisses,
		L3Accesses: h.l3Accesses, L3Misses: h.l3Misses,
	}
	return c
}

func (h *eagerHierarchy) ResetStats() {
	for _, c := range h.levels() {
		c.ResetStats()
	}
	h.l2IAccesses, h.l2IMisses = 0, 0
	h.l2DAccesses, h.l2DMisses = 0, 0
	h.l3Accesses, h.l3Misses = 0, 0
}

func (h *eagerHierarchy) Clear() {
	for _, c := range h.levels() {
		c.Clear()
	}
	h.ResetStats()
}
