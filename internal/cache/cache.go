// Package cache implements a trace-driven, set-associative cache
// simulator with true-LRU replacement, plus a composable multi-level
// hierarchy with split instruction/data accounting. It is the
// measurement substrate that replaces the paper's hardware cache
// performance counters (L1I/L1D/L2/L3 MPKI, Table II and Table III).
package cache

import (
	"fmt"
	"math/bits"
)

// Config describes one cache level.
type Config struct {
	// SizeBytes is the total capacity. Must be a positive multiple of
	// LineBytes*Ways.
	SizeBytes int
	// Ways is the associativity (1 = direct mapped).
	Ways int
	// LineBytes is the block size; must be a power of two.
	LineBytes int
}

// Validate reports a descriptive error for impossible geometries.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.Ways <= 0 || c.LineBytes <= 0 {
		return fmt.Errorf("cache: non-positive geometry %+v", c)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache: line size %d not a power of two", c.LineBytes)
	}
	if c.SizeBytes%(c.LineBytes*c.Ways) != 0 {
		return fmt.Errorf("cache: size %d not divisible by ways*line (%d*%d)", c.SizeBytes, c.Ways, c.LineBytes)
	}
	sets := c.SizeBytes / (c.LineBytes * c.Ways)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d not a power of two", sets)
	}
	if c.Ways > 255 {
		return fmt.Errorf("cache: associativity %d exceeds supported maximum 255", c.Ways)
	}
	return nil
}

// Sets returns the number of sets implied by the geometry.
func (c Config) Sets() int { return c.SizeBytes / (c.LineBytes * c.Ways) }

// invalidTag marks an empty way. Real tags are line addresses shifted
// down by the set-index width, so a tag of all-ones would require an
// address beyond 2^63 — unreachable in the generated address space.
const invalidTag = ^uint64(0)

// Cache is a single simulated cache level. Create with New.
//
// Each set is one contiguous block of `ways` tag words kept in
// recency order (most recent first), with invalidTag in empty slots.
// This fuses what were three parallel arrays (tags, valid bits, LRU
// state) into a single cache-line-friendly block: one simulated
// access touches one run of memory, which is what keeps the simulator
// fast when the simulated geometry (an 8 MB L3's megabyte of tags) is
// far bigger than the host's own caches.
type Cache struct {
	cfg       Config
	sets      int
	lineShift uint
	setShift  uint
	setMask   uint64
	lines     []uint64 // sets × ways, recency-ordered tags
	accesses  uint64
	misses    uint64
}

// New builds a cache from cfg.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return newCache(cfg), nil
}

// newCache builds a cache from a validated cfg.
func newCache(cfg Config) *Cache {
	sets := cfg.Sets()
	c := &Cache{
		cfg:       cfg,
		sets:      sets,
		lineShift: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		setShift:  uint(bits.TrailingZeros(uint(sets))),
		setMask:   uint64(sets - 1),
		lines:     make([]uint64, sets*cfg.Ways),
	}
	c.Clear()
	return c
}

// Clear returns the cache to the state New builds: every way empty and
// both counters zero. It lets one Cache serve many independent runs
// without reallocating its tag array.
func (c *Cache) Clear() {
	for i := range c.lines {
		c.lines[i] = invalidTag
	}
	c.accesses, c.misses = 0, 0
}

// Config returns the geometry the cache was built with.
func (c *Cache) Config() Config { return c.cfg }

// Access simulates a reference to addr and reports whether it hit.
// Misses allocate (write-allocate for stores, fetch for loads).
//
// The set is scanned in recency order, so a hit costs one probe in
// the common MRU case, and re-ordering is a short in-block slide.
// Which physical way a line occupies is unobservable; hit/miss
// outcomes and eviction choices are exact LRU, identical to the
// age-permutation implementation this replaced (empty slots sink to
// the tail and are filled before any valid line is evicted).
func (c *Cache) Access(addr uint64) bool {
	line := addr >> c.lineShift
	set := int(line & c.setMask)
	tag := line >> c.setShift
	ways := c.cfg.Ways
	base := set * ways
	c.accesses++

	s := c.lines[base : base+ways : base+ways]
	if s[0] == tag {
		return true // MRU fast path: no re-ordering needed
	}
	for p := 1; p < ways; p++ {
		if s[p] == tag {
			// Promote to MRU: slide the more-recent entries down one.
			copy(s[1:p+1], s[:p])
			s[0] = tag
			return true
		}
	}

	c.misses++
	// Fill at MRU, dropping the LRU tail (an empty slot while the set
	// is still filling).
	copy(s[1:], s[:ways-1])
	s[0] = tag
	return false
}

// Stats returns accesses and misses since creation or the last Reset.
func (c *Cache) Stats() (accesses, misses uint64) { return c.accesses, c.misses }

// MissRate returns misses/accesses, or 0 before any access.
func (c *Cache) MissRate() float64 {
	if c.accesses == 0 {
		return 0
	}
	return float64(c.misses) / float64(c.accesses)
}

// ResetStats clears the counters but keeps cache contents, so warmup
// references can be excluded from measurement.
func (c *Cache) ResetStats() { c.accesses, c.misses = 0, 0 }

// sweepMisses applies, in closed form, n Accesses at base, base+step,
// ..., base+(n-1)*step, provided every one of them would miss: step is
// the cache's line size, so the accesses touch n consecutive lines,
// and the cache holds none of those lines. Each touched set then ends
// with the last min(k, ways) of the k range lines that map to it, most
// recent first, and its old contents shift down behind them — exactly
// what k fills at MRU leave. It reports false, changing nothing, when
// the precondition does not hold; the caller then replays the accesses
// one by one.
func (c *Cache) sweepMisses(base, step, n uint64) bool {
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
				break // empty slots sink to the tail
			}
			if line := tag<<c.setShift | set; line >= lo && line <= hi {
				return false
			}
		}
	}
	for j := uint64(0); j < touched; j++ {
		set := (lo + j) & c.setMask
		s := c.lines[set*ways : (set+1)*ways]
		k := (n-1-j)>>c.setShift + 1 // range lines lo+j, lo+j+sets, ... map here
		m := min(k, ways)
		if m < ways {
			copy(s[m:], s[:ways-m])
		}
		last := lo + j + (k-1)*sets
		for p := uint64(0); p < m; p++ {
			s[p] = (last - p*sets) >> c.setShift
		}
	}
	c.accesses += n
	c.misses += n
	return true
}

// Hierarchy models the three-level structure shared by the machines in
// Table IV: split L1 I/D, a unified (or split-per-core, modelled as
// unified) L2, and an optional unified L3. Instruction and data misses
// are accounted separately at L2 so the paper's L2I$/L2D$ MPKI metrics
// can be reported.
type Hierarchy struct {
	L1I, L1D *Cache
	L2       *Cache
	L3       *Cache // nil when the machine has no L3 (e.g. Xeon E5405)

	l2IAccesses, l2IMisses uint64
	l2DAccesses, l2DMisses uint64
	l3Accesses, l3Misses   uint64
}

// HierarchyConfig assembles a Hierarchy.
type HierarchyConfig struct {
	L1I, L1D, L2 Config
	L3           *Config
}

// Validate reports the first invalid level, prefixed with its name,
// without allocating any level.
func (cfg HierarchyConfig) Validate() error {
	if err := cfg.L1I.Validate(); err != nil {
		return fmt.Errorf("L1I: %w", err)
	}
	if err := cfg.L1D.Validate(); err != nil {
		return fmt.Errorf("L1D: %w", err)
	}
	if err := cfg.L2.Validate(); err != nil {
		return fmt.Errorf("L2: %w", err)
	}
	if cfg.L3 != nil {
		if err := cfg.L3.Validate(); err != nil {
			return fmt.Errorf("L3: %w", err)
		}
	}
	return nil
}

// NewHierarchy builds the hierarchy, validating every level.
func NewHierarchy(cfg HierarchyConfig) (*Hierarchy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	h := &Hierarchy{L1I: newCache(cfg.L1I), L1D: newCache(cfg.L1D), L2: newCache(cfg.L2)}
	if cfg.L3 != nil {
		h.L3 = newCache(*cfg.L3)
	}
	return h, nil
}

// Clear returns every level and counter to the state NewHierarchy
// builds.
func (h *Hierarchy) Clear() {
	h.L1I.Clear()
	h.L1D.Clear()
	h.L2.Clear()
	if h.L3 != nil {
		h.L3.Clear()
	}
	h.l2IAccesses, h.l2IMisses = 0, 0
	h.l2DAccesses, h.l2DMisses = 0, 0
	h.l3Accesses, h.l3Misses = 0, 0
}

// FetchInstr simulates an instruction fetch of addr through the
// hierarchy and returns the deepest level that missed
// (0 = L1 hit, 1 = L1 miss/L2 hit, 2 = L2 miss/L3 hit, 3 = memory).
func (h *Hierarchy) FetchInstr(addr uint64) int {
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

// AccessData simulates a load or store of addr and returns the deepest
// level that missed, with the same encoding as FetchInstr.
func (h *Hierarchy) AccessData(addr uint64) int {
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

func (h *Hierarchy) accessL3(addr uint64) int {
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

// SweepData has exactly the effect, on tags, recency order and every
// counter, of calling AccessData at base, base+line, base+2*line, ...
// for every address below base+size, where line is the hierarchy's
// smallest line size. It is how a run primes a data region.
func (h *Hierarchy) SweepData(base, size uint64) {
	h.sweep(h.L1D, h.AccessData, &h.l2DAccesses, &h.l2DMisses, base, size)
}

// SweepInstr is SweepData for instruction fetches: the effect of
// FetchInstr at every smallest-line step of [base, base+size).
func (h *Hierarchy) SweepInstr(base, size uint64) {
	h.sweep(h.L1I, h.FetchInstr, &h.l2IAccesses, &h.l2IMisses, base, size)
}

// sweep walks the range down the hierarchy one level at a time. A
// level that holds no line of the range misses on every access, so
// it is updated in closed form (Cache.sweepMisses) and the whole range
// goes on to the next level. The first level that holds some line of
// the range — or whose lines are larger than the step — replays the
// accesses one by one, for itself and every level below it.
func (h *Hierarchy) sweep(l1 *Cache, access func(uint64) int, l2Accesses, l2Misses *uint64, base, size uint64) {
	step := uint64(h.minLineBytes())
	n := (size + step - 1) / step
	if n == 0 {
		return
	}
	if !l1.sweepMisses(base, step, n) {
		for i := uint64(0); i < n; i++ {
			access(base + i*step)
		}
		return
	}
	*l2Accesses += n
	if !h.L2.sweepMisses(base, step, n) {
		for i := uint64(0); i < n; i++ {
			if !h.L2.Access(base + i*step) {
				*l2Misses++
				h.accessL3(base + i*step)
			}
		}
		return
	}
	*l2Misses += n
	if h.L3 == nil {
		return
	}
	h.l3Accesses += n
	if !h.L3.sweepMisses(base, step, n) {
		for i := uint64(0); i < n; i++ {
			if !h.L3.Access(base + i*step) {
				h.l3Misses++
			}
		}
		return
	}
	h.l3Misses += n
}

// minLineBytes is the smallest line size of any level: the step at
// which a sweep touches every line of every level.
func (h *Hierarchy) minLineBytes() int {
	line := min(h.L1I.cfg.LineBytes, h.L1D.cfg.LineBytes, h.L2.cfg.LineBytes)
	if h.L3 != nil {
		line = min(line, h.L3.cfg.LineBytes)
	}
	return line
}

// Counts aggregates the hierarchy's miss statistics.
type Counts struct {
	L1IAccesses, L1IMisses uint64
	L1DAccesses, L1DMisses uint64
	L2IAccesses, L2IMisses uint64
	L2DAccesses, L2DMisses uint64
	L3Accesses, L3Misses   uint64
}

// Counts returns a snapshot of all levels' counters.
func (h *Hierarchy) Counts() Counts {
	c := Counts{
		L2IAccesses: h.l2IAccesses, L2IMisses: h.l2IMisses,
		L2DAccesses: h.l2DAccesses, L2DMisses: h.l2DMisses,
		L3Accesses: h.l3Accesses, L3Misses: h.l3Misses,
	}
	c.L1IAccesses, c.L1IMisses = h.L1I.Stats()
	c.L1DAccesses, c.L1DMisses = h.L1D.Stats()
	return c
}

// ResetStats clears counters on all levels, keeping contents warm.
func (h *Hierarchy) ResetStats() {
	h.L1I.ResetStats()
	h.L1D.ResetStats()
	h.L2.ResetStats()
	if h.L3 != nil {
		h.L3.ResetStats()
	}
	h.l2IAccesses, h.l2IMisses = 0, 0
	h.l2DAccesses, h.l2DMisses = 0, 0
	h.l3Accesses, h.l3Misses = 0, 0
}
