// Package cache implements a trace-driven, set-associative cache
// simulator with true-LRU replacement, plus a composable multi-level
// hierarchy with split instruction/data accounting. It is the
// measurement substrate that replaces the paper's hardware cache
// performance counters (L1I/L1D/L2/L3 MPKI, Table II and Table III).
package cache

import (
	"fmt"
	"math"
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
	// A line larger than SizeBytes/Ways cannot divide the size, and
	// testing that first keeps LineBytes*Ways from overflowing.
	if c.LineBytes > c.SizeBytes/c.Ways || c.SizeBytes%(c.LineBytes*c.Ways) != 0 {
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

// AddrLimit returns the bound below which a valid geometry's cache
// holds every address. A tag is the line address above the set index,
// kept in 32 bits with invalidTag reserved, so an address of
// (2^32-1)·SizeBytes/Ways or more has no tag. A Cache does not check
// its addresses; a caller bounds them with this.
func (c Config) AddrLimit() uint64 {
	shift := bits.TrailingZeros(uint(c.SizeBytes / c.Ways))
	if shift > 32 {
		return math.MaxUint64 // every tag is below 2^31
	}
	return uint64(invalidTag) << shift
}

// invalidTag marks an empty way. Real tags are line addresses shifted
// down by the set-index width, so a tag of all-ones needs an address at
// or above Config.AddrLimit, which callers never pass. Only a
// materialized set's empty ways hold it: a set that has not been
// touched since the last Clear holds whatever it held before, and its
// contents are rebuilt when something first touches it.
const invalidTag = ^uint32(0)

// logCap bounds the deferred-sweep log. Priming logs at most seven
// ranges per level (kernel code and data, user code, the warm, mid and
// hot data regions, hot code); a sweep that would log a seventeenth
// miss range materializes every set first, and a seventeenth hit range
// is replayed instead.
const logCap = 16

// span is one deferred sweep over the n consecutive lines from line
// lo. Either every access missed, or (hit) every access hit.
type span struct {
	lo, n uint64
	hit   bool
}

// Cache is a single simulated cache level. Create with New.
//
// Each set is one contiguous block of `ways` tag words kept in
// recency order (most recent first), with invalidTag in empty slots.
// This fuses what were three parallel arrays (tags, valid bits, LRU
// state) into a single cache-line-friendly block: one simulated
// access touches one run of memory, which is what keeps the simulator
// fast when the simulated geometry (an 8 MB L3's megabyte of tags) is
// far bigger than the host's own caches.
//
// The block is valid only for a live set, one whose stamp equals gen.
// A stale set holds exactly what applying the deferred sweeps in log,
// in order, to an empty set would leave; it is materialized — written
// out in full and stamped — when an access or a sweep first touches it.
// So Clear is O(1), and priming writes only the sets the run then
// uses. Stamps are one byte per set — 210 KB beside the 6.5 MB of
// 32-bit tags of a fleet's simulator state — so the generation wraps
// every 255 Clears, and that Clear zeroes the stamps.
type Cache struct {
	cfg       Config
	sets      int
	lineShift uint
	setShift  uint
	setMask   uint64
	lines     []uint32     // sets × ways, recency-ordered tags of live sets
	stamp     []uint8      // per set: gen when the set is live
	gen       uint8        // never 0, so a zeroed stamp is stale
	live      int          // sets whose stamp is gen
	log       []span       // deferred sweeps, oldest first (see sweepHits)
	logBuf    [logCap]span // log's backing array
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

// newCache builds a cache from a validated cfg. Its tag array is left
// unwritten: every set is stale under an empty log, so each is filled
// with invalidTag on first touch.
func newCache(cfg Config) *Cache {
	sets := cfg.Sets()
	c := &Cache{
		cfg:       cfg,
		sets:      sets,
		lineShift: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		setShift:  uint(bits.TrailingZeros(uint(sets))),
		setMask:   uint64(sets - 1),
		lines:     make([]uint32, sets*cfg.Ways),
		stamp:     make([]uint8, sets),
		gen:       1,
	}
	c.log = c.logBuf[:0]
	return c
}

// Clear returns the cache to the state New builds: every way empty and
// both counters zero. It lets one Cache serve many independent runs
// without reallocating its tag array. It writes no tag: bumping the
// generation makes every set stale, and under the emptied log a stale
// set is empty. Only when the generation wraps are the stamps zeroed.
func (c *Cache) Clear() {
	c.gen++
	if c.gen == 0 {
		clear(c.stamp)
		c.gen = 1
	}
	c.log = c.log[:0]
	c.live = 0
	c.accesses, c.misses = 0, 0
}

// materialize writes out a stale set's contents and makes it live.
func (c *Cache) materialize(set uint64) {
	ways := uint64(c.cfg.Ways)
	c.fillSet(c.lines[set*ways:(set+1)*ways], set)
	c.stamp[set] = c.gen
	c.live++
}

// materializeAll materializes every stale set and empties the log.
func (c *Cache) materializeAll() {
	for set := range c.stamp {
		if c.stamp[set] != c.gen {
			c.materialize(uint64(set))
		}
	}
	c.log = c.log[:0]
}

// fillSet writes into s, one set's block, what the deferred sweeps
// leave in that set when applied in order to an empty set.
func (c *Cache) fillSet(s []uint32, set uint64) {
	for i := range s {
		s[i] = invalidTag
	}
	for _, sp := range c.log {
		if sp.hit {
			c.hitSet(s, set, sp.lo, sp.n)
		} else {
			c.missSet(s, set, sp.lo, sp.n)
		}
	}
}

// linesIn returns j, the offset of the first of the lines lo, ...,
// lo+n-1 that maps to set, and k, how many of them map there: the
// lines lo+j, lo+j+sets, ..., lo+j+(k-1)*sets.
func (c *Cache) linesIn(set, lo, n uint64) (j, k uint64) {
	j = (set - lo) & c.setMask
	if j >= n {
		return j, 0
	}
	return j, (n-1-j)>>c.setShift + 1
}

// missSet applies to s, the block of set, the closed form of n missing
// accesses to the consecutive lines lo, lo+1, ..., lo+n-1: the set
// takes the last min(k, ways) of the k range lines that map to it,
// most recent first, and its old contents shift down behind them.
func (c *Cache) missSet(s []uint32, set, lo, n uint64) {
	j, k := c.linesIn(set, lo, n)
	if k == 0 {
		return
	}
	ways, sets := uint64(len(s)), uint64(c.sets)
	m := min(k, ways)
	if m < ways {
		copy(s[m:], s[:ways-m])
	}
	last := lo + j + (k-1)*sets
	for p := uint64(0); p < m; p++ {
		s[p] = uint32((last - p*sets) >> c.setShift)
	}
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
	tag := uint32(line >> c.setShift)
	ways := c.cfg.Ways
	base := set * ways
	c.accesses++
	if c.stamp[set] != c.gen {
		c.materialize(uint64(set))
	}

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

// hitSet applies to s, the block of set, n hitting accesses to the
// consecutive lines lo, ..., lo+n-1: every one of the k range lines
// that map to the set is held, so they move to the front, most recent
// first, and the set's other lines keep their order behind them.
func (c *Cache) hitSet(s []uint32, set, lo, n uint64) {
	j, k := c.linesIn(set, lo, n)
	if k == 0 {
		return
	}
	hi := lo + n - 1
	// Lines behind the last range line keep their places; the others
	// slide down behind the k range lines.
	w := c.lastHeld(s, set, lo, hi, k) + 1
	for p := w - 1; p >= 0; p-- {
		tag := s[p]
		if line := uint64(tag)<<c.setShift | set; line < lo || line > hi {
			w--
			s[w] = tag
		}
	}
	last := lo + j + (k-1)*uint64(c.sets)
	for p := range w {
		s[p] = uint32((last - uint64(p)*uint64(c.sets)) >> c.setShift)
	}
}

// lastHeld returns the position in s, the block of set, of the last of
// the k lines in lo..hi that map to set, or -1 if s holds fewer than k
// of them.
func (c *Cache) lastHeld(s []uint32, set, lo, hi, k uint64) int {
	held := uint64(0)
	for p, tag := range s {
		if tag == invalidTag {
			break // empty slots sink to the tail
		}
		if line := uint64(tag)<<c.setShift | set; line >= lo && line <= hi {
			if held++; held == k {
				return p
			}
		}
	}
	return -1
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
// what k fills at MRU leave. It reports false, changing no observable
// state, when the precondition does not hold; the caller then replays
// the accesses one by one.
//
// A range that overlaps no deferred sweep is deferred: a stale set
// holds only lines of logged ranges, so only the live sets it touches
// need checking and updating, and the range joins the log for the
// stale ones. A range that overlaps a logged one materializes the sets
// it touches first and is then checked and applied eagerly. A full log
// is flushed by materializing every set.
func (c *Cache) sweepMisses(base, step, n uint64) bool {
	if step != uint64(c.cfg.LineBytes) {
		return false
	}
	ways := uint64(c.cfg.Ways)
	lo := base >> c.lineShift
	hi := lo + n - 1
	touched := min(n, uint64(c.sets))
	deferred := c.live < c.sets && !c.overlapsLog(lo, hi)
	if deferred && len(c.log) == logCap {
		c.materializeAll()
		deferred = false
	}
	if !deferred {
		for j := uint64(0); j < touched; j++ {
			if set := (lo + j) & c.setMask; c.stamp[set] != c.gen {
				c.materialize(set)
			}
		}
	}
	if c.live > 0 {
		for j := uint64(0); j < touched; j++ {
			set := (lo + j) & c.setMask
			if c.stamp[set] != c.gen {
				continue
			}
			for _, tag := range c.lines[set*ways : (set+1)*ways] {
				if tag == invalidTag {
					break // empty slots sink to the tail
				}
				if line := uint64(tag)<<c.setShift | set; line >= lo && line <= hi {
					return false
				}
			}
		}
		for j := uint64(0); j < touched; j++ {
			if set := (lo + j) & c.setMask; c.stamp[set] == c.gen {
				c.missSet(c.lines[set*ways:(set+1)*ways], set, lo, n)
			}
		}
	}
	if deferred {
		c.log = append(c.log, span{lo: lo, n: n})
	}
	c.accesses += n
	c.misses += n
	return true
}

// sweepHits applies, in closed form, n Accesses at base, base+step,
// ..., base+(n-1)*step, provided every one of them would hit: step is
// the cache's line size and the cache holds every one of the n lines.
// Hits change no set's membership, so each touched set then holds its
// k range lines at the front, most recent first, and its other lines
// in their old order behind them; only the access counter grows. It
// reports false, changing no observable state, when the precondition
// does not hold.
//
// A live set is checked by its contents. A stale set holds only lines
// of logged ranges, so it holds none of a range that overlaps none of
// them. It is checked from the log alone, without materializing it,
// when the range lies inside one logged miss range S and no miss range
// follows a hit range in the log: the log's miss ranges are then
// disjoint and every later one only adds lines, so S's lines in the
// set are still held exactly when fewer than ways lines came in after
// the range's first line there. The range then joins the log as a hit
// range for the stale sets. Otherwise a stale set is materialized and
// checked by its contents.
func (c *Cache) sweepHits(base, step, n uint64) bool {
	if step != uint64(c.cfg.LineBytes) {
		return false
	}
	ways := uint64(c.cfg.Ways)
	lo := base >> c.lineShift
	hi := lo + n - 1
	touched := min(n, uint64(c.sets))
	overlaps := c.live < c.sets && c.overlapsLog(lo, hi)
	in := -1 // log index of the miss range holding the range
	if overlaps && len(c.log) < logCap {
		in = c.holder(lo, hi)
	}
	stale := false
	for j := uint64(0); j < touched; j++ {
		set := (lo + j) & c.setMask
		if c.stamp[set] != c.gen {
			switch {
			case !overlaps:
				return false
			case in >= 0:
				if !c.heldInLog(set, in, lo, n) {
					return false
				}
				stale = true
				continue
			}
			c.materialize(set)
		}
		if _, k := c.linesIn(set, lo, n); c.lastHeld(c.lines[set*ways:(set+1)*ways], set, lo, hi, k) < 0 {
			return false
		}
	}
	if c.live > 0 {
		for j := uint64(0); j < touched; j++ {
			if set := (lo + j) & c.setMask; c.stamp[set] == c.gen {
				c.hitSet(c.lines[set*ways:(set+1)*ways], set, lo, n)
			}
		}
	}
	if stale {
		c.log = append(c.log, span{lo: lo, n: n, hit: true})
	}
	c.accesses += n
	return true
}

// holder returns the log index of the miss range that contains lines
// lo..hi, or -1 if none does or if some miss range follows a hit range.
func (c *Cache) holder(lo, hi uint64) int {
	in, hits := -1, false
	for i, sp := range c.log {
		switch {
		case sp.hit:
			hits = true
		case hits:
			return -1
		case sp.lo <= lo && hi < sp.lo+sp.n:
			in = i
		}
	}
	return in
}

// heldInLog reports whether stale set holds every one of the lines
// lo, ..., lo+n-1 that map to it, all of which lie in the miss range
// c.log[in]. The lowest of them is the t-th of that range's lines in
// the set; after it came the range's later lines there and every later
// miss range's, none of them repeated, and LRU holds it — and so every
// later line of the range — while fewer than ways did.
func (c *Cache) heldInLog(set uint64, in int, lo, n uint64) bool {
	sp := c.log[in]
	jS, kS := c.linesIn(set, sp.lo, sp.n)
	jR, _ := c.linesIn(set, lo, n)
	t := (lo + jR - sp.lo - jS) >> c.setShift
	after := kS - t - 1
	for _, e := range c.log[in+1:] {
		if !e.hit {
			_, k := c.linesIn(set, e.lo, e.n)
			after += k
		}
	}
	return after < uint64(c.cfg.Ways)
}

// overlapsLog reports whether lines lo..hi overlap a deferred sweep.
func (c *Cache) overlapsLog(lo, hi uint64) bool {
	for _, sp := range c.log {
		if lo < sp.lo+sp.n && sp.lo <= hi {
			return true
		}
	}
	return false
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

// AddrLimit returns the least Config.AddrLimit of the levels: the
// bound below which every level holds every address.
func (cfg HierarchyConfig) AddrLimit() uint64 {
	limit := min(cfg.L1I.AddrLimit(), cfg.L1D.AddrLimit(), cfg.L2.AddrLimit())
	if cfg.L3 != nil {
		limit = min(limit, cfg.L3.AddrLimit())
	}
	return limit
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
// level that holds every line of the range hits on every access, so it
// is updated in closed form (Cache.sweepHits) and the sweep ends
// there. A level that holds no line of the range misses on every
// access, so it is updated in closed form (Cache.sweepMisses) and the
// whole range goes on to the next level. The first level that holds
// some but not all lines of the range — or whose lines are larger than
// the step — replays the accesses one by one, for itself and every
// level below it. Either closed form is deferred where it can be: its
// stale sets are left unwritten until something touches them.
func (h *Hierarchy) sweep(l1 *Cache, access func(uint64) int, l2Accesses, l2Misses *uint64, base, size uint64) {
	step := uint64(h.minLineBytes())
	n := (size + step - 1) / step
	if n == 0 {
		return
	}
	if l1.sweepHits(base, step, n) {
		return
	}
	if !l1.sweepMisses(base, step, n) {
		for i := uint64(0); i < n; i++ {
			access(base + i*step)
		}
		return
	}
	*l2Accesses += n
	if h.L2.sweepHits(base, step, n) {
		return
	}
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
	if h.L3.sweepHits(base, step, n) {
		return
	}
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
