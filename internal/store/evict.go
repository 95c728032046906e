package store

import (
	"slices"
	"unsafe"

	"repro/internal/engine"
	"repro/internal/machine"
)

// maxBytes bounds the accounted bytes of the resident records, single-
// and multi-copy together. At singleBytes (528 B on 64-bit hosts) a
// record, 16 MiB holds 31,775 single-copy records: 46.3 fleet ×
// registry grids of 686 leaves. docs/STORE.md derives it.
const maxBytes = 16 << 20

// The accounted size of a record: its key in its map slot, the slot's
// index into Store.slots (padded to a word), its slot there (which
// holds the key again, for eviction to delete by), and the value.
// Size-class rounding, the map's empty slots and the spare capacity of
// Store.slots are not counted.
const (
	ptrBytes      = int64(unsafe.Sizeof(uintptr(0)))
	keyBytes      = int64(unsafe.Sizeof(Key{}))
	countsBytes   = int64(unsafe.Sizeof(machine.RawCounts{}))
	overheadBytes = keyBytes + ptrBytes + int64(unsafe.Sizeof(slot{}))
	singleBytes   = overheadBytes + countsBytes
)

// recordBytes returns the accounted size of a record holding v.
func recordBytes(v any) int64 {
	if mc, ok := v.(*machine.MultiCounts); ok {
		return overheadBytes + int64(unsafe.Sizeof(*mc)) + int64(len(mc.PerCopy))*(ptrBytes+countsBytes)
	}
	return singleBytes
}

// exactCost is the recompute cost of an exact leaf in analytic leaves:
// the ratio of the engines' nominal leaf costs.
const exactCost = float64(engine.ExactLeafCost / engine.AnalyticLeafCost)

// defaultEvents is the events an exact leaf at the default fidelity
// simulates, the fidelity exactCost is priced at.
var defaultEvents = func() float64 {
	o := machine.RunOptions{}.Canonical()
	return float64(o.Instructions + o.WarmupInstructions)
}()

// cost returns the recompute cost of k's record in analytic leaves: 1
// for an estimate at any fidelity; exactCost for an exact leaf at or
// below the default fidelity, growing with the events it simulates
// above it; times the copies of a multi-copy record. A key of an
// unknown engine is priced as exact.
func cost(k Key) float64 {
	c := 1.0
	if k.Engine != analyticEngine {
		c = exactCost * max(1, float64(k.Instructions+k.Warmup)/defaultEvents)
	}
	return c * float64(max(1, k.Copies))
}

// slot is a resident record and its place in the eviction order. The
// slots live in one slice and link by index, so the collector scans
// them as one object and follows no list pointers.
type slot struct {
	key        Key
	v          any     // *machine.RawCounts, or *machine.MultiCounts in Store.multi
	h          float64 // priority: the inflation at the last touch + cost/size
	seq        uint64  // the clock at the last touch
	prev, next int32   // neighbours in the slot's class; none at the ends
}

// none is the index of no slot.
const none = -1

// before reports whether slot i goes before slot j: a lower priority,
// or an equal one touched earlier.
func (s *Store) before(i, j int32) bool {
	a, b := &s.slots[i], &s.slots[j]
	return a.h < b.h || a.h == b.h && a.seq < b.seq
}

// lru is one cost class: the slots whose cost/size is credit, least
// recently touched first. A record's priority is the inflation at its
// last touch plus credit, and the inflation never falls, so priorities
// rise along the list and its head goes first of the class. The lowest
// of the classes' heads is therefore the lowest priority in the store,
// which makes one LRU list per class GreedyDual-Size exactly.
type lru struct {
	credit     float64
	head, tail int32
}

// credit returns slot i's cost/size.
func (s *Store) credit(i int32) float64 {
	return cost(s.slots[i].key) / float64(recordBytes(s.slots[i].v))
}

// class returns the class of slot i's credit, or nil. Caller holds s.mu.
func (s *Store) class(i int32) *lru {
	credit := s.credit(i)
	for k := range s.classes {
		if s.classes[k].credit == credit {
			return &s.classes[k]
		}
	}
	return nil
}

// push makes slot i the newest of c.
func (s *Store) push(c *lru, i int32) {
	s.slots[i].prev, s.slots[i].next = c.tail, none
	if c.tail != none {
		s.slots[c.tail].next = i
	} else {
		c.head = i
	}
	c.tail = i
}

// remove takes slot i out of c.
func (s *Store) remove(c *lru, i int32) {
	sl := &s.slots[i]
	if sl.prev != none {
		s.slots[sl.prev].next = sl.next
	} else {
		c.head = sl.next
	}
	if sl.next != none {
		s.slots[sl.next].prev = sl.prev
	} else {
		c.tail = sl.prev
	}
}

// stamp sets slot i's priority as of now, H = L + cost/size, where L is
// the store's inflation. Caller holds s.mu.
func (s *Store) stamp(i int32, credit float64) {
	s.clock++
	s.slots[i].h, s.slots[i].seq = s.inflation+credit, s.clock
}

// link makes slot i the newest record of its cost class. Caller holds
// s.mu.
func (s *Store) link(i int32) {
	c := s.class(i)
	if c == nil {
		s.classes = append(s.classes, lru{credit: s.credit(i), head: none, tail: none})
		c = &s.classes[len(s.classes)-1]
	}
	s.push(c, i)
	s.stamp(i, c.credit)
}

// unlink takes slot i out of its class and drops the class once it is
// empty. Caller holds s.mu.
func (s *Store) unlink(i int32) {
	c := s.class(i)
	s.remove(c, i)
	if c.head == none {
		s.classes = slices.DeleteFunc(s.classes, func(k lru) bool { return k.head == none })
	}
}

// touchLocked makes a record that served a read the newest of its
// class, at a fresh priority. Caller holds s.mu.
func (s *Store) touchLocked(i int32) {
	c := s.class(i)
	if c.tail != i {
		s.remove(c, i)
		s.push(c, i)
	}
	s.stamp(i, c.credit)
}

// insertLocked stores v under key in t as its newest record, replacing
// any record there, then evicts until the bound holds. A new record
// takes a freed slot if there is one. Caller holds s.mu.
func insertLocked[V any](s *Store, t *table[V], key Key, v V) {
	i, ok := t.recs[key]
	if ok {
		s.unlink(i)
		s.bytes -= recordBytes(s.slots[i].v)
		s.slots[i].v = v
	} else if n := len(s.free); n > 0 {
		i, s.free = s.free[n-1], s.free[:n-1]
		s.slots[i] = slot{key: key, v: v}
	} else {
		i = int32(len(s.slots))
		s.slots = append(s.slots, slot{key: key, v: v})
	}
	t.recs[key] = i
	s.bytes += recordBytes(v)
	s.link(i)
	s.evictLocked()
}

// evictLocked evicts the lowest-priority records until the resident
// bytes fit the bound, and frees their slots. Each eviction raises the
// inflation to the evicted priority, so a record untouched since ages
// toward eviction whatever its cost. Caller holds s.mu.
func (s *Store) evictLocked() {
	for s.bytes > s.limit && len(s.classes) > 0 {
		i := s.classes[0].head
		for _, c := range s.classes[1:] {
			if s.before(c.head, i) {
				i = c.head
			}
		}
		s.unlink(i)
		sl := &s.slots[i]
		s.inflation = sl.h
		s.bytes -= recordBytes(sl.v)
		s.evicted++
		if _, multi := sl.v.(*machine.MultiCounts); multi {
			evictKey(&s.multi, sl.key)
		} else {
			evictKey(&s.single, sl.key)
		}
		s.met.evictedBy(sl.key.Engine).Inc()
		*sl = slot{}
		s.free = append(s.free, i)
	}
}

// rebuildAfter is how many times its length in evictions a table's
// map takes before evictKey rebuilds it. A Go map never shrinks, and
// once deletions' tombstones fill a table it rehashes into twice the
// slots. Sweeping analytic grids through a full store, the map first
// grew after 6.5 to 9 times its length in evictions (2-vCPU amd64
// host), so a rebuild at 4 keeps it at its fresh size, for a quarter
// of a copy per eviction.
const rebuildAfter = 4

// evictKey deletes key from t's map, and rebuilds the map once the
// evictions since the last rebuild exceed rebuildAfter times its
// length. Caller holds s.mu.
func evictKey[V any](t *table[V], key Key) {
	delete(t.recs, key)
	if t.evicted++; t.evicted <= rebuildAfter*len(t.recs) {
		return
	}
	recs := make(map[Key]int32, len(t.recs))
	for k, i := range t.recs {
		recs[k] = i
	}
	t.recs, t.evicted = recs, 0
}
