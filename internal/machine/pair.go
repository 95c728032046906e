package machine

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// Pair is a process-wide handle on what a measurement measures, apart
// from its fidelity and engine: a machine configuration and a
// workload. A pair is the triple of the machine's name, the workload's
// seed key and a content digest: the first 32 hex digits of the
// SHA-256 of the configuration's JSON followed by the workload's (spec,
// seed key and ILP), each as a json.Encoder writes it. The digest binds
// the pair to the contents of the configuration and the workload, not
// to the instances that carried them. Two handles are equal exactly
// when their triples are. The zero Pair is no pair.
type Pair uint32

// pairNames is the triple a Pair stands for.
type pairNames struct{ machine, workload, content string }

// valued is one entry of the value index: a configuration's digest and
// a workload, and the pair they intern to.
type valued struct {
	cfg  [sha256.Size]byte
	w    Workload
	pair Pair
}

// pairIndex finds an interned pair by its configuration's digest and
// its workload's value: open addressing over a power-of-two table,
// probed linearly from a hash of the digest and the workload's seed
// key. A slot is filled once and never cleared, so readers take no
// lock: an empty slot ends a probe, and interning confirms a miss
// under pairs.mu. A table half full is replaced by one twice its size.
type pairIndex struct {
	slots []atomic.Pointer[valued]
	n     int // filled slots; guarded by pairs.mu
}

// encodedWorkload is a workload's JSON, as a json.Encoder writes it.
type encodedWorkload struct {
	w   Workload
	enc []byte
}

// pairs is the process's pair table. It holds one entry per distinct
// triple interned; spec17d interns the built-in fleet times the
// registry, replicas and what its snapshot holds.
var pairs struct {
	mu    sync.Mutex
	names PairMemo[pairNames]
	ids   map[pairNames]Pair // guarded by mu
	// encoded holds each workload's JSON by seed key, so a workload is
	// encoded once per process, however many machines it pairs with.
	encoded map[string][]encodedWorkload // guarded by mu
	// buf holds the bytes a pair's digest covers: the configuration's,
	// then the workload's. Guarded by mu.
	buf   []byte
	index atomic.Pointer[pairIndex]
}

// indexSeed seeds pairIndex's hash for the life of the process.
var indexSeed = maphash.MakeSeed()

// indexHash hashes a pair's value for pairIndex: the workload's seed
// key, mixed with the configuration's digest, whose bytes are already
// uniform.
func indexHash(cfg *[sha256.Size]byte, key string) uint64 {
	return maphash.String(indexSeed, key) ^ binary.LittleEndian.Uint64(cfg[:8])
}

// find returns the pair indexed for (cfg, w), or 0.
func (t *pairIndex) find(cfg *[sha256.Size]byte, w *Workload, h uint64) Pair {
	mask := uint64(len(t.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		v := t.slots[i].Load()
		if v == nil {
			return 0
		}
		if v.cfg == *cfg && v.w == *w {
			return v.pair
		}
	}
}

// add fills the first empty slot of v's probe. Caller holds pairs.mu.
func (t *pairIndex) add(v *valued) {
	mask := uint64(len(t.slots) - 1)
	i := indexHash(&v.cfg, v.w.Key) & mask
	for t.slots[i].Load() != nil {
		i = (i + 1) & mask
	}
	t.slots[i].Store(v)
	t.n++
}

// PairOf returns the pair of w on m, interning it on first use. Once
// the pair is interned, PairOf takes no lock and allocates nothing, and
// it hashes the workload's seed key, not the workload: the index
// compares the whole value. A workload with a NaN field never equals
// itself and is never indexed; its pair is found by its triple each
// time, under the lock. Workloads that differ only in the sign of a
// zero compare equal and share the pair and the encoding of the first
// one interned.
func (m *Machine) PairOf(w Workload) Pair {
	m.encode()
	h := indexHash(&m.digest, w.Key)
	if t := pairs.index.Load(); t != nil {
		if p := t.find(&m.digest, &w, h); p != 0 {
			return p
		}
	}
	return m.intern(w, h)
}

// intern is PairOf's miss: it digests the pair's contents, interns its
// triple and indexes its value.
func (m *Machine) intern(w Workload, h uint64) Pair {
	pairs.mu.Lock()
	defer pairs.mu.Unlock()
	t := pairs.index.Load()
	if t != nil {
		if p := t.find(&m.digest, &w, h); p != 0 {
			return p // interned since PairOf looked
		}
	}
	pairs.buf = append(append(pairs.buf[:0], m.encoded...), encodedLocked(w)...)
	sum := sha256.Sum256(pairs.buf)
	var digits [32]byte
	hex.Encode(digits[:], sum[:16])
	p := internLocked(pairNames{m.cfg.Name, w.Key, string(digits[:])})
	if w != w {
		return p // a NaN field: no lookup by value could find it
	}
	if t == nil || 2*(t.n+1) > len(t.slots) {
		grown := &pairIndex{slots: make([]atomic.Pointer[valued], 64)}
		if t != nil {
			grown.slots = make([]atomic.Pointer[valued], 2*len(t.slots))
			for i := range t.slots {
				if v := t.slots[i].Load(); v != nil {
					grown.add(v)
				}
			}
		}
		t = grown
		pairs.index.Store(t)
	}
	t.add(&valued{m.digest, w, p})
	return p
}

// encodedLocked returns w as a json.Encoder writes it, encoding each
// workload once per process. A workload that cannot be encoded (a NaN
// or infinite field) has no bytes, so the pair's digest covers its
// configuration alone. Caller holds pairs.mu.
func encodedLocked(w Workload) []byte {
	for _, e := range pairs.encoded[w.Key] {
		if e.w == w {
			return e.enc
		}
	}
	var b bytes.Buffer
	if json.NewEncoder(&b).Encode(w) != nil {
		return nil
	}
	if w == w {
		if pairs.encoded == nil {
			pairs.encoded = make(map[string][]encodedWorkload)
		}
		pairs.encoded[w.Key] = append(pairs.encoded[w.Key], encodedWorkload{w, b.Bytes()})
	}
	return b.Bytes()
}

// InternPair returns the pair with the given triple, interning it on
// first use: how a store snapshot, which names its pairs, rebuilds
// them. The pair PairOf gives an equal triple is the same.
func InternPair(machineName, workloadKey, content string) Pair {
	pairs.mu.Lock()
	defer pairs.mu.Unlock()
	return internLocked(pairNames{machineName, workloadKey, content})
}

// internLocked returns the pair of id, interning it. Caller holds
// pairs.mu.
func internLocked(id pairNames) Pair {
	if p, ok := pairs.ids[id]; ok {
		return p
	}
	if pairs.ids == nil {
		pairs.ids = make(map[pairNames]Pair)
	}
	p := Pair(len(pairs.ids) + 1)
	pairs.ids[id] = p
	pairs.names.Store(p, id)
	return p
}

// Machine returns the name of the pair's machine.
func (p Pair) Machine() string { id, _ := pairs.names.Load(p); return id.machine }

// Workload returns the seed key of the pair's workload.
func (p Pair) Workload() string { id, _ := pairs.names.Load(p); return id.workload }

// Content returns the pair's content digest, in 32 hex digits.
func (p Pair) Content() string { id, _ := pairs.names.Load(p); return id.content }

// PairMemo memoizes one value per Pair for the life of the process: a
// table indexed by the handle, so Load takes no lock and allocates
// nothing. Storing into a pair beyond the table grows it, under a lock
// that only stores take. The zero value is empty and ready; it is safe
// for concurrent use.
type PairMemo[V any] struct {
	mu sync.Mutex
	vs atomic.Pointer[[]atomic.Pointer[V]]
}

// Load returns the value stored for p, if any.
func (pm *PairMemo[V]) Load(p Pair) (v V, ok bool) {
	if vs := pm.vs.Load(); vs != nil && int(p) < len(*vs) {
		if pv := (*vs)[p].Load(); pv != nil {
			return *pv, true
		}
	}
	return v, false
}

// Store records v for p. A Load that raced a store growing the table
// may miss, and its caller compute the value again.
func (pm *PairMemo[V]) Store(p Pair, v V) {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	vs := pm.vs.Load()
	if vs == nil || int(p) >= len(*vs) {
		grown := make([]atomic.Pointer[V], max(64, 2*int(p)))
		if vs != nil {
			for i := range *vs {
				grown[i].Store((*vs)[i].Load())
			}
		}
		vs = &grown
		pm.vs.Store(vs)
	}
	(*vs)[p].Store(&v)
}

// Len returns the number of pairs stored.
func (pm *PairMemo[V]) Len() int {
	n := 0
	if vs := pm.vs.Load(); vs != nil {
		for i := range *vs {
			if (*vs)[i].Load() != nil {
				n++
			}
		}
	}
	return n
}
