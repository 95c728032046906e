package machine

import (
	"crypto/sha256"
	"sync"
)

// Pair identifies what a measurement measures, apart from its
// fidelity and engine: a machine configuration, by its digest, and a
// workload, by value. A Workload holds no pointers, so a Pair is bound
// to the configuration's and the workload's contents, not to the
// instances that carried them.
type Pair struct {
	cfg [sha256.Size]byte
	w   Workload
}

// PairOf returns the pair of w on m.
func (m *Machine) PairOf(w Workload) Pair { return Pair{m.ConfigDigest(), w} }

// PairMemo memoizes one value per Pair for the life of the process.
// It holds one entry per distinct pair stored: a pair whose workload
// has a NaN field never equals itself, so its entry could never be
// found again, and Store leaves it out. Two workloads that differ only
// in the sign of a zero compare equal and share the entry stored
// first. The zero value is empty and ready; it is safe for concurrent
// use.
type PairMemo[V any] struct {
	mu sync.RWMutex
	m  map[Pair]V
}

// Load returns the value stored for p, if any.
func (pm *PairMemo[V]) Load(p *Pair) (v V, ok bool) {
	pm.mu.RLock()
	v, ok = pm.m[*p]
	pm.mu.RUnlock()
	return v, ok
}

// Store records v for p, unless p has a NaN field.
func (pm *PairMemo[V]) Store(p *Pair, v V) {
	if *p != *p {
		return
	}
	pm.mu.Lock()
	if pm.m == nil {
		pm.m = make(map[Pair]V)
	}
	pm.m[*p] = v
	pm.mu.Unlock()
}

// Len returns the number of pairs stored.
func (pm *PairMemo[V]) Len() int {
	pm.mu.RLock()
	defer pm.mu.RUnlock()
	return len(pm.m)
}
