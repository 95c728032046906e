package store

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/machine"
)

// pairRecorder is an OnPair hook that counts the calls per analytic
// key and remembers the records each call carried.
type pairRecorder struct {
	mu    sync.Mutex
	calls map[Key]int
	recs  map[Key][2]*machine.RawCounts
}

func newPairRecorder() *pairRecorder {
	return &pairRecorder{calls: make(map[Key]int), recs: make(map[Key][2]*machine.RawCounts)}
}

func (p *pairRecorder) hook(k Key, analytic, exact *machine.RawCounts) {
	p.mu.Lock()
	p.calls[k]++
	p.recs[k] = [2]*machine.RawCounts{analytic, exact}
	p.mu.Unlock()
}

func (p *pairRecorder) total() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, c := range p.calls {
		n += c
	}
	return n
}

// pairKeys returns the analytic key of pair i and its exact twin.
func pairKeys(i int) (analytic, exact Key) {
	analytic = snapshotKey{
		Machine:      "m",
		Workload:     fmt.Sprintf("w%d", i),
		Instructions: 5_000,
		Warmup:       1_000,
		Engine:       analyticEngine,
		Content:      fmt.Sprintf("c%d", i%7),
	}.key()
	exact = analytic
	exact.engine = exactTier
	return analytic, exact
}

// TestOnPairOncePerPair stores the two halves of many pairs from two
// goroutines at once, through Put and through GetOrCompute leaders,
// in opposite orders: OnPair fires exactly once per pair, with the
// analytic record first. Storing either half again fires nothing —
// records are immutable, so a pair once scored stays scored. Run it
// under -race (the Makefile includes this package in RACE_PKGS).
func TestOnPairOncePerPair(t *testing.T) {
	const n = 200
	rec := newPairRecorder()
	s, err := Open(Config{OnPair: rec.hook})
	if err != nil {
		t.Fatal(err)
	}
	analytic := make([]*machine.RawCounts, n)
	exact := make([]*machine.RawCounts, n)
	for i := range analytic {
		analytic[i] = &machine.RawCounts{Instructions: uint64(i), CPI: 1}
		exact[i] = &machine.RawCounts{Instructions: uint64(i), CPI: 2}
	}
	add := func(i int, k Key, rc *machine.RawCounts) {
		if i%2 == 0 {
			s.Put(k, rc)
			return
		}
		if _, err := s.GetOrCompute(context.Background(), k, func(context.Context) (*machine.RawCounts, error) {
			return rc, nil
		}); err != nil {
			t.Error(err)
		}
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			a, _ := pairKeys(i)
			add(i, a, analytic[i])
		}
	}()
	go func() {
		defer wg.Done()
		for i := n - 1; i >= 0; i-- {
			_, x := pairKeys(i)
			add(i+1, x, exact[i])
		}
	}()
	wg.Wait()

	for i := 0; i < n; i++ {
		a, _ := pairKeys(i)
		if got := rec.calls[a]; got != 1 {
			t.Errorf("pair %d: OnPair fired %d times, want 1", i, got)
		}
		if r := rec.recs[a]; r[0] != analytic[i] || r[1] != exact[i] {
			t.Errorf("pair %d: OnPair got (%p, %p), want (analytic %p, exact %p)",
				i, r[0], r[1], analytic[i], exact[i])
		}
	}

	for i := 0; i < n; i++ {
		a, x := pairKeys(i)
		s.Put(a, analytic[i])
		s.Put(x, exact[i])
	}
	if got := rec.total(); got != n {
		t.Errorf("OnPair fired %d times after storing every half again, want %d", got, n)
	}
}

// TestOnPairIgnoresNonPairs: a multi-copy record, a record of an
// engine other than analytic or exact, and a lone record fire nothing.
func TestOnPairIgnoresNonPairs(t *testing.T) {
	rec := newPairRecorder()
	s, err := Open(Config{OnPair: rec.hook})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	a, x := pairKeys(0)
	multi := func(context.Context) (*machine.MultiCounts, error) { return &machine.MultiCounts{}, nil }
	for _, k := range []Key{a, x} {
		k.copies = 4
		if _, err := s.GetOrComputeMulti(ctx, k, multi); err != nil {
			t.Fatal(err)
		}
	}

	other, twin := pairKeys(1)
	other.engine = engineOf("sampled")
	s.Put(other, &machine.RawCounts{})
	s.Put(twin, &machine.RawCounts{})

	lone, _ := pairKeys(2)
	s.Put(lone, &machine.RawCounts{})

	if got := rec.total(); got != 0 {
		t.Errorf("OnPair fired %d times for records that form no pair: %v", got, rec.calls)
	}
	if s.Len() != 5 {
		t.Errorf("Len = %d, want 5", s.Len())
	}
}

// TestOnPairSkipsSnapshot: records loaded from a snapshot form no
// pairs, so a reopened store does not score its predecessor's pairs
// again, while a pair completed after the reload still fires.
func TestOnPairSkipsSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.json")
	s1, err := Open(Config{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	a0, x0 := pairKeys(0)
	a1, x1 := pairKeys(1)
	s1.Put(a0, &machine.RawCounts{})
	s1.Put(x0, &machine.RawCounts{})
	s1.Put(x1, &machine.RawCounts{})
	if err := s1.Save(); err != nil {
		t.Fatal(err)
	}

	rec := newPairRecorder()
	s2, err := Open(Config{Path: path, OnPair: rec.hook})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 3 {
		t.Fatalf("reloaded %d records, want 3", s2.Len())
	}
	s2.Put(x0, &machine.RawCounts{}) // already resident: no new pair
	if got := rec.total(); got != 0 {
		t.Fatalf("OnPair fired %d times for reloaded records, want 0", got)
	}
	s2.Put(a1, &machine.RawCounts{})
	if rec.calls[a1] != 1 || rec.total() != 1 {
		t.Errorf("pair completed after reload: calls %v, want one for %+v", rec.calls, a1)
	}
}
