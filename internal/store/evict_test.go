package store

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/machine"
	"repro/internal/metrics"
)

// gridMachines and gridWorkloads stand in for the fleet and the
// registry: a grid has 7 × 98 = 686 keys, as a characterization does.
var gridMachines, gridWorkloads = func() (ms, ws []string) {
	for i := 0; i < 7; i++ {
		ms = append(ms, fmt.Sprintf("machine-%d", i))
	}
	for i := 0; i < 98; i++ {
		ws = append(ws, fmt.Sprintf("workload-%02d", i))
	}
	return ms, ws
}()

// gridKeys returns the 686 keys of a grid at one fidelity on one engine
// ("" is exact). The strings are shared across grids, as a process's
// keys share their machine names, workload keys and content hashes.
func gridKeys(instructions int, engineTier string) []Key {
	keys := make([]Key, 0, len(gridMachines)*len(gridWorkloads))
	for _, m := range gridMachines {
		for _, w := range gridWorkloads {
			keys = append(keys, snapshotKey{Machine: m, Workload: w, Instructions: instructions,
				Warmup: instructions / 5, Engine: engineTier, Content: w}.key())
		}
	}
	return keys
}

// counts returns a record whose Instructions tells which put stored it.
func counts(i int) *machine.RawCounts {
	return &machine.RawCounts{Instructions: uint64(i), Cycles: uint64(2 * i), CPI: 2}
}

// seqKey returns the i-th key of a sequence on the given engine.
func seqKey(i int, engineTier string) Key {
	return snapshotKey{Machine: "m", Workload: fmt.Sprintf("w%d", i), Instructions: 5_000, Warmup: 1_000,
		Engine: engineTier, Content: "c"}.key()
}

// TestEvictionOrder pins GreedyDual-Size on single-copy records: with
// room for four, an analytic record goes before an exact one, equal
// priorities go oldest first, a hit refreshes a record, and analytic
// churn ages an untouched exact record until it goes too.
func TestEvictionOrder(t *testing.T) {
	s, err := open(Config{}, 4*singleBytes)
	if err != nil {
		t.Fatal(err)
	}
	// resident looks a key up without refreshing it, as Get would.
	resident := func(k Key) bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		_, ok := s.single.recs[k]
		return ok
	}
	exact := seqKey(0, "")
	s.Put(exact, counts(0))
	for i := 1; i <= 3; i++ {
		s.Put(seqKey(i, analyticEngine), counts(i))
	}

	s.Put(seqKey(4, analyticEngine), counts(4))
	if resident(seqKey(1, analyticEngine)) || !resident(exact) {
		t.Fatal("a full store did not evict its oldest analytic record first")
	}
	if _, ok := s.Get(seqKey(2, analyticEngine)); !ok {
		t.Fatal("analytic record 2 evicted early")
	}
	s.Put(seqKey(5, analyticEngine), counts(5))
	if resident(seqKey(3, analyticEngine)) || !resident(seqKey(2, analyticEngine)) {
		t.Fatal("a hit did not refresh its record")
	}
	if got := s.Stats(); got.Entries != 4 || got.Bytes != 4*singleBytes || got.Evicted != 2 {
		t.Fatalf("stats %+v, want 4 entries, %d bytes, 2 evicted", got, 4*singleBytes)
	}

	// The exact record's priority is exactCost analytic credits above
	// the inflation it was touched at. An analytic record's is one
	// credit above, and the fourth put after its own evicts it, raising
	// the inflation to its priority: one credit every four puts. So the
	// exact record goes after about 4 × exactCost analytic puts.
	n := 0
	for ; resident(exact) && n <= 10*int(exactCost); n++ {
		s.Put(seqKey(6+n, analyticEngine), counts(6+n))
	}
	if lo, hi := 4*int(exactCost)*9/10, 4*int(exactCost)*11/10; n < lo || n > hi {
		t.Errorf("the exact record went after %d analytic puts, want %d to %d", n, lo, hi)
	}
}

// TestFidelitySweepBounded sweeps fresh analytic fidelities, as a
// client asking for a new one per request does, over an exact grid
// stored first, until it has put twice the bound: the store keeps its
// bound, in accounted bytes and in live heap, its snapshot stays
// bounded, and the exact grid is still resident.
func TestFidelitySweepBounded(t *testing.T) {
	var m0 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)

	path := filepath.Join(t.TempDir(), "snap.json")
	s, err := Open(Config{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	exact := gridKeys(20_000, "")
	for i, k := range exact {
		s.Put(k, counts(i))
	}
	var put int64
	grids := 0
	for fid := 400_001; put < 2*maxBytes; fid++ {
		for i, k := range gridKeys(fid, analyticEngine) {
			s.Put(k, counts(i))
			put += singleBytes
		}
		grids++
	}

	st := s.Stats()
	if st.Bytes > maxBytes || st.Bytes != st.Entries*singleBytes {
		t.Errorf("accounted %d bytes for %d records, want %d each and at most %d", st.Bytes, st.Entries, singleBytes, maxBytes)
	}
	if want := int64(len(exact)) + put/singleBytes - st.Entries; st.Evicted != want {
		t.Errorf("evicted %d records, want %d", st.Evicted, want)
	}
	for _, k := range exact {
		if _, ok := s.Get(k); !ok {
			t.Fatalf("exact record %s evicted by %d analytic grids", k.ID(), grids)
		}
	}

	// The heap holds the records, plus what accounting leaves out:
	// size-class rounding and the map's empty slots. On a 2-vCPU amd64
	// host the heap grew 4.5 MiB beyond the bound over this sweep.
	// Before eviction rebuilt the churned map it grew 11.0 MiB over
	// sweeps of 20 to 160 times the bound, which three quarters of the
	// bound still covers; TestLongSweepHeapBounded checks the tighter
	// figure on a long sweep.
	const slack = maxBytes * 3 / 4
	var m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m1)
	if grown := int64(m1.HeapInuse) - int64(m0.HeapInuse); grown > maxBytes+slack {
		t.Errorf("heap in use grew %d bytes over the sweep, want at most %d + %d", grown, maxBytes, slack)
	}
	runtime.KeepAlive(s)

	if err := s.Save(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	// An indented record with a fleet leaf's counts encodes to about
	// 1.3 KB; these sparse ones to less.
	if n := int64(len(snap.Entries)); n != st.Entries || int64(len(data)) > 2048*n {
		t.Errorf("snapshot has %d records in %d bytes, want the %d resident in at most 2 KiB each", n, len(data), st.Entries)
	}
}

// TestLongSweepHeapBounded: a sweep of twenty times the bound keeps
// the heap near the bound. A Go map never shrinks, and it rehashes
// into twice the slots when deletions' tombstones fill a table, so
// under eviction churn it grows until deletions stop leaving
// tombstones. On a 2-vCPU amd64 host the heap held 27.0 MiB for the
// 16 MiB of records after this sweep before eviction rebuilt the map,
// and 20.5 MiB after.
func TestLongSweepHeapBounded(t *testing.T) {
	var m0 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)

	s, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	var put int64
	var last []Key
	for fid := 400_001; put < 20*maxBytes; fid++ {
		last = gridKeys(fid, analyticEngine)
		for i, k := range last {
			s.Put(k, counts(i))
			put += singleBytes
		}
	}

	var m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m1)
	grown := int64(m1.HeapInuse) - int64(m0.HeapInuse)
	if limit := int64(maxBytes + maxBytes/2); grown > limit {
		t.Errorf("heap in use grew %d bytes over a 20x sweep, want at most %d", grown, limit)
	}

	// The rebuilt map still holds every resident record, each under
	// its own key.
	if st := s.Stats(); st.Entries != maxBytes/singleBytes {
		t.Errorf("%d records resident, want %d", st.Entries, maxBytes/singleBytes)
	}
	for i, k := range last {
		if rc, ok := s.Get(k); !ok || rc.Instructions != uint64(i) {
			t.Fatalf("newest grid's record %s: %v, %v", k.ID(), rc, ok)
		}
	}
}

// TestOversizedSnapshotTrimmed: a snapshot holding more than the bound
// loads without a version change, and the same policy trims it. Its
// exact records outlast its analytic ones.
func TestOversizedSnapshotTrimmed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.json")
	big, err := open(Config{Path: path}, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	exact := gridKeys(20_000, "")
	for i, k := range exact {
		big.Put(k, counts(i))
	}
	var analytic []Key
	for fid := 400_001; fid <= 400_003; fid++ {
		analytic = append(analytic, gridKeys(fid, analyticEngine)...)
	}
	for i, k := range analytic {
		big.Put(k, counts(i))
	}
	if err := big.Save(); err != nil {
		t.Fatal(err)
	}

	limit := int64(len(exact)+len(analytic)/2) * singleBytes
	s, err := open(Config{Path: path}, limit)
	if err != nil {
		t.Fatalf("an oversized snapshot was refused: %v", err)
	}
	st := s.Stats()
	total := int64(len(exact) + len(analytic))
	if st.Loaded != total || st.Entries != limit/singleBytes || st.Bytes > limit || st.Evicted != total-st.Entries {
		t.Errorf("stats %+v, want %d loaded, %d resident in at most %d bytes", st, total, limit/singleBytes, limit)
	}
	for _, k := range exact {
		if _, ok := s.Get(k); !ok {
			t.Fatalf("exact record %s trimmed before the analytic ones", k.ID())
		}
	}
	if s.Dirty() {
		t.Error("trimming at load left the store dirty")
	}
}

// TestEvictionRacesFlights runs GetOrCompute over more keys than the
// store holds from many goroutines, so records are evicted while other
// keys' flights run: each caller gets its key's record, no key is ever
// computed twice at once, hits plus misses count every call, and the
// gauges agree with the store once it is quiescent.
func TestEvictionRacesFlights(t *testing.T) {
	reg := metrics.NewRegistry()
	s, err := open(Config{Metrics: reg}, 8*singleBytes)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, rounds, nkeys = 8, 200, 24
	keys := make([]Key, nkeys)
	for i := range keys {
		tier := analyticEngine
		if i%3 == 0 {
			tier = ""
		}
		keys[i] = seqKey(i, tier)
	}
	var computing [nkeys]atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (g*7 + r*5) % nkeys
				rc, err := s.GetOrCompute(context.Background(), keys[i], func(context.Context) (*machine.RawCounts, error) {
					if n := computing[i].Add(1); n != 1 {
						t.Errorf("key %d computed by %d callers at once", i, n)
					}
					defer computing[i].Add(-1)
					runtime.Gosched()
					return counts(i), nil
				})
				if err != nil || rc.Instructions != uint64(i) {
					t.Errorf("key %d: got %+v, %v", i, rc, err)
				}
			}
		}()
	}
	wg.Wait()
	st := s.Stats()
	if st.Hits+st.Misses != goroutines*rounds {
		t.Errorf("hits %d + misses %d, want %d calls", st.Hits, st.Misses, goroutines*rounds)
	}
	if st.Evicted == 0 {
		t.Error("no record was evicted; the test did not race eviction")
	}
	checkGauges(t, s, reg)
}

// TestEvictionRacesOnPair puts both halves of many pairs from two
// goroutines, in opposite orders, while a third fills the store with
// unrelated records: a pair whose first half was evicted before its
// second landed forms no pair, and every pair that forms fires OnPair
// once, with its own two records.
func TestEvictionRacesOnPair(t *testing.T) {
	const n = 300
	rec := newPairRecorder()
	s, err := open(Config{OnPair: rec.hook}, 16*singleBytes)
	if err != nil {
		t.Fatal(err)
	}
	analytic := make([]*machine.RawCounts, n)
	exact := make([]*machine.RawCounts, n)
	for i := range analytic {
		analytic[i], exact[i] = counts(i), counts(i)
	}
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			a, _ := pairKeys(i)
			s.Put(a, analytic[i])
		}
	}()
	go func() {
		defer wg.Done()
		for i := n - 1; i >= 0; i-- {
			_, x := pairKeys(i)
			if _, err := s.GetOrCompute(context.Background(), x, func(context.Context) (*machine.RawCounts, error) {
				return exact[i], nil
			}); err != nil {
				t.Error(err)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 4*n; i++ {
			s.Put(seqKey(i, analyticEngine), counts(i))
		}
	}()
	wg.Wait()

	rec.mu.Lock()
	for i := 0; i < n; i++ {
		a, _ := pairKeys(i)
		switch c := rec.calls[a]; c {
		case 0:
		case 1:
			if r := rec.recs[a]; r[0] != analytic[i] || r[1] != exact[i] {
				t.Errorf("pair %d: OnPair got (%p, %p), want (%p, %p)", i, r[0], r[1], analytic[i], exact[i])
			}
		default:
			t.Errorf("pair %d: OnPair fired %d times, want at most 1", i, c)
		}
	}
	rec.mu.Unlock()
	if s.Stats().Evicted == 0 {
		t.Error("no record was evicted; the test did not race eviction")
	}

	// Serially: an analytic record evicted before its exact twin lands
	// forms no pair.
	serial := newPairRecorder()
	s2, err := open(Config{OnPair: serial.hook}, 2*singleBytes)
	if err != nil {
		t.Fatal(err)
	}
	a, x := pairKeys(0)
	s2.Put(a, counts(0))
	s2.Put(seqKey(0, analyticEngine), counts(1))
	s2.Put(seqKey(1, analyticEngine), counts(2))
	s2.Put(x, counts(3))
	if got := serial.total(); got != 0 {
		t.Errorf("an evicted analytic record paired with its exact twin: OnPair fired %d times", got)
	}
}

// TestGaugesTrackConcurrentPuts: puts that evict, from many goroutines,
// leave spec17_store_entries and spec17_store_bytes equal to Len and
// to the accounted bytes each time the store is quiescent. A gauge set
// after the lock is released can be overwritten by a put that finished
// earlier, so the test checks after each of many rounds.
func TestGaugesTrackConcurrentPuts(t *testing.T) {
	reg := metrics.NewRegistry()
	s, err := open(Config{Metrics: reg}, 64*singleBytes)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, rounds = 8, 200
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 4; i++ {
					tier := analyticEngine
					if i == 0 {
						tier = ""
					}
					s.Put(seqKey((r*goroutines+g)*4+i, tier), counts(i))
				}
			}()
		}
		wg.Wait()
		if !checkGauges(t, s, reg) {
			t.Fatalf("gauges stale after round %d", r)
		}
	}
}

// checkGauges checks a quiescent store's gauges and bound, and reports
// whether they held.
func checkGauges(t *testing.T, s *Store, reg *metrics.Registry) bool {
	t.Helper()
	failed := t.Failed()
	st := s.Stats()
	snap := reg.Snapshot()
	if got := snap.Value("spec17_store_entries"); got != float64(s.Len()) {
		t.Errorf("spec17_store_entries = %v, want Len() = %d", got, s.Len())
	}
	if got := snap.Value("spec17_store_bytes"); got != float64(st.Bytes) {
		t.Errorf("spec17_store_bytes = %v, want %d", got, st.Bytes)
	}
	evicted := snap.Value("spec17_store_evictions_total", "exact") + snap.Value("spec17_store_evictions_total", "analytic")
	if evicted != float64(st.Evicted) {
		t.Errorf("spec17_store_evictions_total sums to %v, want %d", evicted, st.Evicted)
	}
	if st.Bytes > s.limit {
		t.Errorf("%d bytes resident, bound %d", st.Bytes, s.limit)
	}
	return failed || !t.Failed()
}

// BenchmarkFidelitySweep puts fresh analytic grids into a store filled
// to its bound, so every put evicts one record: the store's work per
// leaf on a cold analytic request once the bound is reached. One op is
// one 686-leaf grid.
func BenchmarkFidelitySweep(b *testing.B) {
	s, err := Open(Config{})
	if err != nil {
		b.Fatal(err)
	}
	fid := 400_001
	for s.Stats().Evicted == 0 {
		for i, k := range gridKeys(fid, analyticEngine) {
			s.Put(k, counts(i))
		}
		fid++
	}
	grids := make([][]Key, 64)
	for i := range grids {
		grids[i] = gridKeys(fid+i, analyticEngine)
	}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		keys := grids[n%len(grids)]
		for i := range keys {
			keys[i].instructions += len(grids)
			s.Put(keys[i], counts(i))
		}
	}
}

// TestSnapshotCannotPinStore: records that no caller can produce are
// refused at load and counted, so they cannot pin the store. Twenty
// single-copy records claiming 2^50 instructions once filled a
// 20-record bound at a priority no real record reaches, and each fresh
// exact record was then evicted by its own put. Refused too: a single
// record with copies, multi records whose copy count does not match
// their per-copy counts (or is zero, or has a missing count), and a
// warmup above the cap. The producible records beside them load, and
// fresh records put afterwards stay resident.
func TestSnapshotCannotPinStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.json")
	src, err := open(Config{Path: path}, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	const bound = 20
	for i := 0; i < bound; i++ {
		k := seqKey(i, "")
		k.instructions = 1 << 50
		src.Put(k, counts(i))
	}
	bad := bound
	put := func(k Key) {
		src.Put(k, counts(1))
		bad++
	}
	k := seqKey(100, "")
	k.copies = 3
	put(k)
	k = seqKey(101, analyticEngine)
	k.warmup = MaxInstructions + 1
	put(k)
	putMulti := func(k Key, perCopy []*machine.RawCounts) {
		mc := &machine.MultiCounts{Copies: len(perCopy), PerCopy: perCopy, Throughput: 1}
		if _, err := src.GetOrComputeMulti(context.Background(), k, func(context.Context) (*machine.MultiCounts, error) {
			return mc, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i, perCopy := range [][]*machine.RawCounts{{counts(1)}, nil, {counts(1), nil}} {
		k := seqKey(200+i, "")
		k.copies = 2
		putMulti(k, perCopy)
		bad++
	}
	k = seqKey(210, "")
	k.copies = 0
	putMulti(k, nil)
	bad++

	good := []Key{seqKey(300, ""), seqKey(301, analyticEngine)}
	for i, k := range good {
		src.Put(k, counts(i))
	}
	goodMulti := seqKey(302, "")
	goodMulti.copies = 2
	putMulti(goodMulti, []*machine.RawCounts{counts(1), counts(2)})
	if err := src.Save(); err != nil {
		t.Fatal(err)
	}

	s, err := open(Config{Path: path}, bound*singleBytes)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Rejected != int64(bad) || st.Loaded != int64(len(good)+1) || st.Evicted != 0 {
		t.Fatalf("stats %+v, want %d rejected, %d loaded, none evicted", st, bad, len(good)+1)
	}
	for _, k := range good {
		if _, ok := s.Get(k); !ok {
			t.Errorf("producible record %s did not load", k.ID())
		}
	}
	if _, ok := s.multi.recs[goodMulti]; !ok {
		t.Errorf("producible multi record %s did not load", goodMulti.ID())
	}
	for i := 0; i < 5; i++ {
		k := seqKey(400+i, "")
		s.Put(k, counts(i))
		if _, ok := s.Get(k); !ok {
			t.Fatalf("fresh exact record %d was evicted by its own put (stats %+v)", i, s.Stats())
		}
	}
	if st := s.Stats(); st.Evicted != 0 {
		t.Errorf("fresh records evicted: %+v", st)
	}
}
