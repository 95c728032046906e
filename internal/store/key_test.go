package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/machine"
)

// TestKeyIDsGolden pins every key the fleet and the registry produce:
// the SHA-256 over the sorted ID()s of each registry workload on each
// fleet machine at the default fidelity and at 20,000/4,000, on both
// engine tiers and as 1- and 4-copy multi-copy keys. The hash was
// taken when Key still held its names and content hash as strings, so
// a change to the key's form cannot change an ID, a trace's key label
// or a snapshot's order.
func TestKeyIDsGolden(t *testing.T) {
	fleet, ws := testFleet(t), registryWorkloads()
	var ids []string
	for _, opts := range []machine.RunOptions{{}, {Instructions: 20_000, WarmupInstructions: 4_000}} {
		for _, w := range ws {
			for _, m := range fleet {
				for _, tier := range []string{"exact", "analytic"} {
					ids = append(ids, KeyForEngine(m, w, opts, tier).ID())
				}
				for _, c := range []int{1, 4} {
					ids = append(ids, KeyForMulti(m, w, c, opts).ID())
				}
			}
		}
	}
	sort.Strings(ids)
	sum := sha256.Sum256([]byte(strings.Join(ids, "\n")))
	const want = "571b7c4c70a0ca3f92f10cec18c5596eafb300b2b9e6acf8ab51cf82928a4308"
	if len(ids) != 6048 || hex.EncodeToString(sum[:]) != want {
		t.Errorf("%d key IDs hash to %x, want 6048 hashing to %s", len(ids), sum, want)
	}
}

// TestSnapshotV1Compatible: testdata/snapshot_v1.json was written by
// the store when Key held strings: analytic, exact and multi-copy
// records and one of an engine neither tier names. It loads whole,
// answers the keys KeyForEngine builds for its pairs, and saves back
// byte for byte.
func TestSnapshotV1Compatible(t *testing.T) {
	want, err := os.ReadFile("testdata/snapshot_v1.json")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "snap.json")
	if err := os.WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(Config{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Loaded != 7 || st.Rejected != 0 {
		t.Fatalf("stats %+v, want 7 loaded and none rejected", st)
	}
	fleet, ws := testFleet(t), registryWorkloads()
	opts := machine.RunOptions{Instructions: 2_000, WarmupInstructions: 400}
	if _, ok := s.Get(KeyForEngine(fleet[1], ws[2], opts, "analytic")); !ok {
		t.Error("an analytic record of the snapshot missed its caller's key")
	}
	if _, ok := s.Get(KeyFor(fleet[0], ws[0], opts)); !ok {
		t.Error("the exact record of the snapshot missed its caller's key")
	}
	if _, ok := s.multi.recs[KeyForMulti(fleet[0], ws[0], 2, opts)]; !ok {
		t.Error("the multi-copy record of the snapshot missed its caller's key")
	}
	s.cfg.Path = filepath.Join(t.TempDir(), "resaved.json")
	if err := s.Save(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(s.cfg.Path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("re-saved snapshot differs from the one loaded:\n%s", got)
	}
}

// TestKeyInterningConcurrent: goroutines keying pairs no one keyed
// before, all at once, each pair from every goroutine, get one pair
// per workload, and so equal keys. Run it under -race (make
// race-store).
func TestKeyInterningConcurrent(t *testing.T) {
	cfg := machine.SkylakeConfig()
	cfg.Name = "interning-race"
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ws := registryWorkloads()[:20]
	const callers = 16
	keys := make([][]Key, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := range keys {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for _, w := range ws {
				keys[g] = append(keys[g], KeyForEngine(m, w, testOpts, "analytic"))
			}
		}()
	}
	close(start)
	wg.Wait()
	// A multi-input profile's primary workload is its first input set,
	// so the list holds some workloads twice.
	distinct := make(map[string]bool)
	pairs := make(map[machine.Pair]bool)
	for i, w := range ws {
		k := keys[0][i]
		for g := range keys {
			if keys[g][i] != k {
				t.Fatalf("%s: goroutine %d keyed %+v, goroutine 0 %+v", w.Key, g, keys[g][i], k)
			}
		}
		if k.Machine() != cfg.Name || k.Workload() != w.Key {
			t.Errorf("%s: key names %s|%s", w.Key, k.Machine(), k.Workload())
		}
		distinct[w.Key] = true
		pairs[k.pair] = true
	}
	if len(pairs) != len(distinct) {
		t.Errorf("%d workloads interned to %d pairs", len(distinct), len(pairs))
	}
}
