package store

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

func testMachine(t *testing.T) *machine.Machine {
	t.Helper()
	m, err := machine.New(machine.SkylakeConfig())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func testWorkload(t *testing.T, name string) machine.Workload {
	t.Helper()
	p, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return p.Workload()
}

var testOpts = machine.RunOptions{Instructions: 5_000, WarmupInstructions: 1_000}

func TestKeyIdentity(t *testing.T) {
	m := testMachine(t)
	w := testWorkload(t, "505.mcf_r")

	a := KeyFor(m, w, testOpts)
	// The same fidelity spelled differently (defaults explicit vs
	// implied, scheduling knobs set) canonicalizes to the same key.
	b := KeyFor(m, w, machine.RunOptions{Instructions: 5_000, WarmupInstructions: 1_000, Parallelism: 7})
	if a != b {
		t.Errorf("keys differ across canonical-equal options:\n%+v\n%+v", a, b)
	}

	// A different workload, fidelity, or copy count is a different key.
	if c := KeyFor(m, testWorkload(t, "541.leela_r"), testOpts); c.ID() == a.ID() {
		t.Error("different workloads share a key")
	}
	if c := KeyFor(m, w, machine.RunOptions{Instructions: 6_000}); c.ID() == a.ID() {
		t.Error("different fidelities share a key")
	}
	if c := KeyForMulti(m, w, 4, testOpts); c.ID() == a.ID() {
		t.Error("multi-copy and single-copy share a key")
	}

	// A changed machine configuration changes the content hash even
	// under the same machine name — the stale-profile guard.
	cfg := machine.SkylakeConfig()
	cfg.IssueWidth++
	m2, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := KeyFor(m2, w, testOpts)
	if c.pair.Content() == a.pair.Content() {
		t.Error("changed machine config kept the same content hash")
	}
}

func TestGetOrComputeCachesAndCoalesces(t *testing.T) {
	s, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	m := testMachine(t)
	w := testWorkload(t, "505.mcf_r")
	key := KeyFor(m, w, testOpts)

	var computes atomic.Int64
	compute := func(context.Context) (*machine.RawCounts, error) {
		computes.Add(1)
		return m.Run(w, testOpts)
	}

	const callers = 16
	var wg sync.WaitGroup
	results := make([]*machine.RawCounts, callers)
	for i := 0; i < callers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			rc, err := s.GetOrCompute(context.Background(), key, compute)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = rc
		}()
	}
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Errorf("computes = %d, want 1 (coalesced)", n)
	}
	for i := 1; i < callers; i++ {
		if results[i] != results[0] {
			t.Errorf("caller %d got a different record pointer", i)
		}
	}

	// Sequential repeat: memory hit, no compute.
	if _, err := s.GetOrCompute(context.Background(), key, compute); err != nil {
		t.Fatal(err)
	}
	if n := computes.Load(); n != 1 {
		t.Errorf("computes after repeat = %d, want 1", n)
	}
	// Every request counts once: the one computation as a miss, each
	// joiner and later lookup as a hit.
	st := s.Stats()
	if st.Misses != 1 || st.Hits != callers {
		t.Errorf("hits, misses = %d, %d; want %d, 1", st.Hits, st.Misses, callers)
	}
	if st.Entries != 1 {
		t.Errorf("entries = %d, want 1", st.Entries)
	}
}

func TestSnapshotRoundTripBitIdentical(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.json")
	s1, err := Open(Config{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	m := testMachine(t)

	// One single-copy and one multi-copy record.
	w := testWorkload(t, "505.mcf_r")
	key := KeyFor(m, w, testOpts)
	rc, err := s1.GetOrCompute(context.Background(), key, func(context.Context) (*machine.RawCounts, error) {
		return m.Run(w, testOpts)
	})
	if err != nil {
		t.Fatal(err)
	}
	mkey := KeyForMulti(m, w, 4, testOpts)
	mc, err := s1.GetOrComputeMulti(context.Background(), mkey, func(context.Context) (*machine.MultiCounts, error) {
		return m.RunMulti(w, 4, testOpts)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Save(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(Config{Path: path})
	if err != nil {
		t.Fatalf("reloading snapshot: %v", err)
	}
	if s2.Len() != 2 {
		t.Fatalf("reloaded %d records, want 2", s2.Len())
	}
	if s2.Stats().Loaded != 2 {
		t.Errorf("loaded counter = %d, want 2", s2.Stats().Loaded)
	}
	got, ok := s2.Get(key)
	if !ok {
		t.Fatal("single record missing after reload")
	}
	// Bit-identical: every counter and float64 survives the JSON
	// round trip exactly.
	if *got != *rc {
		t.Errorf("reloaded record differs:\n got %+v\nwant %+v", got, rc)
	}
	var computes atomic.Int64
	mc2, err := s2.GetOrComputeMulti(context.Background(), mkey, func(context.Context) (*machine.MultiCounts, error) {
		computes.Add(1)
		return m.RunMulti(w, 4, testOpts)
	})
	if err != nil {
		t.Fatal(err)
	}
	if computes.Load() != 0 {
		t.Error("multi record recomputed despite snapshot")
	}
	if mc2.Throughput != mc.Throughput || len(mc2.PerCopy) != len(mc.PerCopy) {
		t.Errorf("reloaded multi record differs: %+v vs %+v", mc2, mc)
	}
	for i := range mc.PerCopy {
		if *mc2.PerCopy[i] != *mc.PerCopy[i] {
			t.Errorf("reloaded multi per-copy %d differs", i)
		}
	}
}

// TestSnapshotDefectsDegradeToRecompute covers the robustness matrix:
// every way a snapshot can be bad yields a usable empty store plus an
// advisory error — never a hard failure, never stale data.
func TestSnapshotDefectsDegradeToRecompute(t *testing.T) {
	dir := t.TempDir()

	// A valid snapshot to corrupt.
	path := filepath.Join(dir, "valid.json")
	s, err := Open(Config{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	m := testMachine(t)
	w := testWorkload(t, "505.mcf_r")
	key := KeyFor(m, w, testOpts)
	if _, err := s.GetOrCompute(context.Background(), key, func(context.Context) (*machine.RawCounts, error) {
		return m.Run(w, testOpts)
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(); err != nil {
		t.Fatal(err)
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name    string
		content []byte
	}{
		{"corrupted", []byte(`{"version": 1, "fingerprint": ` + "\x00" + `garbage`)},
		{"truncated", valid[:len(valid)/2]},
		{"empty", nil},
		{"version-mismatch", mutateSnapshot(t, valid, func(m map[string]any) { m["version"] = 999 })},
		{"fingerprint-mismatch", mutateSnapshot(t, valid, func(m map[string]any) { m["fingerprint"] = "other-substrate" })},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := filepath.Join(dir, tc.name+".json")
			if err := os.WriteFile(p, tc.content, 0o644); err != nil {
				t.Fatal(err)
			}
			st, err := Open(Config{Path: p})
			if err == nil {
				t.Error("defective snapshot loaded without an advisory error")
			}
			if st == nil {
				t.Fatal("Open returned a nil store")
			}
			if st.Len() != 0 {
				t.Errorf("defective snapshot yielded %d records, want 0", st.Len())
			}
			// The store recomputes and carries on.
			rc, err := st.GetOrCompute(context.Background(), key, func(context.Context) (*machine.RawCounts, error) {
				return m.Run(w, testOpts)
			})
			if err != nil || rc == nil {
				t.Fatalf("recompute after defective snapshot: %v", err)
			}
			if st.Stats().Misses != 1 {
				t.Errorf("misses = %d, want 1 (recompute)", st.Stats().Misses)
			}
		})
	}

	// A missing file is a cold start, not a defect.
	if _, err := Open(Config{Path: filepath.Join(dir, "nope.json")}); err != nil {
		t.Errorf("missing snapshot produced error: %v", err)
	}
}

// TestSnapshotRejectsSeparatorInKey: a snapshot record whose machine,
// workload or engine contains the ID separator '|' is skipped at load,
// so it is never served, and Save (the checkpoint) handles the store
// without panicking.
func TestSnapshotRejectsSeparatorInKey(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.json")
	s, err := Open(Config{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	good := KeyFor(testMachine(t), testWorkload(t, "505.mcf_r"), testOpts)
	s.Put(good, &machine.RawCounts{Instructions: 7})
	if err := s.Save(); err != nil {
		t.Fatal(err)
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := []snapshotKey{good.named(), good.named(), good.named()}
	bad[0].Workload = "x||"
	bad[1].Machine = "a|b"
	bad[2].Engine = "e|"
	data := mutateSnapshot(t, valid, func(m map[string]any) {
		entries := m["entries"].([]any)
		for _, k := range bad {
			e := map[string]any{"key": k, "counts": entries[0].(map[string]any)["counts"]}
			entries = append(entries, e)
		}
		m["entries"] = entries
	})
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	st, err := Open(Config{Path: path})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if st.Len() != 1 {
		t.Errorf("loaded %d records, want 1 (the bad ones skipped)", st.Len())
	}
	for _, k := range bad {
		if _, ok := st.Get(k.key()); ok {
			t.Errorf("record with key %+v served", k)
		}
	}
	if err := st.Save(); err != nil {
		t.Fatalf("Save: %v", err)
	}
	var keys []Key
	for k := range st.single.recs {
		keys = append(keys, k)
	}
	if len(keys) != 1 || keys[0] != good {
		t.Errorf("resident keys %+v, want only %+v", keys, good)
	}
	reloaded, err := Open(Config{Path: path})
	if err != nil || reloaded.Len() != 1 {
		t.Errorf("reloading the saved snapshot: %d records, %v; want 1, nil", reloaded.Len(), err)
	}
	if rc, ok := reloaded.Get(good); !ok || rc.Instructions != 7 {
		t.Errorf("good record after save and reload = %+v, %v", rc, ok)
	}
}

func mutateSnapshot(t *testing.T, data []byte, mutate func(map[string]any)) []byte {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	mutate(m)
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSaveIsAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.json")
	s, err := Open(Config{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	m := testMachine(t)
	w := testWorkload(t, "505.mcf_r")
	if _, err := s.GetOrCompute(context.Background(), KeyFor(m, w, testOpts), func(context.Context) (*machine.RawCounts, error) {
		return m.Run(w, testOpts)
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(); err != nil { // second save overwrites atomically
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".spec17-store-") {
			t.Errorf("temp file %s left behind", e.Name())
		}
	}
	if s.Stats().Persisted != 2 {
		t.Errorf("persisted = %d, want 2 (1 record x 2 saves)", s.Stats().Persisted)
	}
}

// TestConcurrentAccess hammers Get/Put/GetOrCompute/Save from many
// goroutines; run under -race (the Makefile includes this package in
// RACE_PKGS).
func TestConcurrentAccess(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.json")
	s, err := Open(Config{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	m := testMachine(t)
	names := []string{"505.mcf_r", "541.leela_r", "525.x264_r", "549.fotonik3d_r"}

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		for _, name := range names {
			w := testWorkload(t, name)
			key := KeyFor(m, w, testOpts)
			wg.Add(3)
			go func() {
				defer wg.Done()
				if _, err := s.GetOrCompute(context.Background(), key, func(context.Context) (*machine.RawCounts, error) {
					return m.Run(w, testOpts)
				}); err != nil {
					t.Error(err)
				}
			}()
			go func() {
				defer wg.Done()
				s.Get(key)
				s.Len()
				s.Stats()
			}()
			go func() {
				defer wg.Done()
				if err := s.Save(); err != nil {
					t.Error(err)
				}
			}()
		}
	}
	wg.Wait()
	if s.Len() != len(names) {
		t.Errorf("entries = %d, want %d", s.Len(), len(names))
	}
	if n := s.Stats().Misses; n != int64(len(names)) {
		t.Errorf("misses = %d, want %d (one compute per key)", n, len(names))
	}
}

// TestGetOrComputeCancellation covers the context protocol: a canceled
// caller returns promptly, the last departing caller cancels the
// compute context, and a later live caller recomputes successfully.
func TestGetOrComputeCancellation(t *testing.T) {
	s, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	m := testMachine(t)
	w := testWorkload(t, "505.mcf_r")
	key := KeyFor(m, w, testOpts)

	started := make(chan struct{})
	computeCanceled := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := s.GetOrCompute(ctx, key, func(fctx context.Context) (*machine.RawCounts, error) {
			close(started)
			<-fctx.Done()
			close(computeCanceled)
			return nil, fctx.Err()
		})
		done <- err
	}()
	<-started
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("caller error = %v, want context.Canceled", err)
	}
	<-computeCanceled

	// The canceled flight left nothing behind; a live caller computes.
	rc, err := s.GetOrCompute(context.Background(), key, func(context.Context) (*machine.RawCounts, error) {
		return m.Run(w, testOpts)
	})
	if err != nil || rc == nil {
		t.Fatalf("compute after canceled flight: %v", err)
	}
}

// TestJoinCountsOneHit: of two concurrent GetOrCompute calls on one
// key, the one that joins the other's computation counts one hit, and
// when traced records a store.get span covering its wait.
func TestJoinCountsOneHit(t *testing.T) {
	s, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	m := testMachine(t)
	w := testWorkload(t, "505.mcf_r")
	key := KeyFor(m, w, testOpts)

	started, release := make(chan struct{}), make(chan struct{})
	led := make(chan error, 1)
	go func() {
		_, err := s.GetOrCompute(context.Background(), key, func(context.Context) (*machine.RawCounts, error) {
			close(started)
			<-release
			return m.Run(w, testOpts)
		})
		led <- err
	}()
	<-started
	tracer := telemetry.NewTracer(telemetry.TracerConfig{})
	tctx, root := tracer.StartTrace(context.Background(), "root", "")
	joined := make(chan error, 1)
	go func() {
		_, err := s.GetOrCompute(tctx, key, func(context.Context) (*machine.RawCounts, error) {
			t.Error("joiner computed")
			return nil, nil
		})
		joined <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for s.single.flights.Waiting(key) != 1 {
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for the second caller to join")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	for _, c := range []chan error{led, joined} {
		if err := <-c; err != nil {
			t.Fatal(err)
		}
	}
	root.End()

	if st := s.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("hits, misses = %d, %d; want 1, 1", st.Hits, st.Misses)
	}
	traces := tracer.Traces(telemetry.Filter{})
	if len(traces) != 1 || len(traces[0].Root.Children) != 1 || traces[0].Root.Children[0].Name != "store.get" {
		t.Fatalf("traced join did not record one store.get span: %+v", traces)
	}
}

// TestComputeErrorNotCached checks that a failed computation is not
// stored: the next caller retries.
func TestComputeErrorNotCached(t *testing.T) {
	s, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	m := testMachine(t)
	w := testWorkload(t, "505.mcf_r")
	key := KeyFor(m, w, testOpts)

	boom := fmt.Errorf("boom")
	if _, err := s.GetOrCompute(context.Background(), key, func(context.Context) (*machine.RawCounts, error) {
		return nil, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("error = %v, want boom", err)
	}
	if s.Len() != 0 {
		t.Fatal("failed computation was stored")
	}
	rc, err := s.GetOrCompute(context.Background(), key, func(context.Context) (*machine.RawCounts, error) {
		return m.Run(w, testOpts)
	})
	if err != nil || rc == nil {
		t.Fatalf("retry after failed computation: %v", err)
	}
}

// TestLookup: a hit is served and counted exactly once (with a
// store.get span when traced), a miss counts nothing, and the untraced
// hit path does not allocate.
func TestLookup(t *testing.T) {
	s, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	m := testMachine(t)
	w := testWorkload(t, "505.mcf_r")
	key := KeyFor(m, w, testOpts)
	ctx := context.Background()

	if _, ok := s.Lookup(ctx, key); ok {
		t.Fatal("lookup hit on an empty store")
	}
	if st := s.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("misses counted: hits=%d misses=%d, want 0 and 0", st.Hits, st.Misses)
	}

	rc := &machine.RawCounts{Instructions: 42}
	s.Put(key, rc)
	if got, ok := s.Lookup(ctx, key); !ok || got != rc {
		t.Fatalf("lookup = %p, %v; want the stored record", got, ok)
	}
	if st := s.Stats(); st.Hits != 1 || st.Misses != 0 {
		t.Fatalf("after one hit: hits=%d misses=%d, want 1 and 0", st.Hits, st.Misses)
	}
	tracer := telemetry.NewTracer(telemetry.TracerConfig{})
	tctx, root := tracer.StartTrace(ctx, "root", "")
	if _, ok := s.Lookup(tctx, key); !ok {
		t.Fatal("traced lookup missed")
	}
	root.End()
	traces := tracer.Traces(telemetry.Filter{})
	if len(traces) != 1 || len(traces[0].Root.Children) != 1 || traces[0].Root.Children[0].Name != "store.get" {
		t.Fatalf("traced hit did not record one store.get span: %+v", traces)
	}

	allocs := testing.AllocsPerRun(1000, func() {
		if _, ok := s.Lookup(ctx, key); !ok {
			panic("warm lookup missed")
		}
	})
	if allocs != 0 {
		t.Errorf("untraced lookup hit allocates %.1f objects/op, want 0", allocs)
	}
}

// registryWorkloads is every characterized workload, as
// experiments.Entries lists them: each profile's primary input, plus
// each input set of a multi-input profile.
func registryWorkloads() []machine.Workload {
	var ws []machine.Workload
	for _, p := range workloads.All() {
		ws = append(ws, p.Workload())
		for i := 1; p.InputSets > 1 && i <= p.InputSets; i++ {
			ws = append(ws, p.WorkloadInput(i))
		}
	}
	return ws
}

// testFleet is a freshly built machine.Fleet.
func testFleet(t testing.TB) []*machine.Machine {
	t.Helper()
	fleet, err := machine.Fleet()
	if err != nil {
		t.Fatal(err)
	}
	return fleet
}

// TestKeyForEngineMatchesReference: KeyForEngine's key equals a
// reference built field by field with the content hash the store has
// always used, on every registry workload (input sets included) on
// every fleet machine, for both engine tiers, whether the pair's hash
// is computed or read back from the memo. So content hashes, and the
// snapshots keyed by them, never change.
func TestKeyForEngineMatchesReference(t *testing.T) {
	fleet := testFleet(t)
	opts := machine.RunOptions{Instructions: 20_000, WarmupInstructions: 4_000, Parallelism: 3}
	for _, tier := range []string{"exact", "analytic"} {
		engine := tier
		if tier == "exact" {
			engine = ""
		}
		for _, w := range registryWorkloads() {
			for _, m := range fleet {
				want := snapshotKey{
					Machine:      m.Name(),
					Workload:     w.Key,
					Instructions: 20_000,
					Warmup:       4_000,
					Engine:       engine,
					Content:      referenceContentHash(t, m.Config(), w),
				}
				for pass := 0; pass < 2; pass++ {
					if got := KeyForEngine(m, w, opts, tier); got.named() != want || got != want.key() {
						t.Fatalf("%s: %s on %s, pass %d: KeyForEngine %+v, want %+v", tier, w.Key, m.Name(), pass, got, want)
					}
				}
			}
		}
	}
	// The hash itself is pinned, not only its agreement with the reference.
	if got := KeyFor(testMachine(t), testWorkload(t, "505.mcf_r"), testOpts).pair.Content(); got != "c713162b4a1f3ab3d82cf71d35bec096" {
		t.Errorf("content hash = %s, want the pinned c713162b4a1f3ab3d82cf71d35bec096", got)
	}
}

// TestContentBoundToBytes: the content hash follows the bytes it
// binds, not the names. Changing one spec field or the ILP under an
// unchanged Workload.Key, or one configuration field under an
// unchanged machine name, changes Content to the reference hash of
// the new bytes, while the memo still answers the original pair.
func TestContentBoundToBytes(t *testing.T) {
	m := testMachine(t)
	w := testWorkload(t, "505.mcf_r")
	base := KeyFor(m, w, testOpts).pair.Content()

	spec, ilp := w, w
	spec.Spec.LoadFrac += 0.01
	ilp.ILP += 0.1
	cfg := machine.SkylakeConfig()
	cfg.FreqGHz += 0.1
	faster, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		m    *machine.Machine
		w    machine.Workload
	}{
		{"spec field", m, spec},
		{"ILP", m, ilp},
		{"machine config field", faster, w},
	} {
		k := KeyFor(c.m, c.w, testOpts)
		if k.Machine() != m.Name() || k.Workload() != w.Key {
			t.Fatalf("%s: key names %s|%s, want %s|%s", c.name, k.Machine(), k.Workload(), m.Name(), w.Key)
		}
		if k.pair.Content() == base {
			t.Errorf("%s changed but Content stayed %s", c.name, base)
		}
		if want := referenceContentHash(t, c.m.Config(), c.w); k.pair.Content() != want {
			t.Errorf("%s: Content %s, want the reference %s", c.name, k.pair.Content(), want)
		}
	}
	if got := KeyFor(m, w, testOpts).pair.Content(); got != base {
		t.Errorf("original pair now hashes %s, want %s", got, base)
	}
}

// TestKeysShareAcrossFleets: keys depend on values, not on which
// Machine or Workload instance was passed. Two separate Fleet() calls
// and separately built equal workloads key identically, through one
// pair, so a client's own fleet (specbench's, say) finds the records a
// server's fleet stored.
func TestKeysShareAcrossFleets(t *testing.T) {
	s, _ := Open(Config{})
	ctx := context.Background()
	serverFleet, clientFleet := testFleet(t), testFleet(t)
	serverWs, clientWs := registryWorkloads(), registryWorkloads()
	for _, w := range serverWs {
		for _, m := range serverFleet {
			s.Put(KeyForEngine(m, w, testOpts, "analytic"), &machine.RawCounts{})
		}
	}
	for i, w := range clientWs {
		for j, m := range clientFleet {
			k := KeyForEngine(m, w, testOpts, "analytic")
			sk := KeyForEngine(serverFleet[j], serverWs[i], testOpts, "analytic")
			if k != sk {
				t.Fatalf("%s on %s: client key %+v does not share the server's %+v", w.Key, m.Name(), k, sk)
			}
			want, _ := s.Lookup(ctx, sk)
			if rc, ok := s.Lookup(ctx, k); !ok || rc != want {
				t.Fatalf("%s on %s: client key missed the server's record", w.Key, m.Name())
			}
		}
	}
}

// TestKeyWarmGridAllocs: keying pairs already keyed allocates nothing.
func TestKeyWarmGridAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	fleet, ws := testFleet(t), registryWorkloads()
	keyAll := func() {
		for _, w := range ws {
			for _, m := range fleet {
				KeyForEngine(m, w, testOpts, "analytic")
			}
		}
	}
	keyAll()
	if allocs := testing.AllocsPerRun(10, keyAll); allocs != 0 {
		t.Errorf("keying a warm %d-pair grid allocates %.1f objects, want 0", len(ws)*len(fleet), allocs)
	}
}

// BenchmarkKeyFleet keys every registry workload on every fleet
// machine through KeyForEngine, as a cold analytic characterization
// does, with every pair already interned, as on every request after a
// process's first. machine's BenchmarkPairFleet measures the first.
func BenchmarkKeyFleet(b *testing.B) {
	fleet, ws := testFleet(b), registryWorkloads()
	opts := machine.RunOptions{Instructions: 20_000}
	keyAll := func() {
		for _, w := range ws {
			for _, m := range fleet {
				KeyForEngine(m, w, opts, "analytic")
			}
		}
	}
	b.Run("memo-warm", func(b *testing.B) {
		keyAll()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			keyAll()
		}
	})
}

// referenceContentHash is the content hash as the store first defined
// it: one json.Encoder writing the configuration and then the workload
// into a SHA-256, cut to 32 hex digits.
func referenceContentHash(t *testing.T, cfg machine.Config, w machine.Workload) string {
	t.Helper()
	h := sha256.New()
	enc := json.NewEncoder(h)
	if err := enc.Encode(cfg); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(w); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))[:32]
}
