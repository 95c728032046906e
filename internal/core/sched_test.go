package core

import (
	"context"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/store"
	"repro/internal/workloads"
)

// schedEntries returns a small entry list for scheduler tests.
func schedEntries(t *testing.T, names ...string) []Entry {
	t.Helper()
	var entries []Entry
	for _, name := range names {
		p, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, Entry{Label: p.Name, Workload: p.Workload()})
	}
	return entries
}

// TestCharacterizeScheduledMatchesUnscheduled: the scheduler changes
// when and where measurements run, never what they produce.
func TestCharacterizeScheduledMatchesUnscheduled(t *testing.T) {
	entries := schedEntries(t, "505.mcf_r", "541.leela_r")
	machines := testMachines(t)[:2]
	opts := machine.RunOptions{Instructions: 2_000}

	want, err := CharacterizeWith(context.Background(), entries, machines, opts, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	pool := sched.NewPool(2, nil)
	got, err := CharacterizeWith(context.Background(), entries, machines, opts, nil, pool.Queue(0), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, label := range want.Labels {
		for _, m := range want.MachineNames {
			wrc, err := want.Raw(label, m)
			if err != nil {
				t.Fatal(err)
			}
			grc, err := got.Raw(label, m)
			if err != nil {
				t.Fatalf("scheduled characterization missing %s on %s: %v", label, m, err)
			}
			if *wrc != *grc {
				t.Errorf("%s on %s: scheduled and unscheduled raw counts differ", label, m)
			}
		}
	}
}

// TestCharacterizeScheduledSharesMeasurements is the batch-overlap
// invariant end to end: two characterizations of the same entries
// submitted through one shared scheduler perform each simulation
// exactly once. The pool's only worker is held by a blocker job until
// the second characterization has joined every one of the first's
// pending jobs, so the dedup cannot be timing luck.
func TestCharacterizeScheduledSharesMeasurements(t *testing.T) {
	entries := schedEntries(t, "505.mcf_r", "541.leela_r")
	machines := testMachines(t)[:2]
	opts := machine.RunOptions{Instructions: 2_000}
	pairs := len(entries) * len(machines)

	st, err := store.Open(store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	pool := sched.NewPool(1, nil)

	// Hold the single worker so every measurement of both
	// characterizations is still pending when the overlap happens.
	release := make(chan struct{})
	blockerDone := make(chan struct{})
	go func() {
		defer close(blockerDone)
		pool.Queue(0).Do(context.Background(), "blocker", func(context.Context) (any, error) {
			<-release
			return nil, nil
		})
	}()
	waitForPool(t, pool, func(s sched.Stats) bool { return s.Inflight == 1 })

	type result struct {
		c   *Characterization
		err error
	}
	results := make(chan result, 2)
	for i := 0; i < 2; i++ {
		go func() {
			c, err := CharacterizeWith(context.Background(), entries, machines, opts, st, pool.Queue(0), nil)
			results <- result{c, err}
		}()
	}
	// Both characterizations have fanned out: pairs jobs queued, and
	// the latecomer joined every one of them.
	waitForPool(t, pool, func(s sched.Stats) bool {
		return s.Depth == pairs && s.DedupHits >= int64(pairs)
	})
	close(release)
	<-blockerDone

	for i := 0; i < 2; i++ {
		r := <-results
		if r.err != nil {
			t.Fatal(r.err)
		}
		if len(r.c.Labels) != len(entries) {
			t.Fatalf("characterization has %d labels, want %d", len(r.c.Labels), len(entries))
		}
	}
	// Every pair simulated once: the store led exactly `pairs`
	// computations, and the scheduler deduplicated the rest.
	if misses := st.Stats().Misses; misses != int64(pairs) {
		t.Errorf("simulations = %d, want %d (overlapping characterizations must share)", misses, pairs)
	}
	if hits := pool.Stats().DedupHits; hits < int64(pairs) {
		t.Errorf("sched dedup hits = %d, want >= %d", hits, pairs)
	}
}

// TestCharacterizeScheduledCancellation: canceling the caller's
// context abandons the characterization promptly and reports the
// context error.
func TestCharacterizeScheduledCancellation(t *testing.T) {
	entries := schedEntries(t, "505.mcf_r", "541.leela_r")
	machines := testMachines(t)[:2]
	pool := sched.NewPool(1, nil)

	// Hold the worker so nothing can finish, then cancel.
	release := make(chan struct{})
	defer close(release)
	go pool.Queue(0).Do(context.Background(), "blocker", func(context.Context) (any, error) {
		<-release
		return nil, nil
	})
	waitForPool(t, pool, func(s sched.Stats) bool { return s.Inflight == 1 })

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := CharacterizeWith(ctx, entries, machines, machine.RunOptions{Instructions: 2_000}, nil, pool.Queue(0), nil)
		done <- err
	}()
	waitForPool(t, pool, func(s sched.Stats) bool { return s.Depth > 0 })
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("canceled characterization did not return")
	}
	// The abandoned jobs were dropped from the queue.
	waitForPool(t, pool, func(s sched.Stats) bool { return s.Depth == 0 })
}

func waitForPool(t *testing.T, p *sched.Pool, cond func(sched.Stats) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond(p.Stats()) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for pool condition; stats %+v", p.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCharacterizeWithServesStoreHitsInline: with a store and a
// scheduler, pairs already in the store never become scheduler jobs.
// Over a fully warm store no job starts and every leaf is one hit;
// over a half-warm store exactly the misses start. Both results equal
// the store-less characterization.
func TestCharacterizeWithServesStoreHitsInline(t *testing.T) {
	entries := schedEntries(t, "505.mcf_r", "541.leela_r", "525.x264_r", "508.namd_r")
	machines := testMachines(t)[:2]
	opts := machine.RunOptions{Instructions: 2_000}
	leaves := int64(len(entries) * len(machines))
	ctx := context.Background()

	want, err := CharacterizeWith(ctx, entries, machines, opts, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		warm []Entry // entries whose pairs are stored beforehand
	}{
		{"fully warm", entries},
		{"half warm", entries[:2]},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, err := store.Open(store.Config{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := CharacterizeWith(ctx, tc.warm, machines, opts, st, nil, nil); err != nil {
				t.Fatal(err)
			}
			misses := leaves - int64(len(tc.warm)*len(machines))
			pool := sched.NewPool(2, nil)
			before := st.Stats()

			got, err := CharacterizeWith(ctx, entries, machines, opts, st, pool.Queue(0), nil)
			if err != nil {
				t.Fatal(err)
			}
			if started := pool.Stats().Started; started != misses {
				t.Errorf("scheduler jobs started = %d, want %d (one per miss)", started, misses)
			}
			if hits := st.Stats().Hits - before.Hits; hits != leaves-misses {
				t.Errorf("store hits = %d, want %d", hits, leaves-misses)
			}
			if !reflect.DeepEqual(got, want) {
				t.Error("characterization differs from the store-less one")
			}
		})
	}
}

// countingRunner counts the submissions it forwards.
type countingRunner struct {
	Runner
	n atomic.Int64
}

func (r *countingRunner) Do(ctx context.Context, key string, fn func(context.Context) (any, error)) (any, error) {
	r.n.Add(1)
	return r.Runner.Do(ctx, key, fn)
}

// TestCharacterizeWithPreCanceled: a context canceled before the call
// returns its error without a single store lookup or scheduler
// submission.
func TestCharacterizeWithPreCanceled(t *testing.T) {
	entries := schedEntries(t, "505.mcf_r", "541.leela_r")
	machines := testMachines(t)[:2]
	opts := machine.RunOptions{Instructions: 2_000}
	st, err := store.Open(store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Store the first entry's pairs, so a lookup would count a hit.
	if _, err := CharacterizeWith(context.Background(), entries[:1], machines, opts, st, nil, nil); err != nil {
		t.Fatal(err)
	}
	before := st.Stats()
	r := &countingRunner{Runner: sched.NewPool(2, nil).Queue(0)}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := CharacterizeWith(ctx, entries, machines, opts, st, r, nil); err != context.Canceled {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if after := st.Stats(); after.Hits != before.Hits || after.Misses != before.Misses {
		t.Errorf("store traffic after a pre-canceled call: %+v, want %+v", after, before)
	}
	if n := r.n.Load(); n != 0 {
		t.Errorf("scheduler submissions = %d, want 0", n)
	}
}
