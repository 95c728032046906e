package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/store"
	"repro/internal/telemetry"
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

// joinCounter is a context counting the calls to its Done method. A
// characterization whose every pair another one is already measuring
// calls Done only to wait on those measurements' store flights, once
// per join, so the count is how many it has joined.
type joinCounter struct {
	context.Context
	n atomic.Int64
}

func (c *joinCounter) Done() <-chan struct{} {
	c.n.Add(1)
	return c.Context.Done()
}

// holdWorker occupies the only worker of p until the returned release
// is called, which waits for the worker to be free again.
func holdWorker(t *testing.T, p *sched.Pool) (release func()) {
	t.Helper()
	gate, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		p.Queue(0).Do(context.Background(), "blocker", func(context.Context) error {
			<-gate
			return nil
		})
	}()
	waitForPool(t, p, func(s sched.Stats) bool { return s.Inflight == 1 })
	return func() {
		close(gate)
		<-done
	}
}

type charResult struct {
	c   *Characterization
	err error
}

// TestCharacterizeScheduledSharesMeasurements is the batch-overlap
// invariant end to end: two characterizations of the same entries
// through one shared scheduler perform each simulation exactly once,
// and the second joins the first's store flights without taking a
// queue slot. The pool's only worker is held until every join has
// happened, so the sharing cannot be timing luck.
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
	release := holdWorker(t, pool)

	results := make(chan charResult, 2)
	characterize := func(ctx context.Context) {
		go func() {
			c, err := CharacterizeWith(ctx, entries, machines, opts, st, pool.Queue(0), nil)
			results <- charResult{c, err}
		}()
	}
	characterize(context.Background())
	waitForPool(t, pool, func(s sched.Stats) bool { return s.Depth == pairs })
	joiner := &joinCounter{Context: context.Background()}
	characterize(joiner)
	waitUntil(t, "second characterization to join", func() bool { return joiner.n.Load() == int64(pairs) })
	if d := pool.Stats().Depth; d != pairs {
		t.Errorf("queue depth = %d after the joins, want %d (a joiner takes no slot)", d, pairs)
	}
	release()

	for i := 0; i < 2; i++ {
		r := <-results
		if r.err != nil {
			t.Fatal(r.err)
		}
		if len(r.c.Labels) != len(entries) {
			t.Fatalf("characterization has %d labels, want %d", len(r.c.Labels), len(entries))
		}
	}
	// Every pair simulated once, and every join counted as a hit.
	if s := st.Stats(); s.Misses != int64(pairs) || s.Hits != int64(pairs) {
		t.Errorf("store misses, hits = %d, %d; want %d, %d", s.Misses, s.Hits, pairs, pairs)
	}
	if started := pool.Stats().Started; started != int64(pairs)+1 {
		t.Errorf("jobs started = %d, want %d (the blocker and one per pair)", started, pairs+1)
	}
}

// TestCharacterizeSurvivesCanceledOverlap: when the first of two
// overlapping characterizations is canceled while its measurements
// still wait for the pool, the second, which joined their store
// flights, measures them itself and returns the unscheduled result.
func TestCharacterizeSurvivesCanceledOverlap(t *testing.T) {
	entries := schedEntries(t, "505.mcf_r", "541.leela_r")
	machines := testMachines(t)[:2]
	opts := machine.RunOptions{Instructions: 2_000}
	pairs := len(entries) * len(machines)

	want, err := CharacterizeWith(context.Background(), entries, machines, opts, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	pool := sched.NewPool(1, nil)
	release := holdWorker(t, pool)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	first := make(chan error, 1)
	go func() {
		_, err := CharacterizeWith(ctx, entries, machines, opts, st, pool.Queue(0), nil)
		first <- err
	}()
	waitForPool(t, pool, func(s sched.Stats) bool { return s.Depth == pairs })
	joiner := &joinCounter{Context: context.Background()}
	second := make(chan charResult, 1)
	go func() {
		c, err := CharacterizeWith(joiner, entries, machines, opts, st, pool.Queue(0), nil)
		second <- charResult{c, err}
	}()
	waitUntil(t, "second characterization to join", func() bool { return joiner.n.Load() == int64(pairs) })

	cancel()
	if err := <-first; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled characterization err = %v, want context.Canceled", err)
	}
	release()
	r := <-second
	if r.err != nil {
		t.Fatalf("surviving characterization: %v", r.err)
	}
	if !reflect.DeepEqual(r.c, want) {
		t.Error("surviving characterization differs from the unscheduled one")
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
	defer holdWorker(t, pool)()

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
	waitUntil(t, "pool condition", func() bool { return cond(p.Stats()) })
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
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

func (r *countingRunner) Do(ctx context.Context, label string, fn func(context.Context) error) error {
	r.n.Add(1)
	return r.Runner.Do(ctx, label, fn)
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

// labelRunner records the label of each job it forwards.
type labelRunner struct {
	Runner
	mu     sync.Mutex
	labels []string
}

func (r *labelRunner) Do(ctx context.Context, label string, fn func(context.Context) error) error {
	r.mu.Lock()
	r.labels = append(r.labels, label)
	r.mu.Unlock()
	return r.Runner.Do(ctx, label, fn)
}

// TestRunLabelOnlyWhenTraced: an exact miss's Runner job is labelled
// with its key's ID on a traced characterization only; an untraced one
// passes an empty label and builds no string.
func TestRunLabelOnlyWhenTraced(t *testing.T) {
	entries := schedEntries(t, "505.mcf_r")
	machines := testMachines(t)[:1]
	opts := machine.RunOptions{Instructions: 2_000}
	key := store.KeyForEngine(machines[0], entries[0].Workload, opts, string(engine.TierExact))
	tr := telemetry.NewTracer(telemetry.TracerConfig{})
	traced, root := tr.StartTrace(context.Background(), "test", "")
	defer root.End()
	for _, tc := range []struct {
		name string
		ctx  context.Context
		want string
	}{
		{"untraced", context.Background(), ""},
		{"traced", traced, key.ID()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := &labelRunner{Runner: sched.NewPool(1, nil).Queue(0)}
			if _, err := CharacterizeWith(tc.ctx, entries, machines, opts, nil, r, nil); err != nil {
				t.Fatal(err)
			}
			if len(r.labels) != 1 || r.labels[0] != tc.want {
				t.Errorf("labels = %q, want [%q] (one job for the one miss)", r.labels, tc.want)
			}
		})
	}
}

// peakEngine is the analytic engine recording the most measurements it
// ever ran at once. Each measurement sleeps briefly, so concurrent
// callers overlap even on one CPU.
type peakEngine struct {
	engine.Analytic
	mu        sync.Mutex
	cur, peak int
}

func (e *peakEngine) Measure(ctx context.Context, m *machine.Machine, w machine.Workload, opts machine.RunOptions) (*machine.RawCounts, error) {
	e.mu.Lock()
	e.cur++
	e.peak = max(e.peak, e.cur)
	e.mu.Unlock()
	defer func() {
		e.mu.Lock()
		e.cur--
		e.mu.Unlock()
	}()
	time.Sleep(2 * time.Millisecond)
	return e.Analytic.Measure(ctx, m, w, opts)
}

// TestParallelismBoundsEstimates: an analytic characterization
// estimates on opts.Parallelism goroutines of its own, at most that
// many at once, and starts no scheduler job.
func TestParallelismBoundsEstimates(t *testing.T) {
	entries := schedEntries(t, "505.mcf_r", "541.leela_r", "525.x264_r", "508.namd_r")
	machines := testMachines(t)
	for _, par := range []int{1, 2} {
		eng := &peakEngine{}
		pool := sched.NewPool(1, nil)
		opts := machine.RunOptions{Instructions: 2_000, Parallelism: par}
		if _, err := CharacterizeWith(context.Background(), entries, machines, opts, nil, pool.Queue(0), eng); err != nil {
			t.Fatal(err)
		}
		if eng.peak != par {
			t.Errorf("parallelism %d: at most %d measurements ran at once, want %d", par, eng.peak, par)
		}
		if started := pool.Stats().Started; started != 0 {
			t.Errorf("parallelism %d: %d scheduler jobs started, want 0", par, started)
		}
	}
}

// errInjected is the failure faultEngine injects.
var errInjected = errors.New("injected failure")

// faultEngine wraps a tier's engine. It counts the measurements in
// progress, fails every measurement of the workloads in fail with an
// error naming the workload, and calls cancel as its cancelAt-th
// measurement starts.
type faultEngine struct {
	engine.Engine
	fail     map[string]bool
	cancelAt int64
	cancel   context.CancelFunc
	started  atomic.Int64
	active   atomic.Int64
}

func (e *faultEngine) Measure(ctx context.Context, m *machine.Machine, w machine.Workload, opts machine.RunOptions) (*machine.RawCounts, error) {
	e.active.Add(1)
	defer e.active.Add(-1)
	if e.started.Add(1) == e.cancelAt {
		e.cancel()
	}
	if e.fail[w.Key] {
		return nil, fmt.Errorf("%s: %w", w.Key, errInjected)
	}
	return e.Engine.Measure(ctx, m, w, opts)
}

// TestCharacterizeWithLeavesNoGoroutines: on both tiers, after a
// success, a failing measurement and a cancellation mid-grid,
// CharacterizeWith returns with no measurement in progress and the
// goroutine count back at its baseline. The failure reported is the
// first failed pair in grid order.
func TestCharacterizeWithLeavesNoGoroutines(t *testing.T) {
	entries := schedEntries(t, "505.mcf_r", "541.leela_r", "525.x264_r", "508.namd_r")
	machines := testMachines(t)
	for _, inner := range []engine.Engine{engine.Exact{}, engine.Analytic{}} {
		for _, tc := range []struct {
			name     string
			fail     []Entry
			cancelAt int64
			want     error
		}{
			{name: "success"},
			{name: "failure", fail: []Entry{entries[3], entries[1]}, want: errInjected},
			{name: "cancel", cancelAt: 3, want: context.Canceled},
		} {
			t.Run(string(inner.Tier())+"/"+tc.name, func(t *testing.T) {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				eng := &faultEngine{Engine: inner, fail: make(map[string]bool), cancelAt: tc.cancelAt, cancel: cancel}
				for _, e := range tc.fail {
					eng.fail[e.Workload.Key] = true
				}
				baseline := runtime.NumGoroutine()
				opts := machine.RunOptions{Instructions: 2_000, Parallelism: 2}
				_, err := CharacterizeWith(ctx, entries, machines, opts, nil, nil, eng)
				if n := eng.active.Load(); n != 0 {
					t.Errorf("%d measurements still running after the call returned", n)
				}
				if !errors.Is(err, tc.want) {
					t.Fatalf("err = %v, want %v", err, tc.want)
				}
				if tc.fail != nil && !strings.Contains(err.Error(), entries[1].Label+" on "+machines[0].Name()) {
					t.Errorf("err = %v, want the first failed pair in grid order (%s on %s)", err, entries[1].Label, machines[0].Name())
				}
				// A goroutine past its last statement may still be
				// counted for an instant.
				waitUntil(t, "goroutines to exit", func() bool { return runtime.NumGoroutine() <= baseline })
			})
		}
	}
}
