package experiments

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/store"
)

// gatedEngine is the analytic engine with every measurement held until
// gate closes; a measurement whose context ends first fails with the
// context's error.
type gatedEngine struct {
	engine.Analytic
	gate <-chan struct{}
}

func (g gatedEngine) Measure(ctx context.Context, m *machine.Machine, w machine.Workload, opts machine.RunOptions) (*machine.RawCounts, error) {
	select {
	case <-g.gate:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return g.Analytic.Measure(ctx, m, w, opts)
}

// TestLabBuildSurvivesLeaderCancel: when the caller that started the
// fleet build leaves while another caller still waits, the build keeps
// running for the one that waits. The waiter gets the characterization
// and nothing is simulated twice: store misses equal the distinct keys.
func TestLabBuildSurvivesLeaderCancel(t *testing.T) {
	st, err := store.Open(store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	lab := NewLabWithEngine(machine.RunOptions{}, st, sched.NewPool(2, nil).Queue(0), gatedEngine{gate: gate})
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(time.Millisecond)
		}
	}

	lctx, lcancel := context.WithCancel(context.Background())
	defer lcancel()
	lerr := make(chan error, 1)
	go func() {
		_, err := lab.WithContext(lctx).Characterization()
		lerr <- err
	}()
	// The leader's build is running once its first measurement waits
	// at the gate.
	waitFor("leader's build to start", func() bool { return st.Stats().Misses > 0 })

	type result struct {
		c   *core.Characterization
		err error
	}
	wres := make(chan result, 1)
	go func() {
		c, err := lab.Characterization()
		wres <- result{c, err}
	}()
	waitFor("waiter to join", func() bool { return lab.state.build.Waiting("") == 1 })

	lcancel()
	if err := <-lerr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader error = %v, want context.Canceled", err)
	}
	close(gate)
	r := <-wres
	if r.err != nil {
		t.Fatalf("waiter error = %v, want the characterization", r.err)
	}

	fleet, err := machine.Fleet()
	if err != nil {
		t.Fatal(err)
	}
	keys := make(map[string]bool)
	for _, e := range Entries() {
		for _, m := range fleet {
			keys[store.KeyForEngine(m, e.Workload, machine.RunOptions{}, string(engine.TierAnalytic)).ID()] = true
		}
	}
	if misses := st.Stats().Misses; misses != int64(len(keys)) {
		t.Errorf("store misses = %d, want %d (one per distinct key)", misses, len(keys))
	}
	want, err := NewLabWithEngine(machine.RunOptions{}, nil, nil, engine.Analytic{}).Characterization()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.c, want) {
		t.Error("waiter's characterization differs from an uninterrupted build")
	}
}

// TestExactGridRepeatsMeasuredOnce: Entries repeats workloads (a
// multi-input benchmark's primary input is its input set 1), and an
// exact characterization measures each repeated key once. The store's
// flight is the one dedup: a repeat joins the key's measurement or
// hits its record, so misses and scheduler jobs equal the distinct
// keys and every other leaf is a hit, with one worker or two.
func TestExactGridRepeatsMeasuredOnce(t *testing.T) {
	fleet, err := machine.Fleet()
	if err != nil {
		t.Fatal(err)
	}
	machines := fleet[:2]
	opts := machine.RunOptions{Instructions: 2_000}
	entries := Entries()
	leaves := int64(len(entries) * len(machines))
	keys := make(map[store.Key]bool)
	for _, e := range entries {
		for _, m := range machines {
			keys[store.KeyForEngine(m, e.Workload, opts, string(engine.TierExact))] = true
		}
	}
	distinct := int64(len(keys))
	if distinct == leaves {
		t.Fatal("Entries repeats no workload; the test needs a repeated key")
	}
	var want *core.Characterization
	for _, workers := range []int{1, 2} {
		st, err := store.Open(store.Config{})
		if err != nil {
			t.Fatal(err)
		}
		pool := sched.NewPool(workers, nil)
		got, err := core.CharacterizeWith(context.Background(), entries, machines, opts, st, pool.Queue(0), engine.Exact{})
		if err != nil {
			t.Fatal(err)
		}
		s := st.Stats()
		if s.Misses != distinct || s.Hits != leaves-distinct {
			t.Errorf("%d workers: store misses, hits = %d, %d; want %d, %d",
				workers, s.Misses, s.Hits, distinct, leaves-distinct)
		}
		if started := pool.Stats().Started; started != distinct {
			t.Errorf("%d workers: scheduler jobs = %d, want %d (one per distinct key)", workers, started, distinct)
		}
		if want == nil {
			want = got
		} else if !reflect.DeepEqual(got, want) {
			t.Errorf("%d workers: characterization differs from the 1-worker one", workers)
		}
	}
}

// cancelFirst is a core.Runner that fails its first submission with
// context.Canceled, the way a slot wait whose callers all left does,
// and runs every later one.
type cancelFirst struct{ calls atomic.Int64 }

func (r *cancelFirst) Do(ctx context.Context, _ string, fn func(context.Context) error) error {
	if r.calls.Add(1) == 1 {
		return context.Canceled
	}
	return fn(ctx)
}

// TestLabDoesNotKeepCanceledBuild: a canceled build is about the
// callers that left, not the lab, so the next Characterization builds
// afresh instead of answering the stale cancellation until the lab is
// evicted.
func TestLabDoesNotKeepCanceledBuild(t *testing.T) {
	lab := NewLabWithEngine(machine.RunOptions{}, nil, &cancelFirst{}, engine.Analytic{})
	if _, err := lab.Characterization(); !errors.Is(err, context.Canceled) {
		t.Fatalf("first build error = %v, want context.Canceled", err)
	}
	if _, err := lab.Characterization(); err != nil {
		t.Fatalf("second build error = %v, want the characterization", err)
	}
}

// countingEngine is the analytic engine counting its measurements per
// store key, with every measurement held until gate closes.
type countingEngine struct {
	engine.Analytic
	gate <-chan struct{}
	mu   sync.Mutex
	n    map[string]int
}

func (e *countingEngine) Measure(ctx context.Context, m *machine.Machine, w machine.Workload, opts machine.RunOptions) (*machine.RawCounts, error) {
	e.mu.Lock()
	e.n[store.KeyForEngine(m, w, opts, string(engine.TierAnalytic)).ID()]++
	e.mu.Unlock()
	<-e.gate
	return e.Analytic.Measure(ctx, m, w, opts)
}

// TestAnalyticRunsComputeEachKeyOnce: the store's flights alone keep
// two concurrent characterizations of one grid, whose analytic misses
// travel in multi-measurement runs, and a RunStored of one of its
// pairs from measuring any key twice. Every run of both
// characterizations holds a worker, and the RunStored measures (a lone
// analytic estimate takes no worker), before any measurement may
// finish. Both characterizations equal an ungated one.
func TestAnalyticRunsComputeEachKeyOnce(t *testing.T) {
	fleet, err := machine.Fleet()
	if err != nil {
		t.Fatal(err)
	}
	entries, machines := Entries()[:12], fleet[:3]
	opts := machine.RunOptions{Instructions: 30_000}
	distinct := make(map[string]bool)
	for _, e := range entries {
		for _, m := range machines {
			distinct[store.KeyForEngine(m, e.Workload, opts, string(engine.TierAnalytic)).ID()] = true
		}
	}
	if len(distinct) == len(entries)*len(machines) {
		t.Fatal("test grid has no repeated key; pick entries that share a workload")
	}
	perRun := int(time.Millisecond / engine.AnalyticLeafCost) // core's run target over the leaf cost
	runs := (len(distinct) + perRun - 1) / perRun
	if runs < 2 {
		t.Fatalf("test grid makes %d run; it needs several", runs)
	}

	st, err := store.Open(store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	pool := sched.NewPool(2*runs+2, nil)
	gate := make(chan struct{})
	eng := &countingEngine{gate: gate, n: make(map[string]int)}

	type result struct {
		c   *core.Characterization
		err error
	}
	results := make(chan result, 2)
	for i := 0; i < 2; i++ {
		go func() {
			c, err := core.CharacterizeWith(context.Background(), entries, machines, opts, st, pool.Queue(0), eng)
			results <- result{c, err}
		}()
	}
	lab := NewLabWithEngine(opts, st, pool.Queue(0), eng)
	ran := make(chan error, 1)
	go func() {
		_, err := lab.RunStored(machines[1], entries[2].Workload, opts)
		ran <- err
	}()
	// The runs of the two characterizations share their first keys:
	// one of each pair measures, the other joins. The RunStored's pair
	// sits inside a run, so it leads that key.
	measuring := func() int {
		eng.mu.Lock()
		defer eng.mu.Unlock()
		return len(eng.n)
	}
	deadline := time.Now().Add(10 * time.Second)
	for pool.Stats().Inflight != 2*runs || measuring() != runs+1 {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for every run and the RunStored; stats %+v, %d keys measuring", pool.Stats(), measuring())
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)

	want, err := core.CharacterizeWith(context.Background(), entries, machines, opts, nil, nil, engine.Analytic{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		r := <-results
		if r.err != nil {
			t.Fatal(r.err)
		}
		if !reflect.DeepEqual(r.c, want) {
			t.Error("a concurrent characterization differs from an ungated one")
		}
	}
	if err := <-ran; err != nil {
		t.Fatal(err)
	}
	for id, n := range eng.n {
		if n != 1 {
			t.Errorf("%s measured %d times, want once", id, n)
		}
	}
	if len(eng.n) != len(distinct) {
		t.Errorf("%d keys measured, want %d", len(eng.n), len(distinct))
	}
	if misses := st.Stats().Misses; misses != int64(len(distinct)) {
		t.Errorf("store misses = %d, want %d", misses, len(distinct))
	}
}

// TestAnalyticRunStoredTakesNoSlot: on a one-worker pool, a RunStored
// of a pair inside a run that holds the worker measures at once,
// without a worker. Had it led the pair's flight and then waited for
// the worker, the run would reach the pair, wait on that flight, and
// never free the worker.
func TestAnalyticRunStoredTakesNoSlot(t *testing.T) {
	fleet, err := machine.Fleet()
	if err != nil {
		t.Fatal(err)
	}
	entries, machines := Entries()[:4], fleet[:3]
	opts := machine.RunOptions{Instructions: 30_000}
	st, err := store.Open(store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	pool := sched.NewPool(1, nil)
	gate := make(chan struct{})
	eng := gatedEngine{gate: gate}

	chars := make(chan error, 1)
	go func() {
		_, err := core.CharacterizeWith(context.Background(), entries, machines, opts, st, pool.Queue(0), eng)
		chars <- err
	}()
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s; stats %+v", what, pool.Stats())
			}
			time.Sleep(time.Millisecond)
		}
	}
	// The grid's one run holds the worker, its first measurement at the
	// gate.
	waitFor("the run to hold the worker", func() bool { return st.Stats().Misses == 1 })
	lab := NewLabWithEngine(opts, st, pool.Queue(0), eng)
	ran := make(chan error, 1)
	go func() {
		_, err := lab.RunStored(machines[2], entries[1].Workload, opts)
		ran <- err
	}()
	waitFor("RunStored to measure", func() bool { return st.Stats().Misses == 2 })
	if s := pool.Stats(); s.Depth != 0 || s.Started != 1 {
		t.Errorf("RunStored queued a job: %+v", s)
	}
	close(gate)

	for what, c := range map[string]chan error{"characterization": chars, "RunStored": ran} {
		select {
		case err := <-c:
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s deadlocked", what)
		}
	}
}
