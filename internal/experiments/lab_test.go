package experiments

import (
	"context"
	"errors"
	"reflect"
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

// shedFirst is a core.Runner that sheds its first submission the way a
// full scheduler queue does and runs every later one.
type shedFirst struct{ calls atomic.Int64 }

func (r *shedFirst) Do(ctx context.Context, _ string, fn func(context.Context) (any, error)) (any, error) {
	if r.calls.Add(1) == 1 {
		return nil, sched.ErrQueueFull
	}
	return fn(ctx)
}

// TestLabDoesNotKeepShedError: a shed is about the queue at that
// moment, not the lab, so the next Characterization builds afresh
// instead of answering the stale shed until the lab is evicted.
func TestLabDoesNotKeepShedError(t *testing.T) {
	lab := NewLabWithEngine(machine.RunOptions{}, nil, &shedFirst{}, engine.Analytic{})
	if _, err := lab.Characterization(); !errors.Is(err, sched.ErrQueueFull) {
		t.Fatalf("first build error = %v, want sched.ErrQueueFull", err)
	}
	if _, err := lab.Characterization(); err != nil {
		t.Fatalf("second build error = %v, want the characterization", err)
	}
}
