package flight

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestFlightCoalesces(t *testing.T) {
	var g Group[string, any]
	const callers = 8
	var executions atomic.Int64
	release := make(chan struct{})

	var wg sync.WaitGroup
	results := make([]any, callers)
	joins := make([]bool, callers)
	for i := 0; i < callers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err, joined := g.Do(context.Background(), "k", func(context.Context) (any, error) {
				executions.Add(1)
				<-release
				return 42, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i], joins[i] = v, joined
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for g.Waiting("k") < callers-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d waiters joined", g.Waiting("k"))
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if n := executions.Load(); n != 1 {
		t.Errorf("executions = %d, want 1", n)
	}
	var joined int
	for i := range results {
		if results[i] != 42 {
			t.Errorf("caller %d got %v", i, results[i])
		}
		if joins[i] {
			joined++
		}
	}
	if joined != callers-1 {
		t.Errorf("joined = %d, want %d", joined, callers-1)
	}
}

func TestFlightSequentialCallsRunSeparately(t *testing.T) {
	var g Group[string, any]
	var executions atomic.Int64
	for i := 0; i < 3; i++ {
		_, _, joined := g.Do(context.Background(), "k", func(context.Context) (any, error) {
			executions.Add(1)
			return nil, nil
		})
		if joined {
			t.Errorf("sequential call %d reported joined", i)
		}
	}
	if n := executions.Load(); n != 3 {
		t.Errorf("executions = %d, want 3 (no flight to coalesce onto)", n)
	}
}

func TestFlightSharesError(t *testing.T) {
	var g Group[string, any]
	boom := errors.New("boom")
	release := make(chan struct{})
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err, _ := g.Do(context.Background(), "k", func(context.Context) (any, error) {
				<-release
				return nil, boom
			})
			errs[i] = err
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for g.Waiting("k") < 1 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never joined")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Errorf("caller %d error = %v, want boom", i, err)
		}
	}
	// A failed flight is not cached anywhere: the next call executes.
	_, _, joined := g.Do(context.Background(), "k", func(context.Context) (any, error) { return nil, nil })
	if joined {
		t.Error("call after failed flight joined a dead flight")
	}
}

// TestFlightCancellation covers the context protocol: a caller whose
// context dies stops waiting, the last departing caller cancels the
// flight's context, and a live caller that joined a doomed flight
// retries on a fresh one instead of inheriting the cancellation.
func TestFlightCancellation(t *testing.T) {
	var g Group[string, any]

	// Lone caller cancels -> flight context canceled.
	started := make(chan struct{})
	flightCanceled := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err, _ := g.Do(ctx, "k", func(fctx context.Context) (any, error) {
			close(started)
			<-fctx.Done()
			close(flightCanceled)
			return nil, fctx.Err()
		})
		done <- err
	}()
	<-started
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("caller error = %v, want context.Canceled", err)
	}
	select {
	case <-flightCanceled:
	case <-time.After(5 * time.Second):
		t.Fatal("flight context not canceled after last caller left")
	}

	// A live caller arriving after the doomed flight's fate was sealed
	// must still get a real result (retry path).
	v, err, _ := g.Do(context.Background(), "k", func(context.Context) (any, error) {
		return 7, nil
	})
	if err != nil || v != 7 {
		t.Fatalf("fresh call after canceled flight = %v, %v", v, err)
	}
}

// TestFlightResultPublishedBeforeKeyDeleted is the regression test for
// the coalescing gap: the flight goroutine used to delete the key from
// g.calls (under the lock) before publishing c.val/c.err and closing
// done (outside it), so a caller arriving in that window found no
// flight *and* no readable result, and led a duplicate computation.
// The fix publishes and closes under the same critical section as the
// delete, making "key absent under g.mu" imply "result readable under
// g.mu". This test asserts exactly that contract: once the key is
// observed absent, it reads the result with no synchronization beyond
// the group's own lock. Under the pre-fix ordering that read races
// with the flight's unlocked publish — the race detector flags it on
// the first trial, and the done-channel check below catches the
// re-ordering directly whenever the scheduler parks the flight
// goroutine inside its delete-to-close window.
func TestFlightResultPublishedBeforeKeyDeleted(t *testing.T) {
	var g Group[string, any]
	for trial := 0; trial < 200; trial++ {
		release := make(chan struct{})
		go func() {
			_, _, _ = g.Do(context.Background(), "k", func(context.Context) (any, error) {
				<-release
				return "v", nil
			})
		}()

		// Wait for the flight to register, keep its call handle.
		var c *call[any]
		deadline := time.Now().Add(10 * time.Second)
		for c == nil {
			g.mu.Lock()
			c = g.calls["k"]
			g.mu.Unlock()
			if time.Now().After(deadline) {
				t.Fatal("flight never registered")
			}
		}

		close(release)
		for {
			g.mu.Lock()
			_, present := g.calls["k"]
			if present {
				g.mu.Unlock()
				continue
			}
			// Key gone: the published result must be readable right
			// now, under this same lock acquisition — the exact claim
			// a caller arriving in the window depends on.
			val, err := c.val, c.err
			published := false
			select {
			case <-c.done:
				published = true
			default:
			}
			g.mu.Unlock()
			if !published {
				t.Fatalf("trial %d: key deleted before the result was published", trial)
			}
			if val != "v" || err != nil {
				t.Fatalf("trial %d: published result = %v, %v", trial, val, err)
			}
			break
		}
	}
}

// TestFlightSurvivesLeaderDeparture: when the leading caller leaves, a
// caller still waiting keeps the flight running and gets its result.
func TestFlightSurvivesLeaderDeparture(t *testing.T) {
	var g Group[string, any]
	release := make(chan struct{})
	canceled := make(chan struct{}, 1)
	fn := func(fctx context.Context) (any, error) {
		select {
		case <-release:
			return "v", nil
		case <-fctx.Done():
			canceled <- struct{}{}
			return nil, fctx.Err()
		}
	}

	lctx, lcancel := context.WithCancel(context.Background())
	lerr := make(chan error, 1)
	go func() {
		_, err, _ := g.Do(lctx, "k", fn)
		lerr <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		g.mu.Lock()
		_, registered := g.calls["k"]
		g.mu.Unlock()
		if registered {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("flight never registered")
		}
		time.Sleep(time.Millisecond)
	}

	wval := make(chan any, 1)
	go func() {
		v, err, joined := g.Do(context.Background(), "k", fn)
		if err != nil || !joined {
			t.Errorf("waiter: err = %v, joined = %v", err, joined)
		}
		wval <- v
	}()
	for g.Waiting("k") < 1 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never joined")
		}
		time.Sleep(time.Millisecond)
	}

	lcancel()
	if err := <-lerr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader error = %v, want context.Canceled", err)
	}
	close(release)
	if v := <-wval; v != "v" {
		t.Errorf("waiter got %v, want v", v)
	}
	select {
	case <-canceled:
		t.Error("flight canceled while a waiter was still live")
	default:
	}
}

// TestFlightContextCarriesLeaderValues: the flight's context carries
// the leading caller's values but not its deadline or cancellation.
func TestFlightContextCarriesLeaderValues(t *testing.T) {
	type ctxKey struct{}
	var g Group[string, any]
	ctx, cancel := context.WithTimeout(context.WithValue(context.Background(), ctxKey{}, "leader"), time.Hour)
	defer cancel()
	v, err, _ := g.Do(ctx, "k", func(fctx context.Context) (any, error) {
		if _, ok := fctx.Deadline(); ok {
			t.Error("flight context inherited the leader's deadline")
		}
		return fctx.Value(ctxKey{}), nil
	})
	if err != nil || v != "leader" {
		t.Errorf("Do = %v, %v; want leader, nil", v, err)
	}
}

// waitJoined waits until n callers have joined key's flight.
func waitJoined(t *testing.T, g *Group[string, any], key string, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for g.Waiting(key) < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d callers joined", g.Waiting(key), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFlightDoInline: an inline leader runs fn on its own goroutine
// under its own context, and callers arriving through Do and DoInline
// join it and share its one result.
func TestFlightDoInline(t *testing.T) {
	type ctxKey struct{}
	var g Group[string, any]
	var executions atomic.Int64
	release := make(chan struct{})
	fn := func(context.Context) (any, error) {
		executions.Add(1)
		<-release
		return 7, nil
	}

	ctx := context.WithValue(context.Background(), ctxKey{}, "leader")
	type result struct {
		v      any
		err    error
		joined bool
	}
	leader := make(chan result, 1)
	go func() {
		v, err, joined := g.DoInline(ctx, "k", func(fctx context.Context) (any, error) {
			if fctx != ctx {
				t.Error("inline fn must run under the leader's own context")
			}
			return fn(fctx)
		})
		leader <- result{v, err, joined}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for executions.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("inline leader never started")
		}
		time.Sleep(time.Millisecond)
	}
	joiners := make(chan result, 2)
	go func() {
		v, err, joined := g.Do(context.Background(), "k", fn)
		joiners <- result{v, err, joined}
	}()
	go func() {
		v, err, joined := g.DoInline(context.Background(), "k", fn)
		joiners <- result{v, err, joined}
	}()
	waitJoined(t, &g, "k", 2)
	close(release)

	if r := <-leader; r.v != 7 || r.err != nil || r.joined {
		t.Errorf("leader got %+v, want 7 led", r)
	}
	for i := 0; i < 2; i++ {
		if r := <-joiners; r.v != 7 || r.err != nil || !r.joined {
			t.Errorf("joiner got %+v, want 7 joined", r)
		}
	}
	if n := executions.Load(); n != 1 {
		t.Errorf("executions = %d, want 1", n)
	}
	if g.Waiting("k") != 0 || len(g.calls) != 0 {
		t.Error("finished inline flight still registered")
	}
}

// TestFlightDoInlineLeaderCanceled: when an inline leader's context
// ends and fn fails, a caller that joined and is still live leads a
// fresh flight instead of inheriting the cancellation.
func TestFlightDoInlineLeaderCanceled(t *testing.T) {
	var g Group[string, any]
	lctx, lcancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	lerr := make(chan error, 1)
	go func() {
		_, err, _ := g.DoInline(lctx, "k", func(fctx context.Context) (any, error) {
			close(started)
			<-fctx.Done()
			return nil, fctx.Err()
		})
		lerr <- err
	}()
	<-started
	wval := make(chan any, 1)
	go func() {
		v, err, _ := g.Do(context.Background(), "k", func(context.Context) (any, error) {
			return "fresh", nil
		})
		if err != nil {
			t.Errorf("waiter: %v", err)
		}
		wval <- v
	}()
	waitJoined(t, &g, "k", 1)
	lcancel()
	if err := <-lerr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader error = %v, want context.Canceled", err)
	}
	if v := <-wval; v != "fresh" {
		t.Errorf("waiter got %v, want a fresh flight's result", v)
	}
}
