package sched

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestDedupSharesOneExecution(t *testing.T) {
	p := NewPool(2, nil)
	qa, qb := p.Queue(0), p.Queue(0)

	var execs atomic.Int64
	release := make(chan struct{})
	fn := func(context.Context) (any, error) {
		execs.Add(1)
		<-release
		return "shared", nil
	}

	const waiters = 8
	results := make(chan any, 2*waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		for _, q := range []*Queue{qa, qb} {
			wg.Add(1)
			go func(q *Queue) {
				defer wg.Done()
				v, err := q.Do(context.Background(), "k", fn)
				if err != nil {
					t.Errorf("Do: %v", err)
				}
				results <- v
			}(q)
		}
	}
	// Every submission after the first must register as a dedup hit
	// before the job is released, so the test cannot pass by lucky
	// sequential timing.
	waitFor(t, "dedup joins", func() bool { return p.Stats().DedupHits == 2*waiters-1 })
	close(release)
	wg.Wait()
	close(results)

	if n := execs.Load(); n != 1 {
		t.Errorf("executions = %d, want 1", n)
	}
	for v := range results {
		if v != "shared" {
			t.Errorf("result = %v, want shared", v)
		}
	}
	if s := p.Stats(); s.Started != 1 || s.Depth != 0 || s.Inflight != 0 {
		t.Errorf("stats after drain = %+v", s)
	}
}

func TestFIFOOrder(t *testing.T) {
	p := NewPool(1, nil)
	q := p.Queue(0)

	// Block the single worker, then enqueue jobs 0..n; they must run
	// in submission order.
	blocker := make(chan struct{})
	go q.Do(context.Background(), "blocker", func(context.Context) (any, error) {
		<-blocker
		return nil, nil
	})
	waitFor(t, "blocker running", func() bool { return p.Stats().Inflight == 1 })

	const n = 6
	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			q.Do(context.Background(), fmt.Sprintf("job-%d", i), func(context.Context) (any, error) {
				mu.Lock()
				order = append(order, i)
				mu.Unlock()
				return nil, nil
			})
		}()
		// Serialize submission so the FIFO order is deterministic.
		waitFor(t, "job queued", func() bool { return p.Stats().Depth == i+1 })
	}
	close(blocker)
	wg.Wait()

	for i, got := range order {
		if got != i {
			t.Fatalf("execution order %v, want 0..%d in order", order, n-1)
		}
	}
}

// TestQueueCapDoesNotStarveOthers pins queue A at its cap and checks
// that queue B's later submission overtakes A's queued backlog.
func TestQueueCapDoesNotStarveOthers(t *testing.T) {
	p := NewPool(2, nil)
	qa, qb := p.Queue(1), p.Queue(0)

	aRelease := make(chan struct{})
	aStarted := make(chan string, 4)
	go qa.Do(context.Background(), "a1", func(context.Context) (any, error) {
		aStarted <- "a1"
		<-aRelease
		return nil, nil
	})
	waitFor(t, "a1 running", func() bool { return p.Stats().Inflight == 1 })

	// a2 queues behind a1 (queue A cap = 1) even though a worker is free.
	go qa.Do(context.Background(), "a2", func(context.Context) (any, error) {
		aStarted <- "a2"
		return nil, nil
	})
	waitFor(t, "a2 queued", func() bool { return p.Stats().Depth == 1 })

	// Queue B submitted later must start immediately on the free worker.
	done := make(chan struct{})
	go func() {
		qb.Do(context.Background(), "b1", func(context.Context) (any, error) { return "b", nil })
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("queue B starved behind queue A's capped backlog")
	}
	if got := <-aStarted; got != "a1" {
		t.Fatalf("first queue-A job was %q", got)
	}
	close(aRelease)
	waitFor(t, "drain", func() bool { s := p.Stats(); return s.Depth == 0 && s.Inflight == 0 })
}

func TestPoolBound(t *testing.T) {
	const workers = 2
	p := NewPool(workers, nil)
	q := p.Queue(0)

	var inflight, peak atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			q.Do(context.Background(), fmt.Sprintf("j%d", i), func(context.Context) (any, error) {
				n := inflight.Add(1)
				for {
					m := peak.Load()
					if n <= m || peak.CompareAndSwap(m, n) {
						break
					}
				}
				time.Sleep(5 * time.Millisecond)
				inflight.Add(-1)
				return nil, nil
			})
		}()
	}
	wg.Wait()
	if m := peak.Load(); m > workers {
		t.Errorf("peak concurrency %d exceeds pool bound %d", m, workers)
	}
}

// TestLastWaiterCancelsRunningJob: a running job whose only waiter
// departs has its context canceled; a pending job is dropped from the
// queue outright.
func TestCancellation(t *testing.T) {
	p := NewPool(1, nil)
	q := p.Queue(0)

	started := make(chan struct{})
	canceled := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := q.Do(ctx, "running", func(jctx context.Context) (any, error) {
			close(started)
			<-jctx.Done()
			close(canceled)
			return nil, jctx.Err()
		})
		errc <- err
	}()
	<-started

	// A pending job behind it, whose waiter also departs: it must be
	// dropped from the queue without ever running.
	pctx, pcancel := context.WithCancel(context.Background())
	perrc := make(chan error, 1)
	go func() {
		_, err := q.Do(pctx, "pending", func(context.Context) (any, error) {
			t.Error("pending job ran after its only waiter departed")
			return nil, nil
		})
		perrc <- err
	}()
	waitFor(t, "pending job queued", func() bool { return p.Stats().Depth == 1 })
	pcancel()
	if err := <-perrc; !errors.Is(err, context.Canceled) {
		t.Errorf("pending waiter error = %v, want context.Canceled", err)
	}
	waitFor(t, "pending job dropped", func() bool { return p.Stats().Depth == 0 })

	cancel()
	select {
	case <-canceled:
	case <-time.After(5 * time.Second):
		t.Fatal("running job's context not canceled after last waiter left")
	}
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Errorf("running waiter error = %v, want context.Canceled", err)
	}
	waitFor(t, "pool idle", func() bool { s := p.Stats(); return s.Depth == 0 && s.Inflight == 0 })

	// The abandoned key is not poisoned: a fresh submission runs.
	v, err := q.Do(context.Background(), "running", func(context.Context) (any, error) { return 42, nil })
	if err != nil || v != 42 {
		t.Errorf("resubmission after abandonment = %v, %v", v, err)
	}
}

// TestSurvivorKeepsSharedJobAlive is the batch-disconnect invariant at
// the scheduler layer: two waiters share one job; one departs; the
// job keeps running for the survivor.
func TestSurvivorKeepsSharedJobAlive(t *testing.T) {
	p := NewPool(1, nil)
	qa, qb := p.Queue(0), p.Queue(0)

	started := make(chan struct{})
	release := make(chan struct{})
	fn := func(jctx context.Context) (any, error) {
		close(started)
		select {
		case <-release:
			return "done", nil
		case <-jctx.Done():
			return nil, jctx.Err()
		}
	}

	actx, acancel := context.WithCancel(context.Background())
	aerr := make(chan error, 1)
	go func() {
		_, err := qa.Do(actx, "shared", fn)
		aerr <- err
	}()
	<-started

	bval := make(chan any, 1)
	go func() {
		v, err := qb.Do(context.Background(), "shared", fn)
		if err != nil {
			t.Errorf("survivor: %v", err)
		}
		bval <- v
	}()
	waitFor(t, "survivor joined", func() bool { return p.Stats().DedupHits == 1 })

	acancel() // waiter A disconnects mid-flight
	if err := <-aerr; !errors.Is(err, context.Canceled) {
		t.Errorf("departed waiter error = %v", err)
	}
	// The job must still be live for B: release it and check B's value.
	close(release)
	select {
	case v := <-bval:
		if v != "done" {
			t.Errorf("survivor got %v, want done", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("survivor never got the shared result — job was canceled by the other waiter's departure")
	}
}

func TestErrorPropagatesToAllWaiters(t *testing.T) {
	p := NewPool(2, nil)
	q := p.Queue(0)
	boom := errors.New("boom")
	release := make(chan struct{})

	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := q.Do(context.Background(), "bad", func(context.Context) (any, error) {
				<-release
				return nil, boom
			})
			errs <- err
		}()
	}
	waitFor(t, "waiters joined", func() bool { return p.Stats().DedupHits == 3 })
	close(release)
	wg.Wait()
	close(errs)
	for err := range errs {
		if !errors.Is(err, boom) {
			t.Errorf("waiter error = %v, want boom", err)
		}
	}
}

// TestStress hammers the pool from many goroutines with overlapping
// keys and random cancellation; run under -race this is the
// scheduler's data-race net.
func TestStress(t *testing.T) {
	p := NewPool(4, nil)
	var execs atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			q := p.Queue(1 + g%3)
			for i := 0; i < 50; i++ {
				ctx := context.Background()
				var cancel context.CancelFunc
				if i%7 == 0 {
					ctx, cancel = context.WithTimeout(ctx, time.Microsecond)
				}
				key := fmt.Sprintf("k%d", (g+i)%10)
				v, err := q.Do(ctx, key, func(context.Context) (any, error) {
					execs.Add(1)
					return key, nil
				})
				if cancel != nil {
					cancel()
				}
				if err == nil && v != key {
					t.Errorf("got %v for %s", v, key)
				}
			}
		}()
	}
	wg.Wait()
	waitFor(t, "drain", func() bool { s := p.Stats(); return s.Depth == 0 && s.Inflight == 0 })
	if execs.Load() == 0 {
		t.Error("nothing executed")
	}
}

// TestQueueFull: submissions that would enqueue a new job beyond
// MaxQueue fail promptly with ErrQueueFull; dedup joins onto an
// existing job still pass at the bound.
func TestQueueFull(t *testing.T) {
	p := NewPoolWith(PoolConfig{Workers: 1, MaxQueue: 1})
	q := p.Queue(0)

	release := make(chan struct{})
	blocker := func(context.Context) (any, error) { <-release; return "v", nil }

	// Occupy the single worker...
	go q.Do(context.Background(), "running", blocker)
	waitFor(t, "worker busy", func() bool { return p.Stats().Inflight == 1 })
	// ...and the single queue slot.
	go q.Do(context.Background(), "queued", blocker)
	waitFor(t, "queue full", func() bool { return p.Stats().Depth == 1 })

	// A new key must be rejected, promptly.
	start := time.Now()
	_, err := q.Do(context.Background(), "overflow", blocker)
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("rejection took %v, want prompt", d)
	}
	if got := p.Stats().Shed; got != 1 {
		t.Errorf("Shed = %d, want 1", got)
	}

	// Joining the pending or the running job adds no work: allowed.
	joined := make(chan error, 2)
	go func() { _, err := q.Do(context.Background(), "queued", blocker); joined <- err }()
	go func() { _, err := q.Do(context.Background(), "running", blocker); joined <- err }()
	waitFor(t, "dedup joins at the bound", func() bool { return p.Stats().DedupHits >= 2 })

	close(release)
	for i := 0; i < 2; i++ {
		if err := <-joined; err != nil {
			t.Errorf("dedup join failed at the bound: %v", err)
		}
	}
	// After the queue drains, fresh submissions pass again.
	if _, err := q.Do(context.Background(), "after", func(context.Context) (any, error) { return 1, nil }); err != nil {
		t.Errorf("submission after drain failed: %v", err)
	}
}

// TestQueueWaitTimeout: a pending job nobody dispatches within
// QueueWait is shed — every waiter gets ErrQueueTimeout, the key is
// freed, and the pool's bookkeeping (jobs map, pending count) is clean.
func TestQueueWaitTimeout(t *testing.T) {
	p := NewPoolWith(PoolConfig{Workers: 1, QueueWait: 30 * time.Millisecond})
	q := p.Queue(0)

	release := make(chan struct{})
	go q.Do(context.Background(), "hog", func(context.Context) (any, error) { <-release; return "v", nil })
	waitFor(t, "worker busy", func() bool { return p.Stats().Inflight == 1 })

	var started atomic.Int64
	const waiters = 3
	errs := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			_, err := q.Do(context.Background(), "doomed", func(context.Context) (any, error) {
				started.Add(1)
				return nil, nil
			})
			errs <- err
		}()
	}
	for i := 0; i < waiters; i++ {
		if err := <-errs; !errors.Is(err, ErrQueueTimeout) {
			t.Fatalf("waiter err = %v, want ErrQueueTimeout", err)
		}
	}
	if n := started.Load(); n != 0 {
		t.Errorf("shed job ran %d times, want 0", n)
	}
	if got := p.Stats().Shed; got != 1 {
		t.Errorf("Shed = %d, want 1", got)
	}

	// The key is free again: a fresh submission under the same key runs
	// once the worker frees up.
	close(release)
	if v, err := q.Do(context.Background(), "doomed", func(context.Context) (any, error) { return "second life", nil }); err != nil || v != "second life" {
		t.Errorf("resubmission after shed = %v, %v", v, err)
	}
	s := p.Stats()
	if s.Depth != 0 || s.Inflight != 0 {
		t.Errorf("pool not clean after shed: %+v", s)
	}
}

// TestQueueWaitTimerStoppedOnDispatch: a job that reaches a worker
// before QueueWait expires completes normally and is never shed.
func TestQueueWaitTimerStoppedOnDispatch(t *testing.T) {
	p := NewPoolWith(PoolConfig{Workers: 1, QueueWait: 20 * time.Millisecond})
	q := p.Queue(0)
	v, err := q.Do(context.Background(), "quick", func(context.Context) (any, error) {
		time.Sleep(60 * time.Millisecond) // outlive QueueWait while running
		return "ok", nil
	})
	if err != nil || v != "ok" {
		t.Fatalf("Do = %v, %v; want ok, nil", v, err)
	}
	if got := p.Stats().Shed; got != 0 {
		t.Errorf("Shed = %d, want 0 (job was dispatched, not shed)", got)
	}
}

// TestQueueWaitAbandonRace: waiters abandoning a pending job around
// the same time its shed timer fires must not double-free anything.
func TestQueueWaitAbandonRace(t *testing.T) {
	p := NewPoolWith(PoolConfig{Workers: 1, QueueWait: time.Millisecond})
	q := p.Queue(0)

	release := make(chan struct{})
	go q.Do(context.Background(), "hog", func(context.Context) (any, error) { <-release; return nil, nil })
	waitFor(t, "worker busy", func() bool { return p.Stats().Inflight == 1 })

	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), time.Duration(i%3)*time.Millisecond)
			defer cancel()
			_, err := q.Do(ctx, fmt.Sprintf("k%d", i), func(context.Context) (any, error) { return nil, nil })
			if err != nil && !errors.Is(err, ErrQueueTimeout) && !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("unexpected err: %v", err)
			}
		}(i)
	}
	wg.Wait()
	close(release)
	waitFor(t, "pool drains", func() bool {
		s := p.Stats()
		return s.Depth == 0 && s.Inflight == 0
	})
}

// TestWithLabelNamesWaitSpan: a job's sched.wait span carries its key,
// or the label its leader's context carries.
func TestWithLabelNamesWaitSpan(t *testing.T) {
	tr := telemetry.NewTracer(telemetry.TracerConfig{})
	ctx, root := tr.StartTrace(context.Background(), "test", "trace-1")
	q := NewPool(1, nil).Queue(0)
	noop := func(context.Context) (any, error) { return nil, nil }
	if _, err := q.Do(ctx, "plain", noop); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Do(WithLabel(ctx, "readable"), "run@0x1", noop); err != nil {
		t.Fatal(err)
	}
	root.End()

	traces := tr.Traces(telemetry.Filter{})
	if len(traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(traces))
	}
	var keys []string
	for _, c := range traces[0].Root.Children {
		if c.Name == "sched.wait" {
			keys = append(keys, c.Attrs["key"])
		}
	}
	if fmt.Sprint(keys) != "[plain readable]" {
		t.Errorf("sched.wait keys = %q, want [plain readable]", keys)
	}
}
