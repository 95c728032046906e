package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
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

// parked counts goroutines blocked in acquire. A goroutine shows as
// blocked only once it has joined a slot channel's wait queue, so
// waiting for the count fixes the order in which jobs arrived there.
func parked() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "[select") && strings.Contains(g, "sched.(*Queue).acquire") {
			n++
		}
	}
	return n
}

func TestFIFOOrder(t *testing.T) {
	p := NewPool(1, nil)
	q := p.Queue(0)

	// Block the single worker, then enqueue jobs 0..n; they must run
	// in submission order.
	blocker := make(chan struct{})
	go q.Do(context.Background(), "blocker", func(context.Context) error {
		<-blocker
		return nil
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
			q.Do(context.Background(), fmt.Sprintf("job-%d", i), func(context.Context) error {
				mu.Lock()
				order = append(order, i)
				mu.Unlock()
				return nil
			})
		}()
		// Serialize submission so the FIFO order is deterministic.
		waitFor(t, "job queued", func() bool { return p.Stats().Depth == i+1 && parked() == i+1 })
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
	go qa.Do(context.Background(), "a1", func(context.Context) error {
		aStarted <- "a1"
		<-aRelease
		return nil
	})
	waitFor(t, "a1 running", func() bool { return p.Stats().Inflight == 1 })

	// a2 queues behind a1 (queue A cap = 1) even though a worker is free.
	go qa.Do(context.Background(), "a2", func(context.Context) error {
		aStarted <- "a2"
		return nil
	})
	waitFor(t, "a2 queued", func() bool { return p.Stats().Depth == 1 })

	// Queue B submitted later must start immediately on the free worker.
	done := make(chan struct{})
	go func() {
		qb.Do(context.Background(), "b1", func(context.Context) error { return nil })
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

// TestCanceledPastCapReturnsCapSlot: a capped queue's job that got
// past its queue's cap and is canceled while it waits for a pool slot
// gives its cap slot back, so the queue's next job runs once a pool
// slot frees.
func TestCanceledPastCapReturnsCapSlot(t *testing.T) {
	p := NewPool(1, nil)
	qa, qb := p.Queue(1), p.Queue(0)

	bRelease := make(chan struct{})
	bDone := make(chan error, 1)
	go func() {
		bDone <- qb.Do(context.Background(), "b1", func(context.Context) error {
			<-bRelease
			return nil
		})
	}()
	waitFor(t, "b1 running", func() bool { return p.Stats().Inflight == 1 })

	// a1 holds queue A's only cap slot while it waits for the worker.
	ctx, cancel := context.WithCancel(context.Background())
	a1 := make(chan error, 1)
	go func() {
		a1 <- qa.Do(ctx, "a1", func(context.Context) error {
			t.Error("a1 ran after its caller departed")
			return nil
		})
	}()
	waitFor(t, "a1 waiting for the worker", func() bool { return len(qa.slots) == 1 && parked() == 1 })
	cancel()
	if err := <-a1; !errors.Is(err, context.Canceled) {
		t.Fatalf("a1 error = %v, want context.Canceled", err)
	}

	a2 := make(chan error, 1)
	go func() {
		a2 <- qa.Do(context.Background(), "a2", func(context.Context) error { return nil })
	}()
	close(bRelease)
	if err := <-bDone; err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-a2:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queue A's next job never ran: the canceled job kept its cap slot")
	}
	waitFor(t, "pool idle", func() bool { s := p.Stats(); return s.Depth == 0 && s.Inflight == 0 })
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
			q.Do(context.Background(), fmt.Sprintf("j%d", i), func(context.Context) error {
				n := inflight.Add(1)
				for {
					m := peak.Load()
					if n <= m || peak.CompareAndSwap(m, n) {
						break
					}
				}
				time.Sleep(5 * time.Millisecond)
				inflight.Add(-1)
				return nil
			})
		}()
	}
	wg.Wait()
	if m := peak.Load(); m > workers {
		t.Errorf("peak concurrency %d exceeds pool bound %d", m, workers)
	}
}

// TestCancellation: a running job runs under its caller's context, so
// the caller's cancellation reaches it; a pending job whose caller
// departs is dropped from the queue outright.
func TestCancellation(t *testing.T) {
	p := NewPool(1, nil)
	q := p.Queue(0)

	started := make(chan struct{})
	canceled := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		errc <- q.Do(ctx, "running", func(jctx context.Context) error {
			close(started)
			<-jctx.Done()
			close(canceled)
			return jctx.Err()
		})
	}()
	<-started

	// A pending job behind it, whose caller also departs: it must be
	// dropped from the queue without ever running.
	pctx, pcancel := context.WithCancel(context.Background())
	perrc := make(chan error, 1)
	go func() {
		perrc <- q.Do(pctx, "pending", func(context.Context) error {
			t.Error("pending job ran after its caller departed")
			return nil
		})
	}()
	waitFor(t, "pending job queued", func() bool { return p.Stats().Depth == 1 })
	pcancel()
	if err := <-perrc; !errors.Is(err, context.Canceled) {
		t.Errorf("pending caller error = %v, want context.Canceled", err)
	}
	waitFor(t, "pending job dropped", func() bool { return p.Stats().Depth == 0 })

	cancel()
	select {
	case <-canceled:
	case <-time.After(5 * time.Second):
		t.Fatal("running job's context not canceled after its caller left")
	}
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Errorf("running caller error = %v, want context.Canceled", err)
	}
	waitFor(t, "pool idle", func() bool { s := p.Stats(); return s.Depth == 0 && s.Inflight == 0 })

	// The freed slot serves a fresh submission.
	ran := false
	if err := q.Do(context.Background(), "after", func(context.Context) error { ran = true; return nil }); err != nil || !ran {
		t.Errorf("submission after cancellation: ran %v, err %v", ran, err)
	}
}

// TestStress hammers the pool from many goroutines and queues with
// random cancellation; run under -race this is the scheduler's
// data-race net. Once it drains, the published gauges read 0 too.
func TestStress(t *testing.T) {
	reg := metrics.NewRegistry()
	p := NewPool(4, reg)
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
				err := q.Do(ctx, fmt.Sprintf("g%d-%d", g, i), func(context.Context) error {
					execs.Add(1)
					return nil
				})
				if cancel != nil {
					cancel()
				}
				if err != nil && !errors.Is(err, context.DeadlineExceeded) {
					t.Errorf("unexpected err: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	waitFor(t, "drain", func() bool { s := p.Stats(); return s.Depth == 0 && s.Inflight == 0 })
	if execs.Load() == 0 {
		t.Error("nothing executed")
	}
	snap := reg.Snapshot()
	for _, name := range []string{"spec17_sched_queue_depth", "spec17_sched_inflight"} {
		if v := snap.Value(name); v != 0 {
			t.Errorf("%s = %v after the pool drained, want 0", name, v)
		}
	}
}

// TestWaitSpanCarriesLabel: Do runs fn under the caller's context, and
// the job's sched.wait span on that context's trace carries the label
// Do was given.
func TestWaitSpanCarriesLabel(t *testing.T) {
	tr := telemetry.NewTracer(telemetry.TracerConfig{})
	ctx, root := tr.StartTrace(context.Background(), "test", "trace-1")
	q := NewPool(1, nil).Queue(0)
	for _, label := range []string{"first", "second"} {
		if err := q.Do(ctx, label, func(jctx context.Context) error {
			if jctx != ctx {
				t.Error("fn ran under a context other than the caller's")
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
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
	if fmt.Sprint(keys) != "[first second]" {
		t.Errorf("sched.wait keys = %q, want [first second]", keys)
	}
}
