// Package sched is the shared measurement scheduler: one bounded
// worker pool through which every simulation in the process flows,
// whoever asked for it. It grants worker slots and does not coalesce:
// a measurement's one coalescing point is its store flight
// (internal/store), which a caller joins before it asks for a slot, so
// a caller sharing another's measurement never reaches the pool.
//
// Structure:
//
//   - A Pool is a buffered channel of worker slots: a job holds one
//     slot while it runs, so at most the pool's worker count run at
//     once. Go's runtime hands a freed slot to the channel's blocked
//     senders in arrival order, so jobs start in submission order
//     (fairness across requests); `make race-sched` checks that order.
//   - A Queue is one submitter's handle on the pool — a batch, a
//     request, a CLI run — with an optional concurrency cap of its
//     own: a capped queue's job first takes one of the queue's own
//     slots, then a pool slot. Its backlog waits on the queue's
//     channel, not the pool's, so one enormous batch cannot monopolize
//     the workers while other queues' jobs starve behind it.
//   - Do waits for its slots, runs the job on the caller's goroutine
//     under the caller's context, and releases the slots.
//
// A caller whose context ends while its job still waits leaves at
// once, returning any slot it took, so abandoned work never occupies a
// worker. The pool never sheds a job: shedding load is the admission
// layer's decision, made once per request before any of its jobs
// exist.
package sched

import (
	"context"
	"runtime"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/telemetry"
)

// poolMetrics bundles the scheduler's instruments.
type poolMetrics struct {
	depth     *metrics.Gauge     // jobs queued, not yet started
	inflight  *metrics.Gauge     // jobs running right now
	started   *metrics.Counter   // jobs actually handed to a worker
	queueWait *metrics.Histogram // pending time of dispatched jobs
}

func newPoolMetrics(r *metrics.Registry) poolMetrics {
	return poolMetrics{
		depth: r.Gauge("spec17_sched_queue_depth",
			"Scheduler jobs queued and waiting for a worker."),
		inflight: r.Gauge("spec17_sched_inflight",
			"Scheduler jobs running right now."),
		started: r.Counter("spec17_sched_jobs_started_total",
			"Jobs handed to a worker."),
		queueWait: r.Histogram("spec17_sched_queue_wait_seconds",
			"Time dispatched jobs spent pending before a worker picked them up.",
			nil),
	}
}

// Pool is a bounded FIFO of worker slots shared by any number of
// Queues. Create with NewPool; the zero value is not usable.
type Pool struct {
	met   poolMetrics
	slots chan struct{} // one token per running job

	// mu orders every change to depth and inflight with the gauges
	// that publish them, so a gauge never keeps a stale count after
	// concurrent releases.
	mu       sync.Mutex
	depth    int
	inflight int
}

// NewPool returns a pool running at most workers jobs concurrently
// (<= 0 means GOMAXPROCS) with an unbounded pending queue. Its
// instruments (spec17_sched_*) land in reg; nil uses a private
// registry.
func NewPool(workers int, reg *metrics.Registry) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	return &Pool{met: newPoolMetrics(reg), slots: make(chan struct{}, workers)}
}

// Queue is one submitter's handle on a Pool. Queues are cheap; create
// one per logical request or batch so its cap (and cancellation)
// stays scoped to that submitter's work.
type Queue struct {
	pool  *Pool
	slots chan struct{} // one token per running job of this queue; nil when uncapped
}

// Queue returns a new submission handle. cap bounds how many of the
// queue's jobs may run concurrently (<= 0: no per-queue bound — the
// pool's worker count is the only limit).
func (p *Pool) Queue(cap int) *Queue {
	q := &Queue{pool: p}
	if cap > 0 {
		q.slots = make(chan struct{}, cap)
	}
	return q
}

// Workers returns the pool's concurrency bound.
func (p *Pool) Workers() int { return cap(p.slots) }

// Stats is a point-in-time snapshot of the pool's counters, for tests
// and callers that want to wait for the queue to settle.
type Stats struct {
	Depth    int   // jobs queued, not yet started
	Inflight int   // jobs running
	Started  int64 // jobs handed to a worker
}

// Stats returns the pool's current counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return Stats{
		Depth:    p.depth,
		Inflight: p.inflight,
		Started:  int64(p.met.started.Value()),
	}
}

// move adds to the pending and running counts and publishes both.
func (p *Pool) move(pending, running int) {
	p.mu.Lock()
	p.depth += pending
	p.inflight += running
	p.met.depth.Set(float64(p.depth))
	p.met.inflight.Set(float64(p.inflight))
	p.mu.Unlock()
}

// Do waits for a worker slot, runs fn on the caller's goroutine under
// ctx, and releases the slot when fn returns. The time the job waited
// pending is recorded as a sched.wait span on ctx's trace, with label
// as its key attribute. Do fails without running fn only with ctx's
// error, when ctx ends before the slot is granted; a pending job whose
// ctx ends leaves the queue at once.
func (q *Queue) Do(ctx context.Context, label string, fn func(context.Context) error) error {
	p := q.pool
	submitted := time.Now()
	p.move(1, 0)
	if err := q.acquire(ctx); err != nil {
		p.move(-1, 0)
		return err
	}
	p.move(-1, 1)
	p.met.started.Inc()
	p.met.queueWait.Observe(time.Since(submitted).Seconds())
	defer q.release()
	if err := ctx.Err(); err != nil {
		return err // granted as the caller left: run nothing
	}
	// The queueing delay is request-visible latency the job's own
	// spans never show; attribute it to the caller's trace.
	if sp := telemetry.FromContext(ctx); sp != nil {
		sp.Record("sched.wait", submitted, time.Now(), "key", label)
	}
	return fn(ctx)
}

// acquire takes a slot of q's cap, if it has one, then a pool slot,
// giving back what it took if ctx ends first.
func (q *Queue) acquire(ctx context.Context) error {
	if q.slots != nil {
		select {
		case q.slots <- struct{}{}:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	select {
	case q.pool.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		if q.slots != nil {
			<-q.slots
		}
		return ctx.Err()
	}
}

// release returns the slots held by one of q's running jobs.
func (q *Queue) release() {
	q.pool.move(0, -1)
	<-q.pool.slots
	if q.slots != nil {
		<-q.slots
	}
}
