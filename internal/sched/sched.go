// Package sched is the shared measurement scheduler: one bounded
// worker pool through which every simulation in the process flows,
// whoever asked for it. Where internal/server's flight deduplicates at
// the *experiment* grain and internal/store's at the *persistence*
// grain, the scheduler deduplicates in-flight work at the measurement
// grain — (machine × workload × canonical options), the store's key —
// so two batches whose experiment sets overlap share the underlying
// simulations instead of queueing them twice. All three coalesce
// through internal/flight.
//
// Structure:
//
//   - A Pool owns the workers and a global FIFO of pending jobs.
//     Jobs start strictly in submission order (fairness across
//     requests), bounded by the pool's worker count.
//   - A Queue is one submitter's handle on the pool — a batch, a
//     request, a CLI run — with an optional concurrency cap of its
//     own, so one enormous batch cannot monopolize the workers while
//     other queues' jobs starve behind it.
//   - Do submits one keyed job. If a job with the same key is already
//     pending or running (submitted through *any* queue), the caller
//     joins it as a waiter instead of enqueueing a duplicate; the
//     join is counted as a dedup hit.
//
// Cancellation follows internal/flight: each waiter waits under its
// own context, and a job every one of whose waiters has departed is
// canceled (if running) or removed from the queue (if still pending)
// instead of burning a worker.
package sched

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"time"

	"repro/internal/flight"
	"repro/internal/metrics"
	"repro/internal/telemetry"
)

// Shed errors. Both are terminal for every waiter of the affected
// submission — unlike a flight abandoned by its waiters, they are
// never retried, so callers can map them to a load-shedding response
// (429) in bounded time.
var (
	// ErrQueueFull is returned by Do when the pool's pending queue is
	// at MaxQueue and the submission would enqueue a new job.
	ErrQueueFull = errors.New("sched: pending queue full")
	// ErrQueueTimeout is returned by Do when a pending job waited
	// longer than the pool's QueueWait without reaching a worker and
	// was shed.
	ErrQueueTimeout = errors.New("sched: queue-wait timeout")
)

// poolMetrics bundles the scheduler's instruments.
type poolMetrics struct {
	depth     *metrics.Gauge     // jobs queued, not yet started
	inflight  *metrics.Gauge     // jobs running right now
	dedup     *metrics.Counter   // submissions that joined an existing job
	started   *metrics.Counter   // jobs actually handed to a worker
	shed      *metrics.Counter   // jobs rejected or timed out before starting
	queueWait *metrics.Histogram // pending time of dispatched jobs
}

func newPoolMetrics(r *metrics.Registry) poolMetrics {
	return poolMetrics{
		depth: r.Gauge("spec17_sched_queue_depth",
			"Scheduler jobs queued and waiting for a worker."),
		inflight: r.Gauge("spec17_sched_inflight",
			"Scheduler jobs running right now."),
		dedup: r.Counter("spec17_sched_dedup_hits_total",
			"Submissions that joined an already pending or running job with the same key."),
		started: r.Counter("spec17_sched_jobs_started_total",
			"Jobs handed to a worker (deduplicated submissions excluded)."),
		shed: r.Counter("spec17_sched_shed_total",
			"Jobs shed before starting: rejected by the queue bound or timed out waiting."),
		queueWait: r.Histogram("spec17_sched_queue_wait_seconds",
			"Time dispatched jobs spent pending before a worker picked them up.",
			nil),
	}
}

// job is one keyed job's place in the pending FIFO: its leader waits
// on ready for a worker slot.
type job struct {
	queue *Queue
	// submitted is when the job entered the pending FIFO; the gap to
	// dispatch is surfaced as a sched.wait span on the submitting
	// request's trace.
	submitted time.Time
	// ready receives nil when a worker slot is granted, or
	// ErrQueueTimeout when the job is shed. Buffered: the sender never
	// blocks.
	ready chan error

	// Pending-list links, guarded by Pool.mu; nil once dispatched,
	// shed or abandoned.
	prev, next *job
	pending    bool
	// shedTimer sheds the job if it waits longer than the pool's
	// QueueWait; stopped at dispatch. Nil when QueueWait is zero.
	shedTimer *time.Timer
}

// PoolConfig configures a Pool. The zero value is usable: GOMAXPROCS
// workers, an unbounded queue, no queue-wait shedding.
type PoolConfig struct {
	// Workers bounds concurrently running jobs (<= 0: GOMAXPROCS).
	Workers int
	// MaxQueue bounds the pending FIFO. A submission that would
	// enqueue a new job beyond the bound fails with ErrQueueFull
	// instead of queueing without bound; dedup joins onto already
	// pending or running jobs are always allowed (they add no work).
	// 0 means unbounded.
	MaxQueue int
	// QueueWait bounds how long a pending job may wait for a worker.
	// A job pending longer is shed: removed from the queue, and every
	// waiter gets ErrQueueTimeout — better to fail fast than to start
	// work whose audience gave up long ago. 0 disables.
	QueueWait time.Duration
	// Metrics receives the spec17_sched_* instruments. Nil uses a
	// private registry.
	Metrics *metrics.Registry
}

// Pool is a bounded, keyed, FIFO worker pool shared by any number of
// Queues. Create with NewPool or NewPoolWith; the zero value is not
// usable.
type Pool struct {
	met       poolMetrics
	workers   int
	maxQueue  int
	queueWait time.Duration

	// flights coalesces submissions by key: a job is one flight.
	flights flight.Group[any]

	mu       sync.Mutex
	running  int
	npending int
	head     *job // pending FIFO
	tail     *job
}

// NewPool returns a pool running at most workers jobs concurrently
// (<= 0 means GOMAXPROCS) with an unbounded pending queue. Its
// instruments (spec17_sched_*) land in reg; nil uses a private
// registry.
func NewPool(workers int, reg *metrics.Registry) *Pool {
	return NewPoolWith(PoolConfig{Workers: workers, Metrics: reg})
}

// NewPoolWith returns a pool enforcing cfg.
func NewPoolWith(cfg PoolConfig) *Pool {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	p := &Pool{
		met:       newPoolMetrics(cfg.Metrics),
		workers:   cfg.Workers,
		maxQueue:  cfg.MaxQueue,
		queueWait: cfg.QueueWait,
	}
	p.flights.OnJoin = p.met.dedup.Inc
	return p
}

// Queue is one submitter's handle on a Pool. Queues are cheap; create
// one per logical request or batch so its cap (and cancellation)
// stays scoped to that submitter's work.
type Queue struct {
	pool *Pool
	cap  int // max concurrently running jobs of this queue; 0 = pool bound only
	// running counts this queue's jobs currently holding a worker,
	// guarded by pool.mu.
	running int
}

// Queue returns a new submission handle. cap bounds how many of the
// queue's jobs may run concurrently (<= 0: no per-queue bound — the
// pool's worker count is the only limit). Jobs joined by dedup count
// against the queue that first submitted them.
func (p *Pool) Queue(cap int) *Queue {
	return &Queue{pool: p, cap: cap}
}

// Workers returns the pool's concurrency bound.
func (p *Pool) Workers() int { return p.workers }

// Cap returns the queue's per-queue concurrency cap (0: only the
// pool's worker count bounds it).
func (q *Queue) Cap() int { return q.cap }

// Running returns how many of this queue's jobs currently hold a
// worker. Background submitters (async job sweeps) surface this in
// /v1/status so an operator can see how much of the simulation pool
// background work is occupying.
func (q *Queue) Running() int {
	q.pool.mu.Lock()
	defer q.pool.mu.Unlock()
	return q.running
}

// Stats is a point-in-time snapshot of the pool's counters, for tests
// and callers that want to wait for the queue to settle.
type Stats struct {
	Depth     int   // jobs queued, not yet started
	Inflight  int   // jobs running
	DedupHits int64 // submissions that joined an existing job
	Started   int64 // jobs handed to a worker
	Shed      int64 // jobs shed by the queue bound or the wait timeout
	MaxQueue  int   // configured pending bound (0: unbounded)
}

// Stats returns the pool's current counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return Stats{
		Depth:     p.npending,
		Inflight:  p.running,
		DedupHits: int64(p.met.dedup.Value()),
		Started:   int64(p.met.started.Value()),
		Shed:      int64(p.met.shed.Value()),
		MaxQueue:  p.maxQueue,
	}
}

// pushPending appends j to the FIFO. Caller holds p.mu.
func (p *Pool) pushPending(j *job) {
	j.pending = true
	j.prev = p.tail
	if p.tail != nil {
		p.tail.next = j
	} else {
		p.head = j
	}
	p.tail = j
	p.npending++
	p.met.depth.Set(float64(p.npending))
}

// removePending unlinks j from the FIFO and stops its shed timer.
// Caller holds p.mu.
func (p *Pool) removePending(j *job) {
	if j.prev != nil {
		j.prev.next = j.next
	} else {
		p.head = j.next
	}
	if j.next != nil {
		j.next.prev = j.prev
	} else {
		p.tail = j.prev
	}
	j.prev, j.next = nil, nil
	j.pending = false
	if j.shedTimer != nil {
		j.shedTimer.Stop()
		j.shedTimer = nil
	}
	p.npending--
	p.met.depth.Set(float64(p.npending))
}

// dispatch starts pending jobs while workers are free, in FIFO order,
// skipping jobs whose queue is at its cap. Caller holds p.mu.
func (p *Pool) dispatch() {
	for j := p.head; j != nil && p.running < p.workers; {
		next := j.next
		if j.queue.cap > 0 && j.queue.running >= j.queue.cap {
			j = next
			continue // queue at cap: let later queues' jobs through
		}
		p.removePending(j)
		p.met.queueWait.Observe(time.Since(j.submitted).Seconds())
		j.queue.running++
		p.running++
		p.met.inflight.Set(float64(p.running))
		p.met.started.Inc()
		j.ready <- nil
		j = next
	}
}

// shedPending fires when j's queue-wait timer expires. If the job is
// still pending — no worker ever reached it — it is removed and its
// leader gets ErrQueueTimeout, which the flight hands to every waiter
// and which frees the key for fresh submissions. A job already
// dispatched or abandoned is left alone.
func (p *Pool) shedPending(j *job) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !j.pending {
		return // raced with dispatch or abandonment
	}
	p.removePending(j)
	p.met.shed.Inc()
	j.ready <- ErrQueueTimeout
}

// Do submits one keyed job and blocks until it completes or ctx is
// canceled. If a job with the same key is already pending or running,
// the caller joins it (a dedup hit) instead of enqueueing a second
// copy — fn is then never called. fn receives a job-owned context,
// canceled when every waiter has departed; the caller's ctx only ever
// aborts its own wait. A caller whose joined job was killed by *other*
// waiters' departure resubmits, so a live caller always gets a result
// or its own context error.
func (q *Queue) Do(ctx context.Context, key string, fn func(context.Context) (any, error)) (any, error) {
	v, err, _ := q.pool.flights.Do(ctx, key, func(jctx context.Context) (any, error) {
		if err := q.acquire(jctx, key); err != nil {
			return nil, err
		}
		defer q.release()
		return fn(jctx)
	})
	return v, err
}

// acquire queues the job's leader in the pending FIFO and waits for a
// worker slot. It fails with ErrQueueFull when the queue is at its
// bound, with ErrQueueTimeout when the job is shed, and with the job
// context's error when every waiter left first, which also drops the
// job from the queue.
func (q *Queue) acquire(jctx context.Context, key string) error {
	p := q.pool
	p.mu.Lock()
	// Only a new job takes a queue slot; a dedup join adds no work, so
	// it passes even at the bound.
	if p.maxQueue > 0 && p.npending >= p.maxQueue {
		p.met.shed.Inc()
		p.mu.Unlock()
		return ErrQueueFull
	}
	j := &job{queue: q, submitted: time.Now(), ready: make(chan error, 1)}
	p.pushPending(j)
	if p.queueWait > 0 {
		j.shedTimer = time.AfterFunc(p.queueWait, func() { p.shedPending(j) })
	}
	p.dispatch()
	p.mu.Unlock()

	select {
	case err := <-j.ready:
		if err != nil {
			return err
		}
	case <-jctx.Done():
		p.mu.Lock()
		if j.pending {
			p.removePending(j) // never started: drop it from the queue
			p.mu.Unlock()
			return jctx.Err()
		}
		p.mu.Unlock()
		// Dispatched or shed in the meantime.
		if err := <-j.ready; err != nil {
			return err
		}
		q.release()
		return jctx.Err()
	}
	// The queueing delay is request-visible latency the job's own
	// execution spans never show; attribute it to the trace of the
	// submission that created the job.
	if sp := telemetry.FromContext(jctx); sp != nil {
		label := key
		if l, ok := jctx.Value(labelKey{}).(string); ok {
			label = l
		}
		sp.Record("sched.wait", j.submitted, time.Now(), "key", label)
	}
	return nil
}

// labelKey is the context key of a job's trace label.
type labelKey struct{}

// WithLabel returns ctx carrying label, which a job led under the
// returned context shows as its sched.wait span's key attribute in
// place of its key. It is for a job whose key means nothing to a
// reader: one unique only so that it coalesces with no other job.
func WithLabel(ctx context.Context, label string) context.Context {
	return context.WithValue(ctx, labelKey{}, label)
}

// release returns a worker slot held by one of q's jobs.
func (q *Queue) release() {
	p := q.pool
	p.mu.Lock()
	q.running--
	p.running--
	p.met.inflight.Set(float64(p.running))
	p.dispatch()
	p.mu.Unlock()
}
