// Package sched is the shared measurement scheduler: one bounded
// worker pool through which every simulation in the process flows,
// whoever asked for it. It grants worker slots and does not coalesce:
// a measurement's one coalescing point is its store flight
// (internal/store), which a caller joins before it asks for a slot, so
// a caller sharing another's measurement never reaches the pool.
//
// Structure:
//
//   - A Pool owns the worker slots and a global FIFO of pending jobs.
//     Jobs start strictly in submission order (fairness across
//     requests), bounded by the pool's worker count.
//   - A Queue is one submitter's handle on the pool — a batch, a
//     request, a CLI run — with an optional concurrency cap of its
//     own, so one enormous batch cannot monopolize the workers while
//     other queues' jobs starve behind it.
//   - Do waits for a slot, runs the job on the caller's goroutine
//     under the caller's context, and releases the slot.
//
// A caller whose context ends while its job is still pending leaves
// the queue at once, so abandoned work never occupies a worker. The
// pool never sheds a job: shedding load is the admission layer's
// decision, made once per request before any of its jobs exist.
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

// job is one submission's place in the pending FIFO: its caller waits
// on ready for a worker slot.
type job struct {
	queue *Queue
	// submitted is when the job entered the pending FIFO; the gap to
	// dispatch is surfaced as a sched.wait span on the caller's trace.
	submitted time.Time
	// ready is closed when a worker slot is granted.
	ready chan struct{}

	// Pending-list links, guarded by Pool.mu; nil once dispatched or
	// abandoned.
	prev, next *job
	pending    bool
}

// Pool is a bounded FIFO of worker slots shared by any number of
// Queues. Create with NewPool; the zero value is not usable.
type Pool struct {
	met     poolMetrics
	workers int

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
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	return &Pool{met: newPoolMetrics(reg), workers: workers}
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
// pool's worker count is the only limit).
func (p *Pool) Queue(cap int) *Queue {
	return &Queue{pool: p, cap: cap}
}

// Workers returns the pool's concurrency bound.
func (p *Pool) Workers() int { return p.workers }

// Cap returns the queue's per-queue concurrency cap (0: only the
// pool's worker count bounds it).
func (q *Queue) Cap() int { return q.cap }

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
		Depth:    p.npending,
		Inflight: p.running,
		Started:  int64(p.met.started.Value()),
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

// removePending unlinks j from the FIFO. Caller holds p.mu.
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
		close(j.ready)
		j = next
	}
}

// Do waits for a worker slot, runs fn on the caller's goroutine under
// ctx, and releases the slot when fn returns. The time the job waited
// pending is recorded as a sched.wait span on ctx's trace, with label
// as its key attribute. Do fails without running fn only with ctx's
// error, when ctx ends before the slot is granted; a pending job whose
// ctx ends is dropped from the queue.
func (q *Queue) Do(ctx context.Context, label string, fn func(context.Context) error) error {
	if err := q.acquire(ctx, label); err != nil {
		return err
	}
	defer q.release()
	return fn(ctx)
}

// acquire queues a job in the pending FIFO and waits for its worker
// slot.
func (q *Queue) acquire(ctx context.Context, label string) error {
	p := q.pool
	p.mu.Lock()
	j := &job{queue: q, submitted: time.Now(), ready: make(chan struct{})}
	p.pushPending(j)
	p.dispatch()
	p.mu.Unlock()

	select {
	case <-j.ready:
	case <-ctx.Done():
		p.mu.Lock()
		if j.pending {
			p.removePending(j) // never started: drop it from the queue
			p.mu.Unlock()
			return ctx.Err()
		}
		p.mu.Unlock() // dispatched in the meantime: the slot is ours
	}
	if err := ctx.Err(); err != nil {
		q.release() // granted as the caller left: run nothing
		return err
	}
	// The queueing delay is request-visible latency the job's own
	// spans never show; attribute it to the caller's trace.
	if sp := telemetry.FromContext(ctx); sp != nil {
		sp.Record("sched.wait", j.submitted, time.Now(), "key", label)
	}
	return nil
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
