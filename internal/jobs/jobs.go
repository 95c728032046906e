// Package jobs is the durable async-job subsystem of the
// characterization service: fire-and-forget experiment sweeps that
// outlive the connection that submitted them — and the process that
// accepted them.
//
// A Job is one sweep (experiments × run options × engine tier). The
// Manager executes jobs through a caller-supplied Runner — the server
// wires it to the ordinary fetch path, so every measurement flows
// through the shared scheduler under the admission cost model and
// results park in the measurement store under their normal keys. The
// manager itself only tracks *state*: which items are done, which are
// pending, and who wants to hear about it.
//
// Job state follows the measurement store's snapshot discipline
// (store.AtomicWriteFile): it is checkpointed after every item
// completion and state transition, so a crash loses at most the items
// in flight. On restart, Load reverts interrupted jobs to pending and
// Start re-enqueues them; a resumed job does not run its completed
// items again, and it completes bit-identically to an uninterrupted
// one. A job keeps no results, though: they are read back through the
// ordinary fetch path, so they are exactly as durable as the store.
// spec17d saves the store at a graceful shutdown and on its
// -checkpoint timer only; after a kill without -checkpoint, every
// completed item's measurements are recomputed when its results are
// read.
//
// Completion is read, never pushed to an address the submitter names:
// poll the job record (GET /v1/jobs/{id}), or subscribe to its Events,
// which the server streams as SSE. See docs/JOBS.md.
package jobs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"os"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/telemetry"
)

// Submission and lifecycle errors.
var (
	// ErrTooManyJobs is returned by Submit when the retained-job bound
	// is reached and no terminal job can be evicted to make room.
	ErrTooManyJobs = errors.New("jobs: too many jobs; retry after some finish")
	// ErrClosed is returned by Submit once the manager has shut down.
	ErrClosed = errors.New("jobs: manager closed")
	// ErrUnknownJob is returned for operations on an id the manager
	// does not hold.
	ErrUnknownJob = errors.New("jobs: unknown job")
	// ErrTooManySubscribers is returned by Subscribe when the job, or
	// the manager as a whole, already has as many live subscribers as
	// it allows.
	ErrTooManySubscribers = errors.New("jobs: too many event subscribers; retry after some close")
)

// State is a job's lifecycle state.
type State string

// The job states. Pending covers both never-started and
// interrupted-and-awaiting-resume jobs.
const (
	StatePending   State = "pending"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// ItemStatus is one sweep item's status.
type ItemStatus string

// The item statuses.
const (
	ItemPending ItemStatus = "pending"
	ItemRunning ItemStatus = "running"
	ItemDone    ItemStatus = "done"
	ItemError   ItemStatus = "error"
)

// Spec is one submitted sweep. The server validates experiment ids,
// options, and the engine tier before submission; the manager treats
// them as opaque.
type Spec struct {
	// Experiments lists the sweep's experiment ids, already expanded
	// and deduplicated.
	Experiments []string `json:"experiments"`
	// Instructions and Warmup are the run options, as on /v1/batch.
	Instructions int `json:"instructions,omitempty"`
	Warmup       int `json:"warmup,omitempty"`
	// Engine is the requested measurement tier (exact, analytic, or
	// auto); empty means the server default at execution time.
	Engine string `json:"engine,omitempty"`
	// Concurrency caps how many of the job's items run at once
	// (default 1: background sweeps trickle through the pool).
	Concurrency int `json:"concurrency,omitempty"`
	// Client is the submitter's admission identity; item execution is
	// charged against it so a background sweep spends the same budget
	// the submitter's interactive traffic would.
	Client string `json:"client,omitempty"`
}

// Item is one (experiment) unit of a sweep and its progress.
type Item struct {
	ID        string     `json:"id"`
	Status    ItemStatus `json:"status"`
	Error     string     `json:"error,omitempty"`
	ElapsedMS int64      `json:"elapsed_ms,omitempty"`
}

// Job is one sweep's full record — exactly what the snapshot persists
// and GET /v1/jobs/{id} serves.
type Job struct {
	ID       string     `json:"id"`
	Spec     Spec       `json:"spec"`
	State    State      `json:"state"`
	Error    string     `json:"error,omitempty"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
	Items    []Item     `json:"items"`
	// ETASeconds estimates the time to completion for a non-terminal
	// job: observed mean item time once items have finished, the
	// configured cost-model prior before that. Computed at read time,
	// never persisted meaningfully; 0 means no estimate.
	ETASeconds float64 `json:"eta_seconds,omitempty"`
	// Resumed marks a job that survived at least one restart.
	Resumed bool `json:"resumed,omitempty"`
}

// Counts returns how many items are terminal and how many of those
// failed.
func (j *Job) Counts() (done, failed int) {
	for _, it := range j.Items {
		switch it.Status {
		case ItemDone:
			done++
		case ItemError:
			done++
			failed++
		}
	}
	return done, failed
}

// clone deep-copies the job so callers never alias manager-owned
// state. Timestamps are never mutated after being set, so sharing the
// pointers is safe.
func (j *Job) clone() Job {
	c := *j
	c.Spec.Experiments = append([]string(nil), j.Spec.Experiments...)
	c.Items = append([]Item(nil), j.Items...)
	return c
}

// viewLocked is the externally served form of a job: a clone with the
// read-time ETA filled in. Caller holds m.mu.
func (m *Manager) viewLocked(t *tracked) Job {
	j := t.job.clone()
	j.ETASeconds = m.etaLocked(t)
	return j
}

// etaLocked estimates a non-terminal job's seconds to completion:
// per-item time (observed mean over finished items when there are
// any, the cost-model prior otherwise) times the remaining item
// waves at the job's concurrency. Caller holds m.mu.
func (m *Manager) etaLocked(t *tracked) float64 {
	if t.job.State.Terminal() {
		return 0
	}
	finished := 0
	var sumMS int64
	for _, it := range t.job.Items {
		if it.Status == ItemDone || it.Status == ItemError {
			finished++
			sumMS += it.ElapsedMS
		}
	}
	remaining := len(t.job.Items) - finished
	if remaining == 0 {
		return 0
	}
	var per float64
	if finished > 0 {
		per = float64(sumMS) / float64(finished) / 1000
	} else if m.cfg.EstimateItemSeconds != nil {
		per = m.cfg.EstimateItemSeconds(t.job.Spec)
	}
	if per <= 0 {
		return 0
	}
	conc := t.job.Spec.Concurrency
	if conc < 1 {
		conc = 1
	}
	return per * math.Ceil(float64(remaining)/float64(conc))
}

// Runner executes one item of one job: measure item (an experiment
// id) under the job's spec and park the result wherever results live.
// The context is the job run's; it is canceled on job cancellation and
// manager shutdown. Runners must be safe for concurrent use.
type Runner func(ctx context.Context, job Job, item string) error

// Config configures a Manager.
type Config struct {
	// Path is the job-state snapshot file; empty runs memory-only
	// (jobs then do not survive restarts).
	Path string
	// MaxJobs bounds retained jobs (running and finished). At the
	// bound, Submit evicts the oldest terminal job; with nothing
	// evictable it fails with ErrTooManyJobs. Defaults to 256.
	MaxJobs int
	// MaxRunning bounds concurrently executing jobs. Defaults to 2.
	MaxRunning int
	// Runner executes items. Required.
	Runner Runner
	// OnJobStart, when set, wraps one job execution: it receives the
	// job's run context and may return a derived context plus a finish
	// callback invoked with the job's final state. The server uses it
	// to put a job-root span tree around the whole sweep.
	OnJobStart func(ctx context.Context, j Job) (context.Context, func(final State))
	// EstimateItemSeconds, when set, predicts one item's execution time
	// in seconds from the sweep spec — the ETA prior used until real
	// item completions provide an observed rate. The server derives it
	// from the admission cost model. Nil disables model-based ETAs.
	EstimateItemSeconds func(spec Spec) float64
	// Metrics receives the spec17d_jobs_* instruments. Nil uses a
	// private registry.
	Metrics *metrics.Registry
	// Log receives lifecycle and checkpoint warnings. Defaults to an
	// info-level logger on stderr.
	Log *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.MaxJobs <= 0 {
		c.MaxJobs = 256
	}
	if c.MaxRunning <= 0 {
		c.MaxRunning = 2
	}
	if c.Metrics == nil {
		c.Metrics = metrics.NewRegistry()
	}
	if c.Log == nil {
		c.Log = telemetry.NewLogger(os.Stderr, slog.LevelInfo)
	}
	return c
}

type jobMetrics struct {
	submitted   *metrics.Counter
	finished    *metrics.CounterVec // state
	running     *metrics.Gauge
	items       *metrics.CounterVec // status
	resumed     *metrics.Counter
	checkpoints *metrics.Counter
	subscribers *metrics.Gauge
}

func newJobMetrics(r *metrics.Registry) jobMetrics {
	return jobMetrics{
		submitted: r.Counter("spec17d_jobs_submitted_total",
			"Async jobs accepted by POST /v1/jobs."),
		finished: r.CounterVec("spec17d_jobs_finished_total",
			"Async jobs reaching a terminal state, by state (done, failed, cancelled).",
			"state"),
		running: r.Gauge("spec17d_jobs_running",
			"Async jobs currently executing."),
		items: r.CounterVec("spec17d_jobs_items_total",
			"Job sweep items finished, by status (done, error).",
			"status"),
		resumed: r.Counter("spec17d_jobs_resumed_total",
			"Interrupted jobs re-enqueued from the snapshot at boot."),
		checkpoints: r.Counter("spec17d_jobs_checkpoints_total",
			"Job-state snapshot writes."),
		subscribers: r.Gauge("spec17d_jobs_subscribers",
			"Live job-event subscribers (SSE streams)."),
	}
}

// tracked is one job plus its runtime-only state.
type tracked struct {
	job Job
	// seq numbers this job's events; subs receive them live.
	seq     int
	subs    map[int]chan Event
	nextSub int
	// cancel aborts the job's run context; non-nil only while running.
	cancel context.CancelFunc
}

// Manager owns every job. Create with New, then Start; the zero value
// is not usable.
type Manager struct {
	cfg Config
	met jobMetrics

	ctx    context.Context
	cancel context.CancelFunc
	queue  chan string
	wg     sync.WaitGroup // job workers

	startOnce sync.Once
	stopOnce  sync.Once

	mu    sync.Mutex
	jobs  map[string]*tracked
	order []string // submission order, for listing and eviction
	nsubs int      // live subscribers over every job

	// ckptMu serializes snapshot writes so a slow write can never be
	// overtaken (and clobbered) by a newer one.
	ckptMu sync.Mutex
}

// New returns a Manager, loading the snapshot at cfg.Path when one
// exists. Like store.Open, New never fails operationally: a defective
// snapshot is discarded (jobs are lost, measurements are not — they
// live in the measurement store) and the returned error describes why.
// Call Start to begin executing; jobs submitted before Start queue up.
func New(cfg Config) (*Manager, error) {
	cfg = cfg.withDefaults()
	if cfg.Runner == nil {
		panic("jobs: Config.Runner is required")
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		cfg:    cfg,
		met:    newJobMetrics(cfg.Metrics),
		ctx:    ctx,
		cancel: cancel,
		queue:  make(chan string, 2*cfg.MaxJobs+16),
		jobs:   make(map[string]*tracked),
	}
	var err error
	if cfg.Path != "" {
		err = m.load()
		if err != nil {
			err = fmt.Errorf("jobs: snapshot %s discarded: %w", cfg.Path, err)
		}
	}
	return m, err
}

// Start launches the job workers and re-enqueues resumed pending
// jobs. Idempotent.
func (m *Manager) Start() {
	m.startOnce.Do(func() {
		m.mu.Lock()
		var resumed []string
		for _, id := range m.order {
			if t := m.jobs[id]; t.job.State == StatePending && t.job.Resumed {
				resumed = append(resumed, id)
			}
		}
		m.mu.Unlock()
		for _, id := range resumed {
			m.met.resumed.Inc()
			m.enqueue(id)
		}
		for i := 0; i < m.cfg.MaxRunning; i++ {
			m.wg.Add(1)
			go m.worker()
		}
	})
}

// Submit accepts one sweep and queues it for execution, returning the
// job record (state pending).
func (m *Manager) Submit(spec Spec) (Job, error) {
	if len(spec.Experiments) == 0 {
		return Job{}, errors.New("jobs: sweep lists no experiments")
	}
	if spec.Concurrency < 1 {
		spec.Concurrency = 1
	}
	if m.ctx.Err() != nil {
		return Job{}, ErrClosed
	}
	j := Job{
		ID:      newID(),
		Spec:    spec,
		State:   StatePending,
		Created: time.Now(),
		Items:   make([]Item, len(spec.Experiments)),
	}
	for i, id := range spec.Experiments {
		j.Items[i] = Item{ID: id, Status: ItemPending}
	}

	m.mu.Lock()
	if len(m.jobs) >= m.cfg.MaxJobs && !m.evictLocked() {
		m.mu.Unlock()
		return Job{}, ErrTooManyJobs
	}
	t := &tracked{job: j, subs: make(map[int]chan Event)}
	m.jobs[j.ID] = t
	m.order = append(m.order, j.ID)
	// Clone before releasing the lock: the tracked record shares the
	// local j's Items array, and a worker may start mutating it the
	// moment the job is enqueued.
	out := m.viewLocked(t)
	m.mu.Unlock()

	m.met.submitted.Inc()
	m.checkpoint()
	m.enqueue(j.ID)
	return out, nil
}

// evictLocked drops the oldest terminal job to make room, reporting
// whether it could. Caller holds m.mu.
func (m *Manager) evictLocked() bool {
	for i, id := range m.order {
		if t := m.jobs[id]; t != nil && t.job.State.Terminal() {
			delete(m.jobs, id)
			m.order = append(m.order[:i], m.order[i+1:]...)
			return true
		}
	}
	return false
}

func (m *Manager) enqueue(id string) {
	select {
	case m.queue <- id:
	default:
		// The queue is sized past MaxJobs, so this is unreachable in
		// practice; losing an enqueue would strand the job pending, so
		// fail loudly instead.
		m.cfg.Log.Error("jobs: queue overflow", "job", id)
	}
}

// Get returns a copy of the job.
func (m *Manager) Get(id string) (Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	t, ok := m.jobs[id]
	if !ok {
		return Job{}, false
	}
	return m.viewLocked(t), true
}

// List returns copies of every retained job, newest first.
func (m *Manager) List() []Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Job, 0, len(m.order))
	for i := len(m.order) - 1; i >= 0; i-- {
		out = append(out, m.viewLocked(m.jobs[m.order[i]]))
	}
	return out
}

// Stats is a point-in-time census for /v1/status.
type Stats struct {
	Total     int `json:"total"`
	Pending   int `json:"pending"`
	Running   int `json:"running"`
	Done      int `json:"done"`
	Failed    int `json:"failed,omitempty"`
	Cancelled int `json:"cancelled,omitempty"`
}

// Stats counts retained jobs by state.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := Stats{Total: len(m.jobs)}
	for _, t := range m.jobs {
		switch t.job.State {
		case StatePending:
			st.Pending++
		case StateRunning:
			st.Running++
		case StateDone:
			st.Done++
		case StateFailed:
			st.Failed++
		case StateCancelled:
			st.Cancelled++
		}
	}
	return st
}

// Cancel moves a job to cancelled. Running items are interrupted (and
// revert to pending — a cancelled job's record shows exactly what
// completed); cancelling a terminal job is a no-op. The returned Job
// reflects the state after the call.
func (m *Manager) Cancel(id string) (Job, error) {
	m.mu.Lock()
	t, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return Job{}, ErrUnknownJob
	}
	if t.job.State.Terminal() {
		j := t.job.clone()
		m.mu.Unlock()
		return j, nil
	}
	wasRunning := t.job.State == StateRunning
	now := time.Now()
	t.job.State = StateCancelled
	t.job.Finished = &now
	cancel := t.cancel
	j := t.job.clone()
	m.mu.Unlock()

	if wasRunning && cancel != nil {
		// runJob's finalize path emits the terminal event and
		// checkpoints once the item goroutines unwind.
		cancel()
		return j, nil
	}
	m.met.finished.With(string(StateCancelled)).Inc()
	m.emitState(id)
	m.checkpoint()
	return j, nil
}

// worker executes queued jobs until shutdown.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		select {
		case <-m.ctx.Done():
			return
		case id := <-m.queue:
			m.runJob(id)
		}
	}
}

// runJob executes one job: items in spec order, at most
// Spec.Concurrency in flight, each through cfg.Runner. Every item
// completion and the terminal transition are each an event and a
// checkpoint.
func (m *Manager) runJob(id string) {
	m.mu.Lock()
	t, ok := m.jobs[id]
	if !ok || t.job.State != StatePending {
		m.mu.Unlock()
		return // cancelled (or evicted) while queued
	}
	now := time.Now()
	t.job.State = StateRunning
	t.job.Started = &now
	jctx, cancel := context.WithCancel(m.ctx)
	t.cancel = cancel
	job := t.job.clone()
	m.mu.Unlock()
	defer cancel()

	m.met.running.Inc()
	defer m.met.running.Dec()
	m.emitState(id)
	m.checkpoint()

	ctx := jctx
	finish := func(State) {}
	if m.cfg.OnJobStart != nil {
		ctx, finish = m.cfg.OnJobStart(jctx, job)
	}

	sem := make(chan struct{}, job.Spec.Concurrency)
	var iwg sync.WaitGroup
	for i := range job.Items {
		if job.Items[i].Status != ItemPending {
			continue // resumed job: already measured before the restart
		}
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
		}
		if ctx.Err() != nil {
			break
		}
		m.mu.Lock()
		t.job.Items[i].Status = ItemRunning
		m.mu.Unlock()
		iwg.Add(1)
		go func(i int, itemID string) {
			defer iwg.Done()
			defer func() { <-sem }()
			start := time.Now()
			err := m.cfg.Runner(ctx, job, itemID)
			interrupted := ctx.Err() != nil && err != nil
			m.mu.Lock()
			it := &t.job.Items[i]
			switch {
			case interrupted:
				// Shutdown or cancellation, not an item failure: the
				// item reverts to pending so a resume re-measures it.
				it.Status = ItemPending
			case err != nil:
				it.Status = ItemError
				it.Error = err.Error()
				it.ElapsedMS = time.Since(start).Milliseconds()
			default:
				it.Status = ItemDone
				it.ElapsedMS = time.Since(start).Milliseconds()
			}
			m.mu.Unlock()
			if !interrupted {
				m.met.items.With(map[bool]string{true: "error", false: "done"}[err != nil]).Inc()
				m.emitItem(id, i)
				m.checkpoint()
			}
		}(i, job.Items[i].ID)
	}
	iwg.Wait()

	m.mu.Lock()
	t.cancel = nil
	if t.job.State == StateCancelled {
		m.mu.Unlock()
		m.met.finished.With(string(StateCancelled)).Inc()
		m.emitState(id)
		m.checkpoint()
		finish(StateCancelled)
		return
	}
	if m.ctx.Err() != nil {
		// Shutdown mid-run: revert to pending so the next boot (or
		// nobody, on Kill without a snapshot) resumes from the
		// checkpoint. Items already reverted above.
		t.job.State = StatePending
		t.job.Started = nil
		m.mu.Unlock()
		finish(StatePending)
		return
	}
	_, failed := t.job.Counts()
	final := StateDone
	if len(t.job.Items) > 0 && failed == len(t.job.Items) {
		final = StateFailed
		t.job.Error = "every item failed"
	}
	fin := time.Now()
	t.job.State = final
	t.job.Finished = &fin
	m.mu.Unlock()

	m.met.finished.With(string(final)).Inc()
	m.emitState(id)
	m.checkpoint()
	finish(final)
}

// Close shuts the manager down gracefully: running items are
// interrupted, interrupted jobs revert to pending, and a final
// checkpoint records that state so the next boot resumes them. Blocks
// until the workers exit.
func (m *Manager) Close() {
	m.stopOnce.Do(func() {
		m.cancel()
		m.wg.Wait()
		m.checkpoint()
	})
}

// Kill is the SIGKILL-shaped shutdown: like Close but without the
// final checkpoint — on-disk state is whatever the last per-item
// checkpoint wrote, exactly as if the process had died. Used when a
// forced shutdown must not block on IO, and by crash-resume tests.
// Blocks until the workers exit.
func (m *Manager) Kill() {
	m.stopOnce.Do(func() {
		m.cancel()
		m.wg.Wait()
	})
}

// newID returns a fresh 16-hex-char job id.
func newID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is a broken platform; fall back to a
		// time-derived id rather than refusing service.
		return fmt.Sprintf("%016x", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}
