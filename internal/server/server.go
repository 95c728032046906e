// Package server implements spec17d's HTTP characterization service:
// the full experiment suite of the reproduction served over JSON, with
// a keyed LRU result cache, singleflight request coalescing, and a
// bounded worker pool in front of the expensive fleet
// characterizations.
//
// Endpoints:
//
//	GET /v1/experiments                  experiment catalog
//	GET /v1/experiments/{id}?instructions=N&warmup=M
//	GET /v1/report?instructions=N&warmup=M
//	GET /healthz
//	GET /metrics                         Prometheus text exposition
//
// Results are cached by (experiment id, canonical RunOptions), encoded
// once when computed; the measurement substrate is deterministic, so
// cached entries never expire — identical options reproduce identical
// bytes. Concurrent requests for the same uncached key coalesce onto
// one computation, and at most Config.Workers computations run at
// once, so a stampede of distinct fidelities degrades into an orderly
// queue instead of characterizing the fleet N times concurrently.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/flight"
	"repro/internal/insight"
	"repro/internal/jobs"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// reportID is the internal cache identity of the full report; it is
// deliberately not a valid experiment id.
const reportID = "__report__"

// maxInstructions caps the per-run fidelity a request may ask for.
// Characterization cost is linear in this value; the cap keeps one
// request from tying up a worker for hours.
const maxInstructions = 10_000_000

// analyticCostDivisor discounts the admission price of analytic (and
// auto) requests by the tiers' nominal leaf-cost ratio: an analytic
// request consumes a proportionally smaller compute budget.
const analyticCostDivisor = float64(engine.ExactLeafCost / engine.AnalyticLeafCost)

// upgradeQueueCap bounds the exact upgrades pending at once. Auto
// requests beyond it are still answered (analytically); only the
// upgrade is dropped, and a later auto request re-queues it.
const upgradeQueueCap = 128

// maxHeaderBytes bounds per-connection request-header memory.
const maxHeaderBytes = 64 << 10

// Config configures a Server. The zero value is usable: every field
// has a sensible default.
type Config struct {
	// ResultCacheSize bounds the number of cached experiment results
	// (LRU-evicted). Defaults to 512.
	ResultCacheSize int
	// LabCacheSize bounds the number of retained Labs — one per
	// distinct fidelity, each holding a full fleet characterization.
	// Defaults to 4.
	LabCacheSize int
	// Workers bounds concurrent Lab computations. Defaults to 2.
	Workers int
	// SimWorkers bounds concurrent leaf simulations across every Lab
	// the server owns — the shared scheduler's worker count. Defaults
	// to GOMAXPROCS.
	SimWorkers int
	// BatchConcurrency bounds the experiments one batch request
	// evaluates at once. Defaults to 4.
	BatchConcurrency int
	// ReadHeaderTimeout bounds how long a connection may take to send
	// its request headers before being cut (slowloris defense).
	// Defaults to 10s.
	ReadHeaderTimeout time.Duration
	// ReadTimeout bounds reading an entire request, body included.
	// Zero (the default) disables it: Go arms the read deadline for
	// the whole exchange, so a nonzero value also aborts legitimately
	// long streaming responses (batches at high fidelity).
	ReadTimeout time.Duration
	// IdleTimeout bounds how long a keep-alive connection may sit idle
	// between requests. Defaults to 2m.
	IdleTimeout time.Duration
	// RateLimit is the per-client admission refill rate in tokens per
	// second (one token = one experiment at default fidelity; see
	// admission.Cost). 0 (the default) disables rate limiting.
	RateLimit float64
	// Burst is the per-client admission bucket capacity. <= 0 defaults
	// to max(RateLimit, 1) when rate limiting is on.
	Burst float64
	// MaxInFlight bounds concurrently admitted compute requests across
	// all clients. 0 disables the limit.
	MaxInFlight int
	// RequestTimeout is the server-side deadline for compute requests;
	// a request still working when it expires answers 504. 0 disables.
	RequestTimeout time.Duration
	// DefaultEngine is the measurement engine tier used when a request
	// does not pass ?engine=. Defaults to engine.TierExact; TierAuto
	// makes the daemon answer analytically and upgrade in the
	// background by default.
	DefaultEngine engine.Tier
	// JobsDisabled turns the async-job subsystem off: the /v1/jobs
	// routes are not registered and no job state is loaded.
	JobsDisabled bool
	// MaxJobs bounds retained async jobs (running and finished).
	// Defaults to 256.
	MaxJobs int
	// JobWorkers bounds concurrently executing async jobs. Defaults
	// to 2.
	JobWorkers int
	// JobsPath is the job-state snapshot file. Empty defaults to the
	// store's snapshot path + ".jobs" when the store persists; with no
	// persistent store, jobs are memory-only and do not survive
	// restarts.
	JobsPath string
	// WebhookTimeout bounds one job-webhook delivery attempt. 0
	// defaults to 5s; negative disables webhook delivery entirely.
	WebhookTimeout time.Duration
	// Store, when set, backs every Lab the server builds: measurements
	// are content-addressed, deduplicated across fidelities, and — when
	// the store has a snapshot path — survive restarts, so a warm
	// daemon answers its first report without simulating. Nil measures
	// directly.
	Store *store.Store
	// Metrics receives the server's instruments. Defaults to a fresh
	// registry, retrievable via Metrics().
	Metrics *metrics.Registry
	// Log receives access lines and request-level errors. Defaults to
	// an info-level structured logger on stderr.
	Log *slog.Logger
	// Tracer records per-request span trees, served by GET /v1/traces.
	// Nil disables tracing entirely: no X-Trace-Id header, no trace
	// ids in batch lines, and no per-request allocations for spans.
	Tracer *telemetry.Tracer
	// Insight is the self-monitoring plane (internal/insight). When
	// set, the server registers GET /v1/metrics/history, /v1/accuracy,
	// and /v1/events, reports insight state in /v1/status, and nudges
	// the drift monitor whenever a background exact upgrade lands. Nil
	// disables all of it — the routes 404 and compute responses are
	// byte-identical.
	Insight *insight.Plane
}

func (c Config) withDefaults() Config {
	if c.ResultCacheSize <= 0 {
		c.ResultCacheSize = 512
	}
	if c.LabCacheSize <= 0 {
		c.LabCacheSize = 4
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.BatchConcurrency <= 0 {
		c.BatchConcurrency = 4
	}
	if c.ReadHeaderTimeout <= 0 {
		c.ReadHeaderTimeout = 10 * time.Second
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 2 * time.Minute
	}
	if c.DefaultEngine == "" {
		c.DefaultEngine = engine.TierExact
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 256
	}
	if c.JobWorkers <= 0 {
		c.JobWorkers = 2
	}
	if c.WebhookTimeout == 0 {
		c.WebhookTimeout = 5 * time.Second
	}
	if c.JobsPath == "" && c.Store != nil && c.Store.Path() != "" {
		c.JobsPath = c.Store.Path() + ".jobs"
	}
	if c.Metrics == nil {
		c.Metrics = metrics.NewRegistry()
	}
	if c.Log == nil {
		c.Log = telemetry.NewLogger(os.Stderr, slog.LevelInfo)
	}
	return c
}

// serverMetrics bundles every instrument the server records.
type serverMetrics struct {
	requests      *metrics.CounterVec // endpoint, code
	latency       *metrics.HistogramVec
	cacheHits     *metrics.Counter
	cacheMisses   *metrics.Counter
	cacheEntries  *metrics.Gauge
	coalesced     *metrics.Counter
	computations  *metrics.Counter
	inflight      *metrics.Gauge
	batchInflight *metrics.Gauge
	batchItems    *metrics.HistogramVec
	engineServed  *metrics.CounterVec // engine (concrete tier)
	upgrades      *metrics.CounterVec // status
	upgradeDepth  *metrics.Gauge
}

func newServerMetrics(r *metrics.Registry) serverMetrics {
	return serverMetrics{
		requests: r.CounterVec("spec17d_requests_total",
			"HTTP requests served, by route pattern and status code.",
			"endpoint", "code"),
		latency: r.HistogramVec("spec17d_request_duration_seconds",
			"HTTP request latency, by route pattern.",
			nil, "endpoint"),
		cacheHits: r.Counter("spec17d_cache_hits_total",
			"Experiment requests answered from the result cache."),
		cacheMisses: r.Counter("spec17d_cache_misses_total",
			"Experiment requests that found no cached result."),
		cacheEntries: r.Gauge("spec17d_cache_entries",
			"Result-cache entries currently resident."),
		coalesced: r.Counter("spec17d_coalesced_waiters_total",
			"Requests that coalesced onto another request's in-flight computation."),
		computations: r.Counter("spec17d_computations_total",
			"Lab computations actually executed (cache misses that led the flight)."),
		inflight: r.Gauge("spec17d_inflight_jobs",
			"Lab computations currently running."),
		batchInflight: r.Gauge("spec17_batch_inflight",
			"Batch requests currently streaming."),
		batchItems: r.HistogramVec("spec17_batch_item_duration_seconds",
			"Per-experiment latency within batch streams, submission to emitted line.",
			nil, "experiment"),
		engineServed: r.CounterVec("spec17d_engine_requests_total",
			"Compute requests served, by concrete engine tier (auto counts as the tier it resolved to).",
			"engine"),
		upgrades: r.CounterVec("spec17d_engine_upgrades_total",
			"Background exact upgrades of analytically-served keys, by status (queued, done, failed, dropped).",
			"status"),
		upgradeDepth: r.Gauge("spec17d_engine_upgrade_queue_depth",
			"Exact upgrades pending: waiting for or holding a background-lane slot."),
	}
}

// Server serves the experiment suite. Create with New; the zero value
// is not usable.
type Server struct {
	cfg     Config
	met     serverMetrics
	mux     *http.ServeMux
	routes  []routeDef
	started time.Time

	flight flight.Group[[]byte]
	sem    chan struct{}         // worker-pool slots (interactive requests)
	pool   *sched.Pool           // shared simulation scheduler
	queue  *sched.Queue          // the server's queue on pool (uncapped)
	adm    *admission.Controller // overload-protection gate

	// The background lane runs job items and exact upgrades. jobsSem
	// bounds its computations strictly below Workers when Workers > 1,
	// and jobsQueue is a scheduler queue capped one below the pool's
	// worker count when it has more than one, so background work whose
	// items all stall can never hold every worker slot or simulation
	// worker interactive traffic needs. Where Workers or the pool has
	// just one, the lane may take it and interactive work queues
	// behind it.
	jobsSem   chan struct{}
	jobsQueue *sched.Queue

	// jobs is the async-job subsystem (nil when JobsDisabled).
	jobs      *jobs.Manager
	jobsStart sync.Once
	// jobsRunner executes one job item; defaults to runJobItem.
	// Overridable in tests (before the first Handler call) to observe
	// or interrupt job execution.
	jobsRunner func(ctx context.Context, j jobs.Job, item string) error

	// draining is set once Shutdown begins; computation endpoints then
	// answer 503 instead of starting work the drain deadline would
	// abandon (keep-alive connections can still submit requests while
	// the listener drains).
	draining atomic.Bool

	mu      sync.Mutex
	results *lru // cacheKey -> encoded result (see encodeResult)
	labs    *lru // (fidelity, engine) key -> *experiments.Lab

	// upgradePending (guarded by mu) dedups pending exact upgrades by
	// their exact-tier cache key. upgradeCtx is canceled on shutdown.
	upgradePending map[string]bool
	upgradeCtx     context.Context
	upgradeCancel  context.CancelFunc

	// compute produces one experiment (or reportID) result at the
	// given fidelity on the given concrete engine tier. Overridden in
	// tests to observe and control the computation path; the default
	// runs the experiment registry on a cached Lab. The context is the
	// flight's: canceled when every waiting request has disconnected.
	// background marks job items and exact upgrades, which run on the
	// background lane instead of the interactive one.
	compute func(ctx context.Context, id string, opts machine.RunOptions, tier engine.Tier, background bool) (any, error)
	// computeStarted, when set (tests), is invoked by the flight
	// leader right before compute.
	computeStarted func(key string)

	httpMu  sync.Mutex
	httpSrv *http.Server
}

// New returns a Server ready to serve via Handler, Serve, or
// ListenAndServe.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		met:     newServerMetrics(cfg.Metrics),
		started: time.Now(),
		sem:     make(chan struct{}, cfg.Workers),
		pool:    sched.NewPool(cfg.SimWorkers, cfg.Metrics),
		adm: admission.New(admission.Config{
			Rate:        cfg.RateLimit,
			Burst:       cfg.Burst,
			MaxInFlight: cfg.MaxInFlight,
			Metrics:     cfg.Metrics,
		}),
		results:        newLRU(cfg.ResultCacheSize),
		labs:           newLRU(cfg.LabCacheSize),
		upgradePending: make(map[string]bool),
	}
	s.queue = s.pool.Queue(0)
	s.jobsQueue = s.pool.Queue(max(s.pool.Workers()-1, 1))
	s.jobsSem = make(chan struct{}, max(cfg.Workers-1, 1))
	s.compute = s.runExperiment
	s.upgradeCtx, s.upgradeCancel = context.WithCancel(context.Background())

	if !cfg.JobsDisabled {
		s.jobsRunner = s.runJobItem
		s.newJobManager()
	}

	s.routes = s.routeTable()
	s.mux = s.newMux()
	return s
}

// Metrics returns the registry holding the server's instruments.
func (s *Server) Metrics() *metrics.Registry { return s.cfg.Metrics }

// Handler returns the server's HTTP handler, for mounting in tests or
// a caller-owned http.Server. The first call starts the async-job
// workers (so tests can swap the job runner between New and Handler).
func (s *Server) Handler() http.Handler {
	s.jobsStart.Do(func() {
		if s.jobs != nil {
			s.jobs.Start()
		}
	})
	return s.mux
}

// Serve accepts connections on l until Shutdown. It returns nil after
// a clean shutdown.
func (s *Server) Serve(l net.Listener) error {
	srv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: s.cfg.ReadHeaderTimeout,
		ReadTimeout:       s.cfg.ReadTimeout,
		IdleTimeout:       s.cfg.IdleTimeout,
		MaxHeaderBytes:    maxHeaderBytes,
	}
	s.httpMu.Lock()
	s.httpSrv = srv
	s.httpMu.Unlock()
	if err := srv.Serve(l); err != http.ErrServerClosed {
		return err
	}
	return nil
}

// ListenAndServe listens on addr and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(l)
}

// Shutdown stops accepting new connections and blocks until in-flight
// requests drain (or ctx expires). Computation endpoints refuse new
// work with 503/"draining" for the duration. Safe to call before
// Serve.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.upgradeCancel()
	if s.jobs != nil {
		// Graceful: interrupt running items, revert them to pending, and
		// write a final checkpoint so the next boot resumes mid-sweep.
		s.jobs.Close()
	}
	s.httpMu.Lock()
	srv := s.httpSrv
	s.httpMu.Unlock()
	if srv == nil {
		return nil
	}
	return srv.Shutdown(ctx)
}

// Close immediately closes the listener and every active connection,
// abandoning in-flight requests. It is the escape hatch when a drain
// must be cut short (e.g. a second termination signal). Safe to call
// before Serve or after Shutdown.
func (s *Server) Close() error {
	s.draining.Store(true)
	s.upgradeCancel()
	if s.jobs != nil {
		// SIGKILL-shaped: no final checkpoint — on-disk job state stays
		// whatever the last per-item checkpoint wrote.
		s.jobs.Kill()
	}
	s.httpMu.Lock()
	srv := s.httpSrv
	s.httpMu.Unlock()
	if srv == nil {
		return nil
	}
	return srv.Close()
}

// cacheKey is the identity of one result: experiment id × canonical
// run options × concrete engine tier. Requests spelling the same
// fidelity differently (explicit defaults vs omitted) share a key; the
// exact tier adds no suffix, so keys cached before engines existed
// keep their identity.
func cacheKey(id string, opts machine.RunOptions, tier engine.Tier) string {
	c := opts.Canonical()
	k := id + "?i=" + strconv.Itoa(c.Instructions) + "&w=" + strconv.Itoa(c.WarmupInstructions)
	if tier != "" && tier != engine.TierExact {
		k += "&e=" + string(tier)
	}
	return k
}

// labFor returns the Lab for one (fidelity, engine tier), creating and
// caching it on first use. Labs build their fleet characterization
// lazily, so creation is cheap; the LRU bound caps how many full
// characterizations stay resident. Background work gets its own Labs
// on the capped background queue, so its leaf simulations never
// occupy every pool worker of a pool with more than one; the
// measurement store underneath is shared, so the bytes computed are
// identical either way.
func (s *Server) labFor(opts machine.RunOptions, tier engine.Tier, background bool) (*experiments.Lab, error) {
	key := cacheKey("", opts, tier)
	queue := s.queue
	if background {
		key = "jobs|" + key
		queue = s.jobsQueue
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if v, ok := s.labs.get(key); ok {
		return v.(*experiments.Lab), nil
	}
	eng, err := engine.New(tier)
	if err != nil {
		return nil, err
	}
	lab := experiments.NewLabWithEngine(opts.Canonical(), s.cfg.Store, queue, eng)
	s.labs.put(key, lab)
	return lab, nil
}

// runExperiment is the default compute path: resolve the registry
// entry (or the full report) and run it on the (fidelity, tier)'s
// shared Lab under the flight's context.
func (s *Server) runExperiment(ctx context.Context, id string, opts machine.RunOptions, tier engine.Tier, background bool) (any, error) {
	lab, err := s.labFor(opts, tier, background)
	if err != nil {
		return nil, err
	}
	lab = lab.WithContext(ctx)
	if id == reportID {
		return experiments.BuildReport(lab)
	}
	d, ok := experiments.Lookup(id)
	if !ok {
		return nil, experiments.UnknownIDError(id)
	}
	return d.Run(lab)
}

// encodeResult encodes a computed result once, as the bytes every
// response carrying it writes: indented for depth 1 of a response
// envelope (its first line unprefixed, every later one prefixed), so
// writeResult splices them in as they are, and compacted back by the
// NDJSON lines' encoder. On a traced request the encode is an "encode"
// span on the flight leader's trace.
func encodeResult(ctx context.Context, v any) ([]byte, error) {
	_, span := telemetry.StartSpan(ctx, "encode")
	b, err := json.MarshalIndent(v, "  ", "  ")
	if span != nil {
		span.SetAttr("bytes", strconv.Itoa(len(b)))
		span.End()
	}
	if err != nil {
		return nil, fmt.Errorf("encoding result: %w", err)
	}
	// MarshalIndent sizes its buffer for twice the compact encoding;
	// the cache keeps the bytes, not that spare capacity.
	return bytes.Clone(b), nil
}

// fetch returns the encoded result for (id, opts), serving from cache
// when possible, coalescing concurrent misses for the same key and
// lane onto one computation, and bounding concurrent computations by
// the lane's worker slots. Flights are keyed by lane, the way labFor
// keys Labs, so an interactive request never waits in a background
// flight queued on jobsSem, nor background work rides an interactive
// slot; the result cache is shared. A result that fails to encode
// fails the flight and is not cached. Canceling ctx abandons this
// caller's wait; a computation all of whose callers have disconnected
// is itself canceled.
func (s *Server) fetch(ctx context.Context, id string, opts machine.RunOptions, tier engine.Tier, background bool) (body []byte, cached, coalesced bool, err error) {
	key := cacheKey(id, opts, tier)
	s.mu.Lock()
	if v, ok := s.results.get(key); ok {
		s.mu.Unlock()
		s.met.cacheHits.Inc()
		return v.([]byte), true, false, nil
	}
	s.mu.Unlock()
	s.met.cacheMisses.Inc()

	// The flight context carries the leading caller's span; callers
	// that coalesce onto the flight share its result, not its spans.
	flightKey, sem := key, s.sem
	if background {
		flightKey, sem = "jobs|"+key, s.jobsSem
	}
	body, err, joined := s.flight.Do(ctx, flightKey, func(fctx context.Context) ([]byte, error) {
		select {
		case sem <- struct{}{}: // acquire a worker slot
		case <-fctx.Done():
			return nil, fctx.Err() // every waiter left while queued
		}
		defer func() { <-sem }()
		// A result may have landed while this flight queued behind
		// the worker pool (e.g. an identical flight finished between
		// our cache miss and our turn).
		s.mu.Lock()
		if v, ok := s.results.get(key); ok {
			s.mu.Unlock()
			return v.([]byte), nil
		}
		s.mu.Unlock()

		s.met.inflight.Inc()
		defer s.met.inflight.Dec()
		if s.computeStarted != nil {
			s.computeStarted(key)
		}
		s.met.computations.Inc()
		v, err := s.compute(fctx, id, opts, tier, background)
		if err != nil {
			return nil, err
		}
		b, err := encodeResult(fctx, v)
		if err != nil {
			return nil, err
		}
		s.mu.Lock()
		s.results.put(key, b)
		n := s.results.len()
		s.mu.Unlock()
		s.met.cacheEntries.Set(float64(n))
		return b, nil
	})
	if joined {
		s.met.coalesced.Inc()
	}
	return body, false, joined, err
}

// serve answers one compute request for (id, opts) at the requested
// tier: it merges the server default, resolves auto (exact when the
// exact result is cached, else analytic with an exact upgrade queued),
// counts the concrete tier served, tags the context's span with it,
// and fetches the result. Every compute caller goes through here.
func (s *Server) serve(ctx context.Context, id string, opts machine.RunOptions, reqTier engine.Tier, background bool) (served, error) {
	if reqTier == "" {
		reqTier = s.cfg.DefaultEngine
	}
	res := served{tier: reqTier}
	if reqTier == engine.TierAuto {
		s.mu.Lock()
		_, ok := s.results.get(cacheKey(id, opts, engine.TierExact))
		s.mu.Unlock()
		if ok {
			res.tier = engine.TierExact
		} else {
			res.tier = engine.TierAnalytic
			res.upgrading = s.queueUpgrade(id, opts)
		}
	}
	s.met.engineServed.With(string(res.tier)).Inc()
	telemetry.FromContext(ctx).SetAttr("engine", string(res.tier))
	var err error
	res.body, res.cached, res.coalesced, err = s.fetch(ctx, id, opts, res.tier, background)
	return res, err
}

// served is one answered compute request.
type served struct {
	body              []byte      // the result, as encodeResult wrote it
	tier              engine.Tier // the concrete tier that produced body
	upgrading         bool        // an exact upgrade is pending (auto only)
	cached, coalesced bool
}

// queueUpgrade starts a background exact re-measurement of (id, opts)
// unless one is already pending, and reports whether one now is. At
// most upgradeQueueCap upgrades are pending at once; past that the
// upgrade is dropped, and a later auto request re-queues it.
func (s *Server) queueUpgrade(id string, opts machine.RunOptions) bool {
	if s.draining.Load() {
		return false
	}
	key := cacheKey(id, opts, engine.TierExact)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.upgradePending[key] {
		return true
	}
	if len(s.upgradePending) >= upgradeQueueCap {
		s.met.upgrades.With("dropped").Inc()
		return false
	}
	s.upgradePending[key] = true
	s.met.upgradeDepth.Set(float64(len(s.upgradePending)))
	s.met.upgrades.With("queued").Inc()
	go s.upgrade(id, opts, key)
	return true
}

// upgrade runs the ordinary fetch path at the exact tier on the
// background lane, so the result lands in the result cache (and the
// measurements in the store) exactly as a direct engine=exact
// request's would — later auto requests serve it bit-identically.
func (s *Server) upgrade(id string, opts machine.RunOptions, key string) {
	_, _, _, err := s.fetch(s.upgradeCtx, id, opts, engine.TierExact, true)
	s.mu.Lock()
	delete(s.upgradePending, key)
	s.met.upgradeDepth.Set(float64(len(s.upgradePending)))
	s.mu.Unlock()
	if err != nil {
		s.met.upgrades.With("failed").Inc()
		if s.upgradeCtx.Err() == nil {
			s.cfg.Log.Warn("exact upgrade failed", "what", id, "err", err)
		}
		return
	}
	s.met.upgrades.With("done").Inc()
	// The exact twin of an analytically-served key just landed in the
	// store: let the drift monitor compare the pair now instead of
	// waiting for its next tick.
	if ins := s.cfg.Insight; ins != nil {
		ins.Drift().Scan()
	}
}

// price is the admission cost of n experiments at the given fidelity
// on the requested tier (empty: the server default). Analytic and auto
// requests, which serve analytically when cold, pay the estimator's
// measured cost advantage.
func (s *Server) price(instructions, n int, reqTier engine.Tier) float64 {
	cost := admission.Cost(instructions, n)
	if reqTier == "" {
		reqTier = s.cfg.DefaultEngine
	}
	if reqTier == engine.TierAnalytic || reqTier == engine.TierAuto {
		cost /= analyticCostDivisor
	}
	return cost
}

// parseRunOptions extracts ?instructions=, ?warmup=, and ?engine= and
// validates them (options through checkFidelity, the engine through
// engine.ParseTier), so range errors are caught right here at parse
// time. The route wrapper has already rejected unknown, duplicated
// and empty parameters. An absent ?engine= returns the zero Tier; the
// caller substitutes the server's default.
func parseRunOptions(r *http.Request) (machine.RunOptions, engine.Tier, error) {
	var opts machine.RunOptions
	var tier engine.Tier
	q := r.URL.Query()
	if v := q.Get("instructions"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			return opts, tier, fmt.Errorf("instructions=%q: must be a positive integer", v)
		}
		opts.Instructions = n
	}
	if v := q.Get("warmup"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return opts, tier, fmt.Errorf("warmup=%q: must be a non-negative integer", v)
		}
		opts.WarmupInstructions = n
	}
	if v := q.Get("engine"); v != "" {
		t, err := engine.ParseTier(v)
		if err != nil {
			return opts, tier, err
		}
		tier = t
	}
	return opts, tier, checkFidelity(opts)
}

// checkFidelity applies the fidelity limits every compute endpoint
// shares: the maxInstructions cap, then machine.RunOptions.Validate.
func checkFidelity(opts machine.RunOptions) error {
	if opts.Instructions > maxInstructions {
		return fmt.Errorf("instructions=%d exceeds the maximum %d", opts.Instructions, maxInstructions)
	}
	if opts.WarmupInstructions > maxInstructions {
		return fmt.Errorf("warmup=%d exceeds the maximum %d", opts.WarmupInstructions, maxInstructions)
	}
	return opts.Validate()
}

// computeStatus maps a computation failure to a status and error
// code: a server-side deadline expiry is 504/deadline_exceeded, other
// cancellations (the client has gone away, or the drain abandoned the
// wait) are 499/canceled — the nginx "client closed request"
// convention — and everything else is 500/internal. An admitted
// computation is never shed, so none of them is a 429.
func computeStatus(r *http.Request, err error) (int, string) {
	switch {
	case !flight.IsCanceled(err):
		return http.StatusInternalServerError, codeInternal
	case r.Context().Err() == context.DeadlineExceeded:
		return http.StatusGatewayTimeout, codeDeadlineExceeded
	}
	return 499, codeCanceled
}

// writeComputeError answers a computation failure in the envelope.
func (s *Server) writeComputeError(w http.ResponseWriter, r *http.Request, what string, err error) {
	s.cfg.Log.Error("compute failed", "what", what, "err", err)
	switch status, code := computeStatus(r, err); status {
	case http.StatusGatewayTimeout:
		writeError(w, status, code, "request exceeded the server-side deadline", nil)
	default:
		writeError(w, status, code, err.Error(), nil)
	}
}

// retryAfterSeconds turns a rejection into integer Retry-After
// seconds: the admission layer's own earliest-retry estimate, clamped
// to [1s, 5m].
func retryAfterSeconds(hint time.Duration) int {
	return min(max(int(math.Ceil(hint.Seconds())), 1), 300)
}

// writeShed answers 429/too_many_requests with a Retry-After header.
// hint, when nonzero, is the admission layer's own earliest-retry
// estimate.
func writeShed(w http.ResponseWriter, message string, hint time.Duration) {
	w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(hint)))
	writeError(w, http.StatusTooManyRequests, codeTooManyRequests, message, nil)
}

// refuseDraining answers 503 when the server is shutting down.
func (s *Server) refuseDraining(w http.ResponseWriter) bool {
	if !s.draining.Load() {
		return false
	}
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusServiceUnavailable, codeDraining,
		"server is draining; retry against another instance", nil)
	return true
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.cfg.Metrics.WritePrometheus(w); err != nil {
		s.cfg.Log.Error("writing /metrics", "err", err)
	}
}

// catalogEntry is one row of the /v1/experiments listing.
type catalogEntry struct {
	ID    string `json:"id"`
	Title string `json:"title"`
	Kind  string `json:"kind"`
}

// handleCatalog is GET /v1/experiments: the registry listing, windowed
// by ?limit=/?offset=. The full registry size always rides along as
// the X-Total-Count header (and the total field), so paging clients
// know when to stop without a sentinel request.
func (s *Server) handleCatalog(w http.ResponseWriter, r *http.Request) {
	page, err := parsePage(r.URL.Query())
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadOptions, err.Error(), nil)
		return
	}
	descs := experiments.Registry()
	lo, hi := page.window(len(descs))
	entries := make([]catalogEntry, 0, hi-lo)
	for _, d := range descs[lo:hi] {
		entries = append(entries, catalogEntry{ID: d.ID, Title: d.Title, Kind: d.Kind})
	}
	w.Header().Set("X-Total-Count", strconv.Itoa(len(descs)))
	writeJSON(w, http.StatusOK, struct {
		Total       int            `json:"total"`
		Count       int            `json:"count"`
		Offset      int            `json:"offset"`
		Experiments []catalogEntry `json:"experiments"`
	}{len(descs), len(entries), lo, entries})
}

// experimentResponse is the /v1/experiments/{id} envelope; the body
// is the envelope with the result spliced in after it, as a last
// "result" field (see writeResult).
type experimentResponse struct {
	ID           string `json:"id"`
	Title        string `json:"title"`
	Kind         string `json:"kind"`
	Instructions int    `json:"instructions"`
	Warmup       int    `json:"warmup"`
	// Engine is the concrete tier that produced the result; an
	// engine=auto request answers "analytic" until its background
	// upgrade lands, then "exact".
	Engine string `json:"engine"`
	// UpgradePending is set on auto requests whose exact upgrade is
	// queued or running.
	UpgradePending bool `json:"upgrade_pending,omitempty"`
	Cached         bool `json:"cached"`
	Coalesced      bool `json:"coalesced,omitempty"`
}

// reportResponse is the /v1/report envelope; the report is spliced in
// after it as a last "report" field.
type reportResponse struct {
	Instructions   int    `json:"instructions"`
	Warmup         int    `json:"warmup"`
	Engine         string `json:"engine"`
	UpgradePending bool   `json:"upgrade_pending,omitempty"`
	Cached         bool   `json:"cached"`
	Coalesced      bool   `json:"coalesced,omitempty"`
}

func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	if s.refuseDraining(w) {
		return
	}
	id := r.PathValue("id")
	d, ok := experiments.Lookup(id)
	if !ok {
		writeError(w, http.StatusNotFound, codeUnknownExperiment,
			experiments.UnknownIDError(id).Error(), experiments.SortedIDs())
		return
	}
	opts, reqTier, err := parseRunOptions(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadOptions, err.Error(), nil)
		return
	}
	telemetry.FromContext(r.Context()).SetAttr("experiment", id)
	res, err := s.serve(r.Context(), id, opts, reqTier, false)
	if err != nil {
		s.writeComputeError(w, r, id, err)
		return
	}
	canon := opts.Canonical()
	writeResult(w, experimentResponse{
		ID:             d.ID,
		Title:          d.Title,
		Kind:           d.Kind,
		Instructions:   canon.Instructions,
		Warmup:         canon.WarmupInstructions,
		Engine:         string(res.tier),
		UpgradePending: res.upgrading,
		Cached:         res.cached,
		Coalesced:      res.coalesced,
	}, resultField, res.body)
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	if s.refuseDraining(w) {
		return
	}
	opts, reqTier, err := parseRunOptions(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadOptions, err.Error(), nil)
		return
	}
	telemetry.FromContext(r.Context()).SetAttr("experiment", "report")
	res, err := s.serve(r.Context(), reportID, opts, reqTier, false)
	if err != nil {
		s.writeComputeError(w, r, "report", err)
		return
	}
	canon := opts.Canonical()
	writeResult(w, reportResponse{canon.Instructions, canon.WarmupInstructions,
		string(res.tier), res.upgrading, res.cached, res.coalesced}, reportField, res.body)
}

// statusWriter captures the response code and body size for
// instrumentation and access logging.
type statusWriter struct {
	http.ResponseWriter
	code  int
	bytes int64
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// Flush forwards to the wrapped writer so streaming handlers (the
// batch endpoint) can flush per line through the instrumentation
// layer.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// clientKey identifies the client for per-client admission budgets:
// the X-API-Key header when present, else the connection's remote IP
// (port stripped, so one host's keep-alive connections share a
// bucket).
func clientKey(r *http.Request) string {
	if k := r.Header.Get("X-API-Key"); k != "" {
		return k
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// estimateCost prices a request for admission before any work starts,
// from nothing but the route and query: experiments charge for one
// workload, the report for every registered one — both scaled by the
// requested fidelity. Batch requests enter at zero; their items are
// priced individually as the stream reaches them. Unparseable options
// price at the default (the 400 comes later, after admission).
func (s *Server) estimateCost(r *http.Request, endpoint string) float64 {
	n := 0
	switch endpoint {
	case "/v1/experiments/{id}":
		n = 1
	case "/v1/report":
		n = len(experiments.Registry())
	case "/v1/jobs":
		// Submitting a sweep costs a flat token; the sweep's items are
		// charged one by one (blocking, not shedding) as they execute.
		return 1
	default:
		return 0
	}
	q := r.URL.Query()
	instr, _ := strconv.Atoi(q.Get("instructions"))
	return s.price(instr, n, engine.Tier(q.Get("engine")))
}

// admit runs the admission gate for one compute request: claim a
// global in-flight slot, then charge the client's token bucket. It
// writes the 429 itself on rejection. The returned release function
// (nil on rejection) must be called when the request finishes; the
// returned span timing lands on the request's trace as an
// admission.wait span so admission overhead is visible per request.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, endpoint string) (release func(), ok bool) {
	start := time.Now()
	record := func(decision string) {
		if sp := telemetry.FromContext(r.Context()); sp != nil {
			sp.Record("admission.wait", start, time.Now(),
				"client", clientKey(r), "decision", decision)
		}
	}
	if !s.adm.AcquireInFlight() {
		record(admission.ReasonInFlight)
		writeShed(w, "too many requests in flight; retry later", 0)
		return nil, false
	}
	cost := s.estimateCost(r, endpoint)
	if dec := s.adm.Admit(clientKey(r), cost); !dec.OK {
		s.adm.ReleaseInFlight()
		record(dec.Reason)
		writeShed(w, fmt.Sprintf("rate limit exceeded (request cost %.3g tokens)", cost), dec.RetryAfter)
		return nil, false
	}
	record("admitted")
	return s.adm.ReleaseInFlight, true
}

// instrument wraps a handler with request counting, latency recording,
// and an access log line, labelled by route pattern (never by raw
// path, to keep metric cardinality bounded). When traced is set and
// the server has a Tracer, the request runs under a root http.request
// span — honoring an inbound X-Request-Id as the trace id and echoing
// the id back as X-Trace-Id — so everything the handler touches
// (flights, scheduler jobs, store computes, analysis stages) lands in
// one span tree. With no Tracer the traced path adds nothing: no
// header, no allocations, byte-identical responses.
//
// Traced endpoints are exactly the compute endpoints, so the same flag
// also arms overload protection: the admission gate (in-flight slot +
// per-client token charge) and the server-side request deadline. The
// observability surface stays ungated — a saturated daemon must still
// answer /v1/status and /metrics.
func (s *Server) instrument(endpoint string, traced bool, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		var span *telemetry.Span
		if traced {
			if s.cfg.RequestTimeout > 0 {
				ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
				defer cancel()
				r = r.WithContext(ctx)
			}
			var ctx context.Context
			ctx, span = s.cfg.Tracer.StartTrace(r.Context(), "http.request",
				r.Header.Get("X-Request-Id"),
				"method", r.Method, "endpoint", endpoint)
			if span != nil {
				w.Header().Set("X-Trace-Id", span.TraceID())
				r = r.WithContext(ctx)
			}
		}
		if !traced {
			h(sw, r)
		} else if release, ok := s.admit(sw, r, endpoint); ok {
			func() {
				defer release()
				h(sw, r)
			}()
		}
		if span != nil {
			span.SetAttr("status", strconv.Itoa(sw.code))
			span.End()
		}
		dur := time.Since(start)
		s.met.requests.With(endpoint, strconv.Itoa(sw.code)).Inc()
		s.met.latency.With(endpoint).Observe(dur.Seconds())
		// Sized for the optional trace, so the slice stays on the stack.
		attrs := append(make([]slog.Attr, 0, 7),
			slog.String("method", r.Method), slog.String("path", r.URL.Path),
			slog.String("endpoint", endpoint), slog.Int("status", sw.code),
			slog.Int64("bytes", sw.bytes), slog.Duration("dur", dur))
		if span != nil {
			attrs = append(attrs, slog.String("trace", span.TraceID()))
		}
		s.cfg.Log.LogAttrs(r.Context(), slog.LevelInfo, "request", attrs...)
	}
}
