// Package admission is spec17d's overload-protection layer: the
// dependency-free admission controller that decides, before any work
// is queued, whether a request may enter the system at all. It
// complements the layers below it — the result cache absorbs repeats,
// singleflight absorbs stampedes, the scheduler bounds concurrency —
// by bounding *acceptance*: without it the daemon accepts unbounded
// work and one burst of expensive requests queues minutes of latent
// computation that outlives every interested client.
//
// Three mechanisms, all optional (zero disables each):
//
//   - A token-bucket rate limiter keyed per client (API key, falling
//     back to remote IP). Buckets refill at Rate tokens/sec up to
//     Burst; a request is admitted only if its cost fits the bucket.
//   - A cost model (Cost) that charges by instructions × workloads,
//     normalized so one experiment at default fidelity costs 1 token —
//     a full report at maximum fidelity cannot hide behind the same
//     budget as a cache hit.
//   - A global in-flight limiter bounding concurrently admitted
//     compute requests, independent of per-client budgets.
//
// These are the daemon's only load shedding: a request is refused
// whole, before any of its work starts, and an admitted request is
// never shed part-way. Rejections are counted in
// spec17_admission_rejected_total{reason}.
// Every method on a nil *Controller admits, so call sites need no
// enabled-checks.
package admission

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// Rejection reasons, used both as the metric's reason label and as
// machine-readable detail in error envelopes.
const (
	ReasonRateLimited = "rate_limited" // per-client token bucket empty
	ReasonInFlight    = "inflight"     // global in-flight limit reached
)

// DefaultCostInstructions is the instruction count that costs one
// token for one workload: the measurement default (see
// machine.RunOptions), so `GET /v1/experiments/{id}` with no options
// costs exactly 1.
const DefaultCostInstructions = 400_000

// maxClients bounds the bucket table; beyond it, fully refilled
// buckets (for which eviction is free) are swept, then the least
// recently used one is dropped.
const maxClients = 4096

// Cost charges a request by instructions × workloads, in tokens. One
// workload at the default fidelity costs 1; cost scales linearly in
// both dimensions and never drops below 1, so even a cache hit spends
// a token — admission happens before the cache is consulted.
func Cost(instructions, workloads int) float64 {
	if instructions <= 0 {
		instructions = DefaultCostInstructions
	}
	if workloads < 1 {
		workloads = 1
	}
	c := float64(instructions) * float64(workloads) / DefaultCostInstructions
	if c < 1 {
		return 1
	}
	return c
}

// Config configures a Controller. The zero value admits everything.
type Config struct {
	// Rate is the per-client refill rate in tokens per second.
	// 0 disables rate limiting entirely.
	Rate float64
	// Burst is the per-client bucket capacity. <= 0 defaults to
	// max(Rate, 1). A request costing more than Burst is charged Burst
	// (it drains a full bucket) rather than being unservable forever.
	Burst float64
	// MaxInFlight bounds concurrently admitted compute requests across
	// all clients. 0 disables the in-flight limit.
	MaxInFlight int
	// Metrics receives spec17_admission_rejected_total. Nil uses a
	// private registry.
	Metrics *metrics.Registry
	// Now is the clock, overridable in tests. Nil uses time.Now.
	Now func() time.Time
}

// Decision is the outcome of one admission check.
type Decision struct {
	OK bool
	// Reason is the rejection reason (one of the Reason* constants);
	// empty when admitted.
	Reason string
	// RetryAfter estimates when retrying could succeed: for a rate
	// rejection, the refill time for the request's cost. Zero when
	// admitted or when no estimate exists (in-flight rejections depend
	// on other requests finishing, not on time).
	RetryAfter time.Duration
}

var admitted = Decision{OK: true}

// bucket is one client's token bucket.
type bucket struct {
	tokens  float64   // tokens available at `updated`
	updated time.Time // last refill
	lastUse time.Time // last Admit touching this bucket (LRU eviction)
}

// Controller applies the configured limits. Create with New; a nil
// *Controller admits everything.
type Controller struct {
	cfg      Config
	rejected *metrics.CounterVec

	inflight atomic.Int64

	mu         sync.Mutex
	buckets    map[string]*bucket
	maxClients int // maxClients, or less in tests
}

// New returns a Controller enforcing cfg.
func New(cfg Config) *Controller {
	if cfg.Rate > 0 && cfg.Burst <= 0 {
		cfg.Burst = math.Max(cfg.Rate, 1)
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Controller{
		cfg: cfg,
		rejected: cfg.Metrics.CounterVec("spec17_admission_rejected_total",
			"Requests rejected by the admission layer, by reason.",
			"reason"),
		buckets:    make(map[string]*bucket),
		maxClients: maxClients,
	}
}

// Config returns the effective configuration (zero value on nil).
func (c *Controller) Config() Config {
	if c == nil {
		return Config{}
	}
	return c.cfg
}

// Admit charges cost tokens against client's bucket. With rate
// limiting disabled (Rate == 0) every request is admitted and no
// bucket state is kept. Cost larger than Burst is clamped to Burst,
// so oversized requests drain a full bucket instead of never passing.
func (c *Controller) Admit(client string, cost float64) Decision {
	if c == nil || c.cfg.Rate <= 0 || cost <= 0 {
		return admitted
	}
	if cost > c.cfg.Burst {
		cost = c.cfg.Burst
	}
	now := c.cfg.Now()

	c.mu.Lock()
	defer c.mu.Unlock()
	b, ok := c.buckets[client]
	if !ok {
		c.evictLocked(now) // make room before inserting
		b = &bucket{tokens: c.cfg.Burst, updated: now}
		c.buckets[client] = b
	}
	// Refill since last update, capped at Burst.
	b.tokens = math.Min(c.cfg.Burst, b.tokens+now.Sub(b.updated).Seconds()*c.cfg.Rate)
	b.updated = now
	b.lastUse = now
	if b.tokens < cost {
		retry := time.Duration((cost - b.tokens) / c.cfg.Rate * float64(time.Second))
		c.rejected.With(ReasonRateLimited).Inc()
		return Decision{Reason: ReasonRateLimited, RetryAfter: retry}
	}
	b.tokens -= cost
	return admitted
}

// AdmitWait charges cost tokens against client's bucket, blocking
// until the bucket can afford it or ctx ends. This is the admission
// mode for background work (async job sweeps): where an interactive
// request is shed with 429 and retried by its client, a job item has
// no client waiting on the wire, so it waits for its refill here —
// background throughput is throttled to the same per-client budget
// interactive traffic pays, which is what keeps a registry-scale
// sweep from starving the submitter's own interactive requests.
//
// Each blocked attempt counts one rate_limited rejection (the retry
// sleeps for the controller's own refill estimate, so a waiting item
// typically records one rejection per wait, not a busy-loop's worth).
func (c *Controller) AdmitWait(ctx context.Context, client string, cost float64) error {
	for {
		dec := c.Admit(client, cost)
		if dec.OK {
			return nil
		}
		wait := dec.RetryAfter
		if wait <= 0 {
			wait = 50 * time.Millisecond
		}
		t := time.NewTimer(wait)
		select {
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		case <-t.C:
		}
	}
}

// evictLocked makes room for one more bucket when the table is at
// maxClients: first sweep out buckets that have fully refilled
// (evicting one is semantically free — the client would start from a
// full bucket anyway), then drop the least recently used bucket.
// Caller holds c.mu.
func (c *Controller) evictLocked(now time.Time) {
	if len(c.buckets) < c.maxClients {
		return
	}
	var lruKey string
	var lruUse time.Time
	for k, b := range c.buckets {
		if b.tokens+now.Sub(b.updated).Seconds()*c.cfg.Rate >= c.cfg.Burst {
			delete(c.buckets, k)
			continue
		}
		if lruKey == "" || b.lastUse.Before(lruUse) {
			lruKey, lruUse = k, b.lastUse
		}
	}
	if len(c.buckets) >= c.maxClients && lruKey != "" {
		delete(c.buckets, lruKey)
	}
}

// AcquireInFlight claims one global in-flight slot, reporting whether
// one was free. Callers that got a slot must ReleaseInFlight when the
// request finishes. With MaxInFlight == 0 it always succeeds (and
// still counts, so Snapshot reports live occupancy).
func (c *Controller) AcquireInFlight() bool {
	if c == nil {
		return true
	}
	for {
		n := c.inflight.Load()
		if c.cfg.MaxInFlight > 0 && n >= int64(c.cfg.MaxInFlight) {
			c.rejected.With(ReasonInFlight).Inc()
			return false
		}
		if c.inflight.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// ReleaseInFlight returns a slot claimed by AcquireInFlight.
func (c *Controller) ReleaseInFlight() {
	if c != nil {
		c.inflight.Add(-1)
	}
}

// Snapshot is a point-in-time view of the controller, for /v1/status.
type Snapshot struct {
	RateLimit   float64          `json:"rate_limit"`
	Burst       float64          `json:"burst"`
	MaxInFlight int              `json:"max_inflight"`
	InFlight    int64            `json:"inflight"`
	Clients     int              `json:"clients"`
	Rejected    map[string]int64 `json:"rejected,omitempty"`
}

// Snapshot returns the controller's current state. Only reasons with
// at least one rejection appear in Rejected.
func (c *Controller) Snapshot() Snapshot {
	if c == nil {
		return Snapshot{}
	}
	c.mu.Lock()
	clients := len(c.buckets)
	c.mu.Unlock()
	s := Snapshot{
		RateLimit:   c.cfg.Rate,
		Burst:       c.cfg.Burst,
		MaxInFlight: c.cfg.MaxInFlight,
		InFlight:    c.inflight.Load(),
		Clients:     clients,
	}
	for _, reason := range []string{ReasonRateLimited, ReasonInFlight} {
		if n := int64(c.rejected.With(reason).Value()); n > 0 {
			if s.Rejected == nil {
				s.Rejected = make(map[string]int64)
			}
			s.Rejected[reason] = n
		}
	}
	return s
}
