// Package insight is spec17d's self-monitoring plane: the daemon
// watching itself with no external dependencies. Four cooperating
// pieces share one sampling loop:
//
//   - a metric-history recorder capturing the whole metrics registry
//     into bounded in-memory rings (GET /v1/metrics/history);
//   - an accuracy-drift monitor comparing analytically-served results
//     against the exact re-measurements the auto tier lands in the
//     background (GET /v1/accuracy);
//   - a typed anomaly-event ring — band violations, shed spikes, slow
//     traces, checkpoint failures, exhausted webhooks, SLO burns
//     (GET /v1/events);
//   - per-endpoint SLO burn rates derived from the recorder's own
//     rings (inside GET /v1/status).
//
// Everything is strictly bounded in memory and costs nothing on the
// request path: sampling happens on a background ticker, and a daemon
// built without a Plane serves byte-identical responses.
package insight

import (
	"fmt"
	"log/slog"
	"os"
	"strconv"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// shedSpikeThreshold is how many admission rejections within one
// sampling interval count as a spike.
const shedSpikeThreshold = 10

// shedSpikeCooldown rate-limits shed_spike events: a sustained
// overload is one incident, not one event per tick.
const shedSpikeCooldown = time.Minute

// eventRing bounds the anomaly-event ring.
const eventRing = 256

// Config configures a Plane. Metrics is required; everything else has
// a usable default.
type Config struct {
	// Metrics is the registry to sample (and where the plane's own
	// instruments land).
	Metrics *metrics.Registry
	// Store, when set, enables the accuracy-drift monitor. May also be
	// attached later via AttachStore (before Start).
	Store *store.Store
	// Log receives the events the plane detects itself (the hooks'
	// callers log theirs). Defaults to an info-level structured logger
	// on stderr.
	Log *slog.Logger
	// Interval is the sampling period. Defaults to 5s. The history
	// rings hold the SLO's slow window at this period, so their memory
	// scales with slowWindow/Interval (721 samples a series at 5s).
	Interval time.Duration
	// SLO sets the per-endpoint objectives.
	SLO SLOConfig
	// Now overrides the clock (tests).
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.Log == nil {
		c.Log = telemetry.NewLogger(os.Stderr, slog.LevelInfo)
	}
	if c.Interval <= 0 {
		c.Interval = 5 * time.Second
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Status is the insight section of GET /v1/status.
type Status struct {
	IntervalSeconds float64       `json:"interval_seconds"`
	RingCapacity    int           `json:"ring_capacity"`
	SeriesTracked   int           `json:"series_tracked"`
	Samples         int64         `json:"samples"`
	EventsBuffered  int           `json:"events_buffered"`
	EventsTotal     uint64        `json:"events_total"`
	SLO             []EndpointSLO `json:"slo,omitempty"`
}

// Plane is the self-monitoring plane. Create with New, wire the
// hooks, then Start; Stop halts the sampling loop.
type Plane struct {
	cfg     Config
	rec     *Recorder
	drift   *Drift
	events  *EventLog
	slo     *sloMonitor
	samples *metrics.Counter

	// tickMu serializes Tick: the loop is one goroutine, but Tick is
	// also callable directly (tests, handlers wanting freshness), and
	// the SLO monitor's transition state assumes one evaluator.
	tickMu sync.Mutex

	// mu guards the published tick results.
	mu            sync.Mutex
	sloStatus     []EndpointSLO
	lastShed      float64
	haveShed      bool
	lastShedEvent time.Time
	nsamples      int64

	quit     chan struct{}
	done     chan struct{}
	startO   sync.Once
	stopOnce sync.Once
}

// New returns a ready Plane. It registers the plane's own instruments
// (spec17d_insight_*, spec17d_engine_drift_*) in cfg.Metrics.
func New(cfg Config) *Plane {
	cfg = cfg.withDefaults()
	p := &Plane{
		cfg: cfg,
		rec: newRecorder(historySamples(cfg.Interval)),
		samples: cfg.Metrics.Counter("spec17d_insight_samples_total",
			"Sampling ticks the insight recorder has performed."),
		quit: make(chan struct{}),
		done: make(chan struct{}),
	}
	p.events = newEventLog(eventRing, cfg.Metrics, cfg.Log, cfg.Now)
	p.drift = newDrift(cfg.Store, cfg.Metrics, p.events, cfg.Now)
	p.slo = newSLOMonitor(cfg.SLO, p.events)
	return p
}

// historySamples is the ring capacity that keeps a sample taken
// slowWindow ago at the given sampling period, so the slow SLO window
// reads from the point where it begins.
func historySamples(interval time.Duration) int {
	return int((slowWindow+interval-1)/interval) + 1
}

// AttachStore enables the drift monitor against st. Call before Start
// (the daemon opens its store after wiring the plane into the store's
// checkpoint-error hook, so the two attach in opposite order).
func (p *Plane) AttachStore(st *store.Store) { p.drift.attachStore(st) }

// Start launches the sampling loop. Safe to call once.
func (p *Plane) Start() {
	p.startO.Do(func() {
		go func() {
			defer close(p.done)
			t := time.NewTicker(p.cfg.Interval)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					p.Tick()
				case <-p.quit:
					return
				}
			}
		}()
	})
}

// Stop halts the sampling loop and waits for it to exit. Safe to call
// without Start, and more than once.
func (p *Plane) Stop() {
	p.stopOnce.Do(func() {
		close(p.quit)
		p.startO.Do(func() { close(p.done) }) // never started: unblock the wait
		<-p.done
	})
}

// Tick performs one sampling pass: snapshot the registry, append to
// the history rings, scan for new drift pairs, recompute SLO burn
// rates, and check for shed spikes. Exported so tests (and the
// handlers' freshness needs) can drive the plane deterministically.
func (p *Plane) Tick() {
	p.tickMu.Lock()
	defer p.tickMu.Unlock()
	now := p.cfg.Now()
	snap := p.cfg.Metrics.Snapshot()
	p.rec.sample(snap, now)
	p.samples.Inc()
	p.drift.Scan()
	slo := p.slo.evaluate(p.rec, now)
	p.mu.Lock()
	p.nsamples++
	p.sloStatus = slo
	p.mu.Unlock()
	p.detectShedSpike(snap, now)
}

// detectShedSpike raises a shed_spike event when the tick-over-tick
// growth of admission rejections crosses the threshold — the signal
// that the daemon has started refusing work.
func (p *Plane) detectShedSpike(snap metrics.Snapshot, now time.Time) {
	var shed float64
	if fs, ok := snap.Family("spec17_admission_rejected_total"); ok {
		for _, ss := range fs.Series {
			shed += ss.Value
		}
	}
	p.mu.Lock()
	prev, have := p.lastShed, p.haveShed
	p.lastShed, p.haveShed = shed, true
	delta := shed - prev
	fire := have && delta >= shedSpikeThreshold &&
		now.Sub(p.lastShedEvent) >= shedSpikeCooldown
	if fire {
		p.lastShedEvent = now
	}
	p.mu.Unlock()
	if fire {
		p.events.Emit(EventShedSpike,
			fmt.Sprintf("%d requests shed within one sampling interval", int64(delta)),
			map[string]string{"shed": strconv.FormatInt(int64(delta), 10)})
	}
}

// Recorder returns the metric-history recorder.
func (p *Plane) Recorder() *Recorder { return p.rec }

// Drift returns the accuracy-drift monitor.
func (p *Plane) Drift() *Drift { return p.drift }

// Events returns the anomaly-event ring.
func (p *Plane) Events() *EventLog { return p.events }

// Interval returns the sampling period.
func (p *Plane) Interval() time.Duration { return p.cfg.Interval }

// Status returns the insight section of /v1/status.
func (p *Plane) Status() Status {
	p.mu.Lock()
	slo := append([]EndpointSLO(nil), p.sloStatus...)
	n := p.nsamples
	p.mu.Unlock()
	return Status{
		IntervalSeconds: p.cfg.Interval.Seconds(),
		RingCapacity:    p.rec.Capacity(),
		SeriesTracked:   p.rec.SeriesCount(),
		Samples:         n,
		EventsBuffered:  p.events.Len(),
		EventsTotal:     p.events.Total(),
		SLO:             slo,
	}
}

// The hooks below record anomalies that the component calling them has
// already logged, so they add an event without a second log line.

// OnSlowTrace adapts the plane to telemetry.TracerConfig.OnSlow: every
// slow trace becomes a slow_trace event carrying the trace id, so the
// operator pivots from the event straight to GET /v1/traces.
func (p *Plane) OnSlowTrace(td *telemetry.TraceData) {
	p.events.record(EventSlowTrace,
		fmt.Sprintf("trace %s took %.0fms", td.TraceID, td.DurationMS),
		map[string]string{
			"trace":  td.TraceID,
			"dur_ms": strconv.FormatFloat(td.DurationMS, 'f', 0, 64),
		})
}

// OnCheckpointError adapts the plane to store.Config.OnCheckpointError.
func (p *Plane) OnCheckpointError(err error) {
	p.events.record(EventCheckpointFailure,
		"background store checkpoint failed: "+err.Error(), nil)
}

// OnWebhookExhausted adapts the plane to
// jobs.Config.OnWebhookExhausted.
func (p *Plane) OnWebhookExhausted(jobID, url string, attempts int, lastErr error) {
	attrs := map[string]string{
		"job":      jobID,
		"url":      url,
		"attempts": strconv.Itoa(attempts),
	}
	if lastErr != nil {
		attrs["error"] = lastErr.Error()
	}
	p.events.record(EventWebhookExhausted,
		fmt.Sprintf("webhook for job %s lost after %d attempts", jobID, attempts), attrs)
}
