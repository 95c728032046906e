// Package insight is spec17d's self-monitoring plane: the daemon
// watching itself with no external dependencies. Two cooperating
// pieces:
//
//   - an accuracy-drift monitor comparing analytically-served results
//     against the exact re-measurements the auto tier lands in the
//     background, once per pair as the store forms it
//     (GET /v1/accuracy);
//   - a typed anomaly-event ring — band violations, shed spikes, slow
//     traces, checkpoint failures (GET /v1/events).
//
// Metric history and SLO burn rates are not kept here: a scraper of
// /metrics keeps the history, and docs/OBSERVABILITY.md gives the
// burn rates as PromQL over it. Everything is strictly bounded in
// memory. Shed-spike detection runs on a background ticker; the one
// request-path cost is scoring a drift pair, paid by the put that
// completes it. A daemon built without a Plane serves byte-identical
// responses.
package insight

import (
	"fmt"
	"log/slog"
	"os"
	"strconv"
	"sync"
	"time"

	"repro/internal/metrics"
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
	// Metrics is the registry whose admission rejections each tick
	// reads (and where the plane's own instruments land).
	Metrics *metrics.Registry
	// Log receives the events the plane detects itself (the hooks'
	// callers log theirs). Defaults to an info-level structured logger
	// on stderr.
	Log *slog.Logger
	// Interval is the tick period, over which a shed spike is
	// counted. Defaults to 5s.
	Interval time.Duration
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
	IntervalSeconds float64 `json:"interval_seconds"`
	Samples         int64   `json:"samples"`
	EventsBuffered  int     `json:"events_buffered"`
	EventsTotal     uint64  `json:"events_total"`
}

// Plane is the self-monitoring plane. Create with New, wire the
// hooks, then Start; Stop halts the tick loop.
type Plane struct {
	cfg     Config
	drift   *Drift
	events  *EventLog
	samples *metrics.Counter // ticks taken; Status reports it too

	// mu guards the shed-spike state one tick carries to the next, and
	// orders ticks: the loop is one goroutine, but tests call Tick
	// directly.
	mu            sync.Mutex
	lastShed      float64
	haveShed      bool
	lastShedEvent time.Time

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
		samples: cfg.Metrics.Counter("spec17d_insight_samples_total",
			"Ticks the insight plane has taken to check for shed spikes."),
		quit: make(chan struct{}),
		done: make(chan struct{}),
	}
	p.events = newEventLog(eventRing, cfg.Metrics, cfg.Log, cfg.Now)
	p.drift = newDrift(cfg.Metrics, p.events)
	return p
}

// Start launches the tick loop. Safe to call once.
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

// Stop halts the tick loop and waits for it to exit. Safe to call
// without Start, and more than once.
func (p *Plane) Stop() {
	p.stopOnce.Do(func() {
		close(p.quit)
		p.startO.Do(func() { close(p.done) }) // never started: unblock the wait
		<-p.done
	})
}

// Tick checks for a shed spike: it raises a shed_spike event when the
// growth of admission rejections since the previous tick crosses the
// threshold, the signal that the daemon has started refusing work.
// Exported so tests can drive the plane deterministically.
func (p *Plane) Tick() {
	p.mu.Lock()
	now := p.cfg.Now()
	var shed float64
	if fs, ok := p.cfg.Metrics.Family("spec17_admission_rejected_total"); ok {
		for _, ss := range fs.Series {
			shed += ss.Value
		}
	}
	p.samples.Inc()
	delta := shed - p.lastShed
	fire := p.haveShed && delta >= shedSpikeThreshold &&
		now.Sub(p.lastShedEvent) >= shedSpikeCooldown
	p.lastShed, p.haveShed = shed, true
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

// Drift returns the accuracy-drift monitor.
func (p *Plane) Drift() *Drift { return p.drift }

// Events returns the anomaly-event ring.
func (p *Plane) Events() *EventLog { return p.events }

// Interval returns the tick period.
func (p *Plane) Interval() time.Duration { return p.cfg.Interval }

// Status returns the insight section of /v1/status.
func (p *Plane) Status() Status {
	return Status{
		IntervalSeconds: p.cfg.Interval.Seconds(),
		Samples:         int64(p.samples.Value()),
		EventsBuffered:  p.events.Len(),
		EventsTotal:     p.events.Total(),
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
