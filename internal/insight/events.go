package insight

// The event ring: a bounded in-memory log of typed anomalies. Metrics
// answer "how much"; events answer "what happened, when" — a tolerance
// band violated, a shed spike, a slow request, a checkpoint that
// failed to persist, a webhook whose retries ran out, an SLO starting
// to burn. Every event reaches the structured log once (so an operator
// tailing stderr sees it live): the plane logs the anomalies it
// detects, and the tracer, store and jobs log the ones they report
// through the plane's hooks. Each is counted in
// spec17d_insight_events_total{type}; GET /v1/events serves the ring.

import (
	"log/slog"
	"sync"
	"time"

	"repro/internal/metrics"
)

// EventType names one anomaly class. The set is closed: handlers
// validate ?type= against it, and docs/OBSERVABILITY.md documents each.
type EventType string

const (
	// EventBandViolation: an analytic result disagreed with its exact
	// twin beyond the committed engine.Tolerances band for a metric.
	EventBandViolation EventType = "band_violation"
	// EventShedSpike: admission rejections jumped by more than
	// shedSpikeThreshold within one sampling interval.
	EventShedSpike EventType = "shed_spike"
	// EventSlowTrace: a request trace exceeded the tracer's slow
	// threshold (the same condition that logs the span tree).
	EventSlowTrace EventType = "slow_trace"
	// EventCheckpointFailure: a background store checkpoint failed to
	// save (the previous on-disk snapshot stays intact).
	EventCheckpointFailure EventType = "checkpoint_failure"
	// EventWebhookExhausted: a job webhook ran out of delivery
	// attempts; the callback was lost until the next boot redelivers.
	EventWebhookExhausted EventType = "webhook_exhausted"
	// EventSLOBurn: an endpoint began burning its latency or error
	// budget in both the fast and slow windows.
	EventSLOBurn EventType = "slo_burn"
)

// KnownEventTypes returns the closed event-type set, for validation
// and discovery.
func KnownEventTypes() []EventType {
	return []EventType{
		EventBandViolation, EventShedSpike, EventSlowTrace,
		EventCheckpointFailure, EventWebhookExhausted, EventSLOBurn,
	}
}

// Event is one recorded anomaly.
type Event struct {
	// Seq increases monotonically across the process lifetime, so a
	// poller can detect ring overwrites (gaps in seq) and dedup across
	// polls.
	Seq     uint64            `json:"seq"`
	Time    time.Time         `json:"time"`
	Type    EventType         `json:"type"`
	Message string            `json:"message"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// EventLog is the bounded ring of recorded events. Safe for concurrent
// use; Emit never blocks and never allocates beyond the event itself.
type EventLog struct {
	capacity int
	ctr      *metrics.CounterVec
	log      *slog.Logger
	now      func() time.Time

	mu   sync.Mutex
	ring []Event
	next int
	seq  uint64
}

func newEventLog(capacity int, reg *metrics.Registry, log *slog.Logger, now func() time.Time) *EventLog {
	return &EventLog{
		capacity: capacity,
		ctr: reg.CounterVec("spec17d_insight_events_total",
			"Anomaly events recorded by the insight plane, by type.", "type"),
		log: log,
		now: now,
	}
}

// Emit records one event, mirrors it to the log, and counts it. It is
// for anomalies the plane itself detects; one another component has
// already logged is only recorded.
func (e *EventLog) Emit(typ EventType, msg string, attrs map[string]string) {
	e.record(typ, msg, attrs)
	if e.log != nil {
		kv := make([]any, 0, 4+2*len(attrs))
		kv = append(kv, "type", string(typ), "msg", msg)
		for k, v := range attrs {
			kv = append(kv, k, v)
		}
		e.log.Warn("insight event", kv...)
	}
}

// record adds one event to the ring and counts it, without logging.
func (e *EventLog) record(typ EventType, msg string, attrs map[string]string) {
	ev := Event{Time: e.now(), Type: typ, Message: msg, Attrs: attrs}
	e.mu.Lock()
	e.seq++
	ev.Seq = e.seq
	if len(e.ring) < e.capacity {
		e.ring = append(e.ring, ev)
	} else {
		e.ring[e.next] = ev
		e.next = (e.next + 1) % e.capacity
	}
	e.mu.Unlock()
	e.ctr.With(string(typ)).Inc()
}

// Events returns recorded events newest-first, filtered by type (""
// keeps all) and by time (zero keeps all; otherwise only events at or
// after since), capped at limit (<= 0 means no cap).
func (e *EventLog) Events(typ EventType, since time.Time, limit int) []Event {
	e.mu.Lock()
	// Chronological order: the ring is [next:] ++ [:next] once full.
	all := make([]Event, 0, len(e.ring))
	all = append(all, e.ring[e.next:]...)
	all = append(all, e.ring[:e.next]...)
	e.mu.Unlock()
	out := make([]Event, 0, len(all))
	for i := len(all) - 1; i >= 0; i-- {
		ev := all[i]
		if typ != "" && ev.Type != typ {
			continue
		}
		if !since.IsZero() && ev.Time.Before(since) {
			continue
		}
		out = append(out, ev)
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	return out
}

// Len returns the number of events currently buffered.
func (e *EventLog) Len() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.ring)
}

// Total returns the number of events ever emitted (the latest seq).
func (e *EventLog) Total() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.seq
}
