// Package telemetry is the dependency-free observability layer of the
// reproduction: request tracing, threaded through the measurement
// pipeline via context.Context so the server, the experiment lab, the
// scheduler, and the store all emit spans without importing each
// other, and NewLogger, the log/slog text logger every component logs
// through.
//
// Model:
//
//   - A Tracer owns a bounded in-memory ring of finished traces and a
//     stage-latency histogram (spec17_stage_duration_seconds{stage=...})
//     in the caller's metrics registry.
//   - StartTrace opens a root span (one per request, honoring an
//     inbound X-Request-Id) and attaches it to the context.
//   - StartSpan opens a child of whatever span the context carries;
//     with no span in the context it is a no-op that allocates
//     nothing, so instrumented hot paths cost nothing when tracing is
//     disabled.
//   - Span.Record attaches an already-measured child (e.g. the
//     scheduler's queueing wait, measured outside any context scope).
//   - Ending a root span finishes the trace: it is snapshotted into
//     the ring (served by GET /v1/traces), its stages land in the
//     histogram, and traces slower than the configured threshold are
//     logged in full.
//
// All methods are nil-safe: a nil *Tracer never traces, a nil *Span
// ignores End/SetAttr/Record, so call sites need no enabled-checks.
package telemetry

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"log/slog"
	"sync"
	"time"

	"repro/internal/metrics"
)

// StageBuckets are the histogram bounds for per-stage durations, in
// seconds. Stages span six orders of magnitude — a store hit is
// microseconds, a cold fleet characterization is seconds — so the
// buckets start far below DefBuckets.
var StageBuckets = []float64{
	1e-6, 1e-5, 1e-4, 1e-3, .01, .05, .1, .25, .5, 1, 2.5, 5, 10, 30,
}

// maxSpansPerTrace bounds one trace's span tree. A full /v1/report at
// high fidelity emits several hundred spans (43 workloads × 7 machines
// plus analysis stages); the cap keeps a pathological request from
// growing a trace without bound. Spans beyond the cap are counted
// (TraceData.DroppedSpans) but not retained.
const maxSpansPerTrace = 4096

// TracerConfig configures a Tracer. The zero value is usable.
type TracerConfig struct {
	// Capacity bounds the finished-trace ring. Defaults to 256.
	Capacity int
	// SlowThreshold, when positive, logs every trace whose root span
	// exceeds it — the full span tree as one structured log line.
	SlowThreshold time.Duration
	// Metrics receives the spec17_stage_duration_seconds histogram.
	// Nil uses a private registry.
	Metrics *metrics.Registry
	// Log receives slow-trace lines. Nil logs nothing.
	Log *slog.Logger
}

// Tracer records traces into a bounded ring. Create with NewTracer; a
// nil *Tracer is a valid always-disabled tracer.
type Tracer struct {
	cfg   TracerConfig
	stage *metrics.HistogramVec

	mu       sync.Mutex
	ring     *Ring[*TraceData]
	finished uint64
}

// NewTracer returns a Tracer recording finished traces into a ring of
// cfg.Capacity entries.
func NewTracer(cfg TracerConfig) *Tracer {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 256
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	return &Tracer{
		cfg:  cfg,
		ring: NewRing[*TraceData](cfg.Capacity),
		stage: cfg.Metrics.HistogramVec("spec17_stage_duration_seconds",
			"Span durations by pipeline stage (span name).",
			StageBuckets, "stage"),
	}
}

// Capacity returns the ring size (0 for a nil tracer).
func (t *Tracer) Capacity() int {
	if t == nil {
		return 0
	}
	return t.cfg.Capacity
}

// SlowThreshold returns the slow-trace logging threshold.
func (t *Tracer) SlowThreshold() time.Duration {
	if t == nil {
		return 0
	}
	return t.cfg.SlowThreshold
}

// Finished returns how many traces have completed since start.
func (t *Tracer) Finished() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.finished
}

// Buffered returns how many finished traces the ring currently holds.
func (t *Tracer) Buffered() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ring.Len()
}

// trace is one in-progress trace: the identity shared by its spans.
type trace struct {
	id     string
	tracer *Tracer
	root   *Span

	mu      sync.Mutex
	spans   int
	dropped int
}

// Span is one timed stage of a trace. A nil *Span ignores every
// method, so disabled tracing needs no call-site checks.
type Span struct {
	t     *trace
	name  string
	start time.Time

	mu       sync.Mutex
	attrs    []string // alternating key, value
	children []*Span
	end      time.Time
	ended    bool
}

type spanKey struct{}

// FromContext returns the span the context carries, or nil.
func FromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// StartTrace opens a new trace rooted at a span named name and returns
// the span-carrying context. id is the caller-supplied trace id (an
// inbound X-Request-Id); invalid or empty ids are replaced by a
// generated one. On a nil tracer it returns (ctx, nil).
func (t *Tracer) StartTrace(ctx context.Context, name, id string, attrs ...string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	if id = sanitizeID(id); id == "" {
		id = newID()
	}
	tr := &trace{id: id, tracer: t, spans: 1}
	s := &Span{t: tr, name: name, start: time.Now(), attrs: attrs}
	tr.root = s
	return context.WithValue(ctx, spanKey{}, s), s
}

// StartSpan opens a child of the context's current span and returns
// the child-carrying context. With no span in the context (tracing
// disabled, or an untraced call path) it returns (ctx, nil) without
// allocating.
func StartSpan(ctx context.Context, name string, attrs ...string) (context.Context, *Span) {
	parent := FromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	s := parent.newChild(name, time.Now(), attrs)
	if s == nil {
		return ctx, nil // span cap reached; keep the parent scope
	}
	return context.WithValue(ctx, spanKey{}, s), s
}

// newChild allocates and links a child span, honoring the per-trace
// span cap. Returns nil when the cap is reached.
func (s *Span) newChild(name string, start time.Time, attrs []string) *Span {
	tr := s.t
	tr.mu.Lock()
	if tr.spans >= maxSpansPerTrace {
		tr.dropped++
		tr.mu.Unlock()
		return nil
	}
	tr.spans++
	tr.mu.Unlock()

	c := &Span{t: tr, name: name, start: start, attrs: attrs}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// TraceID returns the id of the span's trace ("" on a nil span).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.t.id
}

// SetAttr adds (or appends — last write wins at render time) one
// key=value attribute.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, key, value)
	s.mu.Unlock()
}

// Record attaches an already-measured child span — work timed outside
// a context scope, like the scheduler's queue wait between submission
// and dispatch.
func (s *Span) Record(name string, start, end time.Time, attrs ...string) {
	if s == nil {
		return
	}
	c := s.newChild(name, start, attrs)
	if c == nil {
		return
	}
	c.end, c.ended = end, true
	s.t.tracer.observeStage(name, end.Sub(start))
}

// End finishes the span, recording its duration in the stage
// histogram. Ending a trace's root span finishes the trace: the span
// tree is snapshotted into the tracer's ring and, when slower than
// the configured threshold, logged in full. End is idempotent.
func (s *Span) End() {
	if s == nil {
		return
	}
	now := time.Now()
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended, s.end = true, now
	s.mu.Unlock()
	tr := s.t
	tr.tracer.observeStage(s.name, now.Sub(s.start))
	if s == tr.root {
		tr.tracer.finish(tr)
	}
}

func (t *Tracer) observeStage(stage string, d time.Duration) {
	t.stage.With(stage).Observe(d.Seconds())
}

// finish snapshots a completed trace into the ring.
func (t *Tracer) finish(tr *trace) {
	data := tr.snapshot()
	t.mu.Lock()
	t.ring.Add(data)
	t.finished++
	t.mu.Unlock()

	if t.cfg.SlowThreshold > 0 && t.cfg.Log != nil &&
		data.DurationMS >= float64(t.cfg.SlowThreshold)/float64(time.Millisecond) {
		tree, _ := json.Marshal(data)
		t.cfg.Log.Warn("slow trace",
			"trace", data.TraceID,
			"dur_ms", data.DurationMS,
			"spans", countSpans(&data.Root),
			"tree", string(tree))
	}
}

// SpanData is the immutable rendering of one finished span.
type SpanData struct {
	Name       string            `json:"name"`
	Start      time.Time         `json:"start"`
	DurationMS float64           `json:"duration_ms"`
	Attrs      map[string]string `json:"attrs,omitempty"`
	Children   []SpanData        `json:"children,omitempty"`
}

// TraceData is one finished trace as served by GET /v1/traces.
type TraceData struct {
	TraceID      string    `json:"trace_id"`
	Start        time.Time `json:"start"`
	DurationMS   float64   `json:"duration_ms"`
	DroppedSpans int       `json:"dropped_spans,omitempty"`
	Root         SpanData  `json:"root"`
}

// snapshot renders the trace's span tree. Called once, after the root
// span has ended; children that never ended (a goroutine outliving the
// request) are clamped to the root's end time.
func (tr *trace) snapshot() *TraceData {
	rootEnd := tr.root.end
	data := &TraceData{
		TraceID:      tr.id,
		Start:        tr.root.start,
		DurationMS:   durMS(tr.root.start, rootEnd),
		DroppedSpans: tr.dropped,
		Root:         tr.root.data(rootEnd),
	}
	return data
}

func (s *Span) data(clampEnd time.Time) SpanData {
	s.mu.Lock()
	end := s.end
	if !s.ended {
		end = clampEnd
	}
	d := SpanData{
		Name:       s.name,
		Start:      s.start,
		DurationMS: durMS(s.start, end),
	}
	if len(s.attrs) > 0 {
		d.Attrs = make(map[string]string, len(s.attrs)/2)
		for i := 0; i+1 < len(s.attrs); i += 2 {
			d.Attrs[s.attrs[i]] = s.attrs[i+1]
		}
	}
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range children {
		d.Children = append(d.Children, c.data(clampEnd))
	}
	return d
}

func durMS(start, end time.Time) float64 {
	return float64(end.Sub(start)) / float64(time.Millisecond)
}

func countSpans(d *SpanData) int {
	n := 1
	for i := range d.Children {
		n += countSpans(&d.Children[i])
	}
	return n
}

// Filter selects traces from the ring.
type Filter struct {
	// MinDuration keeps only traces at least this long.
	MinDuration time.Duration
	// Experiment keeps only traces where any span carries
	// attrs["experiment"] == Experiment.
	Experiment string
	// Limit bounds the result count (0 = no bound).
	Limit int
}

// Traces returns the ring's finished traces, newest first, filtered.
func (t *Tracer) Traces(f Filter) []*TraceData {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	all := t.ring.Copy()
	t.mu.Unlock()

	out := make([]*TraceData, 0, len(all))
	for i := len(all) - 1; i >= 0; i-- { // newest first
		tr := all[i]
		if f.MinDuration > 0 && tr.DurationMS < float64(f.MinDuration)/float64(time.Millisecond) {
			continue
		}
		if f.Experiment != "" && !hasAttr(&tr.Root, "experiment", f.Experiment) {
			continue
		}
		out = append(out, tr)
		if f.Limit > 0 && len(out) >= f.Limit {
			break
		}
	}
	return out
}

func hasAttr(d *SpanData, key, value string) bool {
	if d.Attrs[key] == value {
		return true
	}
	for i := range d.Children {
		if hasAttr(&d.Children[i], key, value) {
			return true
		}
	}
	return false
}

// newID returns a fresh 16-hex-digit trace id.
func newID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; a fixed
		// id at least keeps tracing functional.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// sanitizeID validates a caller-supplied trace id: up to 64 characters
// of [A-Za-z0-9._-]. Anything else returns "" (caller generates).
func sanitizeID(id string) string {
	if len(id) == 0 || len(id) > 64 {
		return ""
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return ""
		}
	}
	return id
}
