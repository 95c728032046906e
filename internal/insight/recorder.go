package insight

// The metric-history recorder: every sampling tick captures the full
// registry through the typed Snapshot API and appends one point per
// series to a fixed-size ring. The daemon thereby answers "what did
// this metric do over the last N minutes" from its own memory — no
// Prometheus server required — and the SLO monitor computes window
// deltas from the same rings. Memory is strictly bounded: series
// count × ring capacity points, histograms additionally carrying one
// bucket-count slice per point.

import (
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/telemetry"
)

// point is one sampled observation of one series.
type point struct {
	t       time.Time
	value   float64  // counter/gauge value; histogram cumulative count
	sum     float64  // histogram sum
	buckets []uint64 // histogram cumulative per-bound counts (+Inf last)
}

// series is one labelled time series' ring.
type series struct {
	labelValues []string
	ring        *telemetry.Ring[point]
}

// window returns the points with t in [now-window, now], oldest-first.
// A zero window keeps everything retained.
func (s *series) window(window time.Duration, now time.Time) []point {
	pts := s.ring.Copy()
	if window <= 0 {
		return pts
	}
	cutoff := now.Add(-window)
	for i, p := range pts {
		if !p.t.Before(cutoff) {
			return pts[i:]
		}
	}
	return nil
}

// recFamily is the recorded state of one metric family.
type recFamily struct {
	typ        string
	help       string
	labelNames []string
	bounds     []float64
	series     map[string]*series
	order      []string
}

// Recorder holds the rings. Safe for concurrent use.
type Recorder struct {
	capacity int

	mu   sync.Mutex
	fams map[string]*recFamily
}

func newRecorder(capacity int) *Recorder {
	return &Recorder{capacity: capacity, fams: make(map[string]*recFamily)}
}

// Capacity returns the per-series ring capacity.
func (r *Recorder) Capacity() int { return r.capacity }

// SeriesCount returns the number of distinct series being tracked.
func (r *Recorder) SeriesCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, f := range r.fams {
		n += len(f.series)
	}
	return n
}

// sample appends one point per series in snap, creating rings for
// series seen for the first time.
func (r *Recorder) sample(snap metrics.Snapshot, now time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, fs := range snap {
		f, ok := r.fams[fs.Name]
		if !ok {
			f = &recFamily{
				typ:        fs.Type,
				help:       fs.Help,
				labelNames: fs.LabelNames,
				bounds:     fs.Bounds,
				series:     make(map[string]*series),
			}
			r.fams[fs.Name] = f
		}
		for _, ss := range fs.Series {
			key := strings.Join(ss.LabelValues, "\x00")
			sr, ok := f.series[key]
			if !ok {
				sr = &series{labelValues: ss.LabelValues, ring: telemetry.NewRing[point](r.capacity)}
				f.series[key] = sr
				f.order = append(f.order, key)
			}
			p := point{t: now, value: ss.Value, sum: ss.Sum}
			if fs.Type == "histogram" {
				p.value = float64(ss.Count)
				p.buckets = append([]uint64(nil), ss.Buckets...)
			}
			sr.ring.Add(p)
		}
	}
}

// HistoryPoint is one sampled value, as served by /v1/metrics/history.
type HistoryPoint struct {
	Time  time.Time `json:"time"`
	Value float64   `json:"value"`
}

// HistorySeries is one labelled series' windowed history plus the
// derivations the raw ring supports: a per-second rate for cumulative
// series (counters and histogram counts), and latency-style
// percentiles interpolated from histogram bucket deltas over the
// window.
type HistorySeries struct {
	Labels map[string]string `json:"labels,omitempty"`
	Points []HistoryPoint    `json:"points"`
	Rate   *float64          `json:"rate_per_second,omitempty"`
	P50    *float64          `json:"p50,omitempty"`
	P95    *float64          `json:"p95,omitempty"`
	P99    *float64          `json:"p99,omitempty"`
}

// History is the /v1/metrics/history response body for one family.
type History struct {
	Name            string          `json:"name"`
	Type            string          `json:"type"`
	Help            string          `json:"help,omitempty"`
	WindowSeconds   float64         `json:"window_seconds"`
	IntervalSeconds float64         `json:"interval_seconds"`
	Series          []HistorySeries `json:"series"`
}

// History returns the windowed history of the named family, with
// per-series rate/percentile derivation. The second return is false
// when the family has never been sampled. A zero window means the full
// retained ring.
func (r *Recorder) History(name string, window time.Duration, interval time.Duration, now time.Time) (History, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.fams[name]
	if !ok {
		return History{}, false
	}
	h := History{
		Name:            name,
		Type:            f.typ,
		Help:            f.help,
		WindowSeconds:   window.Seconds(),
		IntervalSeconds: interval.Seconds(),
	}
	for _, key := range f.order {
		sr := f.series[key]
		pts := sr.window(window, now)
		hs := HistorySeries{Points: make([]HistoryPoint, 0, len(pts))}
		if len(f.labelNames) > 0 {
			hs.Labels = make(map[string]string, len(f.labelNames))
			for i, n := range f.labelNames {
				if i < len(sr.labelValues) {
					hs.Labels[n] = sr.labelValues[i]
				}
			}
		}
		for _, p := range pts {
			hs.Points = append(hs.Points, HistoryPoint{Time: p.t, Value: p.value})
		}
		if len(pts) >= 2 {
			first, last := pts[0], pts[len(pts)-1]
			if f.typ == "counter" || f.typ == "histogram" {
				if secs := last.t.Sub(first.t).Seconds(); secs > 0 {
					rate := (last.value - first.value) / secs
					if rate < 0 {
						rate = 0
					}
					hs.Rate = &rate
				}
			}
			if f.typ == "histogram" {
				deltas := bucketDeltas(first.buckets, last.buckets)
				if total(deltas) > 0 {
					p50 := bucketQuantile(f.bounds, deltas, 0.50)
					p95 := bucketQuantile(f.bounds, deltas, 0.95)
					p99 := bucketQuantile(f.bounds, deltas, 0.99)
					hs.P50, hs.P95, hs.P99 = &p50, &p95, &p99
				}
			}
		}
		h.Series = append(h.Series, hs)
	}
	return h, true
}

// Names returns every sampled family name, sorted — the discovery aid
// the history handler suggests on an unknown ?name=.
func (r *Recorder) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.fams))
	for n := range r.fams {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// counterDelta returns how much the series grew over [now-window, now],
// measured between the earliest and latest retained samples inside the
// window. ok is false with fewer than two in-window samples.
func (r *Recorder) counterDelta(name string, labelValues []string, window time.Duration, now time.Time) (delta float64, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	sr := r.lookup(name, labelValues)
	if sr == nil {
		return 0, false
	}
	pts := sr.window(window, now)
	if len(pts) < 2 {
		return 0, false
	}
	d := pts[len(pts)-1].value - pts[0].value
	if d < 0 {
		d = 0
	}
	return d, true
}

// histWindow returns the histogram's bucket growth over the window.
// ok is false with fewer than two in-window samples.
func (r *Recorder) histWindow(name string, labelValues []string, window time.Duration, now time.Time) (bounds []float64, deltas []uint64, count uint64, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fams[name]
	sr := r.lookup(name, labelValues)
	if f == nil || sr == nil {
		return nil, nil, 0, false
	}
	pts := sr.window(window, now)
	if len(pts) < 2 {
		return nil, nil, 0, false
	}
	deltas = bucketDeltas(pts[0].buckets, pts[len(pts)-1].buckets)
	return f.bounds, deltas, total(deltas), true
}

// labelSets returns the label-value sets present for the named family,
// in first-seen order.
func (r *Recorder) labelSets(name string) [][]string {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.fams[name]
	if !ok {
		return nil
	}
	out := make([][]string, 0, len(f.order))
	for _, key := range f.order {
		out = append(out, f.series[key].labelValues)
	}
	return out
}

// lookup finds one series; callers hold r.mu.
func (r *Recorder) lookup(name string, labelValues []string) *series {
	f, ok := r.fams[name]
	if !ok {
		return nil
	}
	return f.series[strings.Join(labelValues, "\x00")]
}

// bucketDeltas subtracts two cumulative bucket captures elementwise,
// clamping at zero (counters never go backwards in-process; the clamp
// is pure defensiveness).
func bucketDeltas(first, last []uint64) []uint64 {
	out := make([]uint64, len(last))
	for i := range last {
		var f uint64
		if i < len(first) {
			f = first[i]
		}
		if last[i] > f {
			out[i] = last[i] - f
		}
	}
	return out
}

func total(deltas []uint64) uint64 {
	var n uint64
	for _, d := range deltas {
		n += d
	}
	return n
}

// bucketQuantile interpolates the q-quantile from per-bound bucket
// deltas (+Inf bucket last), Prometheus histogram_quantile style:
// linear within a bucket, and a quantile landing in the +Inf bucket
// answers the highest finite bound (the data cannot say more).
func bucketQuantile(bounds []float64, deltas []uint64, q float64) float64 {
	n := total(deltas)
	if n == 0 {
		return 0
	}
	rank := q * float64(n)
	var cum float64
	for i, d := range deltas {
		prev := cum
		cum += float64(d)
		if cum < rank || d == 0 {
			continue
		}
		if i >= len(bounds) { // +Inf bucket
			if len(bounds) == 0 {
				return 0
			}
			return bounds[len(bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = bounds[i-1]
		}
		hi := bounds[i]
		return lo + (hi-lo)*(rank-prev)/float64(d)
	}
	if len(bounds) == 0 {
		return 0
	}
	return bounds[len(bounds)-1]
}
