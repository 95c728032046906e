package metrics

import (
	"slices"
	"strings"
)

// The registry's one read path. Snapshot gives in-process consumers —
// the /v1/status handler — a self-consistent view as typed Go values,
// without parsing text or holding private metric handles, and
// WritePrometheus renders the Prometheus text from it.

// SeriesSnapshot is one labelled series' state at capture time. For
// counters and gauges only Value is meaningful; for histograms,
// Buckets (non-cumulative per-bound counts, the implicit +Inf bucket
// last), Sum, and Count are captured under one lock acquisition, so
// the histogram invariant (sum of Buckets == Count) always holds
// within one snapshot.
type SeriesSnapshot struct {
	// LabelValues aligns with the family's LabelNames; empty for
	// unlabelled series.
	LabelValues []string
	Value       float64
	Buckets     []uint64
	Sum         float64
	Count       uint64
}

// FamilySnapshot is one metric family's state at capture time.
type FamilySnapshot struct {
	Name       string
	Help       string
	Type       string // "counter", "gauge", or "histogram"
	LabelNames []string
	Bounds     []float64 // histogram upper bounds (+Inf implicit)
	Series     []SeriesSnapshot
}

// Snapshot captures every registered family, in registration order,
// with a point-in-time snapshot of its series. Each family is captured
// under its own lock, so a snapshot is self-consistent per family even
// while observations land concurrently. The result is detached: mutating it never touches the
// registry, its label names and bounds included, and later observations
// never mutate it.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	r.mu.Unlock()
	var out Snapshot
	for _, f := range fams {
		out = append(out, f.snapshot())
	}
	return out
}

// Snapshot is a full registry capture, with lookup helpers.
type Snapshot []FamilySnapshot

// Family returns the named family's snapshot.
func (s Snapshot) Family(name string) (FamilySnapshot, bool) {
	for _, fs := range s {
		if fs.Name == name {
			return fs, true
		}
	}
	return FamilySnapshot{}, false
}

// Value returns the named counter/gauge series' value, matching
// labelValues against the family's label order. Missing families and
// series — including labelled series never yet observed — read as 0,
// exactly as Prometheus rate() treats an absent sample.
func (s Snapshot) Value(name string, labelValues ...string) float64 {
	fs, ok := s.Family(name)
	if !ok {
		return 0
	}
	for _, ss := range fs.Series {
		if slices.Equal(ss.LabelValues, labelValues) {
			return ss.Value
		}
	}
	return 0
}

// snapshot captures one family's series under its lock.
func (f *family) snapshot() FamilySnapshot {
	fs := FamilySnapshot{
		Name:       f.name,
		Help:       f.help,
		Type:       f.typ,
		LabelNames: slices.Clone(f.labels),
		Bounds:     slices.Clone(f.bounds),
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	fs.Series = make([]SeriesSnapshot, 0, len(f.order))
	for _, key := range f.order {
		var values []string
		if len(f.labels) > 0 {
			values = strings.Split(key, "\x00")
		}
		ss := SeriesSnapshot{LabelValues: values}
		switch s := f.series[key].(type) {
		case *Counter:
			ss.Value = s.Value()
		case *Gauge:
			ss.Value = s.Value()
		case *Histogram:
			ss.Buckets, ss.Sum, ss.Count = s.snapshot()
		}
		fs.Series = append(fs.Series, ss)
	}
	return fs
}
