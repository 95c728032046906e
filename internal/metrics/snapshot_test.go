package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// TestSnapshotTyped: the typed read path reports the same values the
// instruments hold, family metadata included.
func TestSnapshotTyped(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_total", "Jobs.")
	c.Add(3)
	g := r.Gauge("depth", "Depth.")
	g.Set(-2)
	v := r.CounterVec("reqs_total", "Requests.", "endpoint", "code")
	v.With("/a", "200").Add(5)
	v.With("/a", "500").Inc()
	h := r.Histogram("lat_seconds", "Latency.", []float64{1, 2})
	h.Observe(0.5)
	h.Observe(1.5)
	h.Observe(9)

	snap := r.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot has %d families, want 4", len(snap))
	}
	if got := snap.Value("jobs_total"); got != 3 {
		t.Errorf("jobs_total = %v, want 3", got)
	}
	if got := snap.Value("depth"); got != -2 {
		t.Errorf("depth = %v, want -2", got)
	}
	if got := snap.Value("reqs_total", "/a", "200"); got != 5 {
		t.Errorf(`reqs_total{/a,200} = %v, want 5`, got)
	}
	if got := snap.Value("reqs_total", "/a", "500"); got != 1 {
		t.Errorf(`reqs_total{/a,500} = %v, want 1`, got)
	}
	// Absent families, series, and never-observed label values read 0.
	if got := snap.Value("nope_total"); got != 0 {
		t.Errorf("absent family = %v, want 0", got)
	}
	if got := snap.Value("reqs_total", "/b", "200"); got != 0 {
		t.Errorf("absent series = %v, want 0", got)
	}

	fs, ok := snap.Family("lat_seconds")
	if !ok {
		t.Fatal("lat_seconds family missing")
	}
	if fs.Type != "histogram" || len(fs.Bounds) != 2 {
		t.Fatalf("lat_seconds: type %q bounds %v", fs.Type, fs.Bounds)
	}
	ss := fs.Series[0]
	if ss.Count != 3 || ss.Sum != 11 {
		t.Errorf("histogram count %d sum %v, want 3 and 11", ss.Count, ss.Sum)
	}
	want := []uint64{1, 1, 1} // (≤1, ≤2, +Inf) non-cumulative
	for i, b := range ss.Buckets {
		if b != want[i] {
			t.Errorf("bucket[%d] = %d, want %d", i, b, want[i])
		}
	}

	fs, _ = snap.Family("reqs_total")
	if len(fs.LabelNames) != 2 || fs.LabelNames[0] != "endpoint" {
		t.Errorf("reqs_total label names %v", fs.LabelNames)
	}
	if got := fs.Series[0].LabelValues; len(got) != 2 || got[0] != "/a" || got[1] != "200" {
		t.Errorf("first series label values %v", got)
	}
}

// TestSnapshotDetached: a snapshot is a copy; later observations do
// not leak into it.
func TestSnapshotDetached(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "", []float64{1})
	h.Observe(0.5)
	snap := r.Snapshot()
	h.Observe(0.5)
	h.Observe(2)
	fs, _ := snap.Family("h")
	if fs.Series[0].Count != 1 || fs.Series[0].Buckets[0] != 1 {
		t.Errorf("snapshot mutated by later observations: %+v", fs.Series[0])
	}
}

// TestSnapshotMetadataDetached: a snapshot's label names and bounds are
// copies too. Overwriting them changes neither where a later Observe
// lands nor what /metrics prints.
func TestSnapshotMetadataDetached(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "", []float64{1, 2})
	v := r.CounterVec("c_total", "", "code")
	v.With("200").Inc()
	snap := r.Snapshot()
	for i := range snap {
		if len(snap[i].Bounds) > 0 {
			snap[i].Bounds[0] = 100
		}
		if len(snap[i].LabelNames) > 0 {
			snap[i].LabelNames[0] = "mutated"
		}
	}
	h.Observe(0.5)
	fs, _ := r.Snapshot().Family("h")
	if got := fs.Series[0].Buckets; got[0] != 1 {
		t.Errorf("Observe(0.5) after mutating a snapshot's bounds: buckets %v, want the first one", got)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{`h_bucket{le="1"} 1`, `c_total{code="200"} 1`} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics lacks %q after mutating a snapshot:\n%s", want, out)
		}
	}
	if strings.Contains(out, "100") || strings.Contains(out, "mutated") {
		t.Errorf("/metrics shows a snapshot's mutation:\n%s", out)
	}
}

// TestHistogramObserveRejectsNaNAndNegative is the fail-on-old
// regression test for the Observe hardening: a NaN (failed timer) must
// be dropped entirely, and a negative duration (clock step) clamped to
// zero — previously both landed in sum, poisoning it permanently (NaN)
// or walking it backwards, while count kept rising.
func TestHistogramObserveRejectsNaNAndNegative(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "", []float64{1})
	h.Observe(math.NaN())
	if c, s := h.Count(), h.Sum(); c != 0 || s != 0 || math.IsNaN(s) {
		t.Fatalf("after NaN observe: count %d sum %v, want 0 and 0", c, s)
	}
	h.Observe(-5)
	if c, s := h.Count(), h.Sum(); c != 1 || s != 0 {
		t.Fatalf("after negative observe: count %d sum %v, want 1 and 0 (clamped)", c, s)
	}
	// The clamped observation lands in the first bucket, keeping the
	// bucket/count invariant intact.
	snap := r.Snapshot()
	fs, _ := snap.Family("lat")
	if fs.Series[0].Buckets[0] != 1 {
		t.Errorf("clamped observation not in first bucket: %v", fs.Series[0].Buckets)
	}
	h.Observe(0.5)
	if c, s := h.Count(), h.Sum(); c != 2 || s != 0.5 {
		t.Fatalf("after valid observe: count %d sum %v, want 2 and 0.5", c, s)
	}
}

// TestSnapshotTornScrapeRace hammers every instrument type from
// concurrent writers — including label-series creation via With —
// while a reader snapshots in a loop, asserting per-snapshot histogram
// invariants. Run under -race this doubles as the data-race proof for
// the Range/Snapshot visitor.
func TestSnapshotTornScrapeRace(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	g := r.Gauge("g", "")
	cv := r.CounterVec("cv_total", "", "k")
	hv := r.HistogramVec("hv_seconds", "", []float64{0.5, 1, 2}, "k")

	const writers = 4
	const perWriter = 2000
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			labels := []string{"a", "b", "c", "d"}
			for i := 0; i < perWriter; i++ {
				c.Inc()
				g.Add(1)
				cv.With(labels[i%len(labels)]).Inc()
				hv.With(labels[(i+w)%len(labels)]).Observe(1.0)
			}
		}(w)
	}
	go func() { wg.Wait(); close(stop) }()

	scrapes := 0
	for {
		select {
		case <-stop:
			if scrapes == 0 {
				t.Fatal("no snapshot raced the writers")
			}
			// Final state: every observation accounted for.
			snap := r.Snapshot()
			if got := snap.Value("c_total"); got != writers*perWriter {
				t.Errorf("c_total = %v, want %d", got, writers*perWriter)
			}
			fs, _ := snap.Family("hv_seconds")
			var total uint64
			for _, ss := range fs.Series {
				total += ss.Count
			}
			if total != writers*perWriter {
				t.Errorf("hv_seconds total count = %d, want %d", total, writers*perWriter)
			}
			return
		default:
		}
		snap := r.Snapshot()
		scrapes++
		fs, ok := snap.Family("hv_seconds")
		if !ok {
			continue
		}
		for _, ss := range fs.Series {
			var sum uint64
			for _, b := range ss.Buckets {
				sum += b
			}
			if sum != ss.Count {
				t.Fatalf("scrape %d: torn histogram snapshot: buckets sum %d, count %d", scrapes, sum, ss.Count)
			}
			// All observations are 1.0s; a torn sum shows as a
			// non-integer or as disagreement with count.
			if ss.Sum != float64(ss.Count) {
				t.Fatalf("scrape %d: sum %v disagrees with count %d", scrapes, ss.Sum, ss.Count)
			}
		}
	}
}
