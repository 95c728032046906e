package metrics

import (
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounter(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_total", "Jobs processed.")
	c.Inc()
	c.Add(2.5)
	c.Add(-4) // dropped: counters are monotonic
	if got := c.Value(); got != 3.5 {
		t.Errorf("Value = %v, want 3.5", got)
	}
	// Re-registering the same name/type returns the same counter.
	if c2 := r.Counter("jobs_total", "Jobs processed."); c2 != c {
		t.Error("re-registration returned a different counter")
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("inflight", "In-flight jobs.")
	g.Set(5)
	g.Inc()
	g.Dec()
	g.Add(-2)
	if got := g.Value(); got != 3 {
		t.Errorf("Value = %v, want 3", got)
	}
}

func TestCounterVec(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("requests_total", "Requests.", "endpoint", "code")
	v.With("/healthz", "200").Inc()
	v.With("/healthz", "200").Inc()
	v.With("/metrics", "200").Inc()
	if got := v.With("/healthz", "200").Value(); got != 2 {
		t.Errorf("healthz count = %v, want 2", got)
	}
	if got := v.With("/metrics", "200").Value(); got != 1 {
		t.Errorf("metrics count = %v, want 1", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("latency_seconds", "Latency.", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 2, 100} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Errorf("Count = %d, want 5", got)
	}
	if got := h.Sum(); got != 102.65 {
		t.Errorf("Sum = %v, want 102.65", got)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	// Cumulative buckets: le=0.1 has 2 (0.05 and the boundary 0.1),
	// le=1 has 3, le=10 has 4, +Inf has all 5.
	for _, want := range []string{
		`latency_seconds_bucket{le="0.1"} 2`,
		`latency_seconds_bucket{le="1"} 3`,
		`latency_seconds_bucket{le="10"} 4`,
		`latency_seconds_bucket{le="+Inf"} 5`,
		`latency_seconds_sum 102.65`,
		`latency_seconds_count 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "A counter.").Add(2)
	r.Gauge("b", "A gauge.").Set(-1.5)
	r.CounterVec("c_total", "Labelled.", "x").With(`quo"te`).Inc()

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP a_total A counter.\n# TYPE a_total counter\na_total 2\n",
		"# TYPE b gauge\nb -1.5\n",
		"c_total{x=\"quo\\\"te\"} 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Families with no series are omitted entirely.
	r2 := NewRegistry()
	r2.CounterVec("unused_total", "Never incremented.", "x")
	var b2 strings.Builder
	if err := r2.WritePrometheus(&b2); err != nil {
		t.Fatal(err)
	}
	if b2.String() != "" {
		t.Errorf("empty family rendered: %q", b2.String())
	}
}

// TestWritePrometheusPinned compares the whole exposition with bytes
// captured from a known-good renderer: an unlabelled counter, a
// labelled counter with an empty and an escaped value, a gauge without
// help, labelled and unlabelled histograms with custom bounds (one
// observation above the top bound), and a family with no series.
func TestWritePrometheusPinned(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "A counter.").Add(2)
	cv := r.CounterVec("c_total", "Labelled\\counter,\nescaped help.", "x", "y")
	cv.With("", "plain").Inc()
	cv.With(`quo"te`, "back\\slash").Add(3.5)
	r.Gauge("b", "").Set(-1.5)
	hv := r.HistogramVec("h_seconds", "A histogram.", []float64{0.5, 1, 2.5}, "stage")
	hv.With("fast").Observe(0.25)
	hv.With("fast").Observe(1)
	hv.With("slow").Observe(7)
	r.Histogram("u_seconds", "Unlabelled.", []float64{1}).Observe(0.5)
	r.CounterVec("unused_total", "Never incremented.", "x")

	const want = `# HELP a_total A counter.
# TYPE a_total counter
a_total 2
# HELP c_total Labelled\\counter,\nescaped help.
# TYPE c_total counter
c_total{x="",y="plain"} 1
c_total{x="quo\"te",y="back\\slash"} 3.5
# TYPE b gauge
b -1.5
# HELP h_seconds A histogram.
# TYPE h_seconds histogram
h_seconds_bucket{stage="fast",le="0.5"} 1
h_seconds_bucket{stage="fast",le="1"} 2
h_seconds_bucket{stage="fast",le="2.5"} 2
h_seconds_bucket{stage="fast",le="+Inf"} 2
h_seconds_sum{stage="fast"} 1.25
h_seconds_count{stage="fast"} 2
h_seconds_bucket{stage="slow",le="0.5"} 0
h_seconds_bucket{stage="slow",le="1"} 0
h_seconds_bucket{stage="slow",le="2.5"} 0
h_seconds_bucket{stage="slow",le="+Inf"} 1
h_seconds_sum{stage="slow"} 7
h_seconds_count{stage="slow"} 1
# HELP u_seconds Unlabelled.
# TYPE u_seconds histogram
u_seconds_bucket{le="1"} 1
u_seconds_bucket{le="+Inf"} 1
u_seconds_sum 0.5
u_seconds_count 1
`
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != want {
		t.Errorf("exposition changed:\n got:\n%s\nwant:\n%s", got, want)
	}
}

func TestRegistrationPanics(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	r := NewRegistry()
	r.Counter("ok_total", "")
	expectPanic("bad metric name", func() { r.Counter("bad-name", "") })
	expectPanic("bad label name", func() { r.CounterVec("v_total", "", "not-ok") })
	expectPanic("type clash", func() { r.Gauge("ok_total", "") })
	expectPanic("label clash", func() { r.CounterVec("ok_total", "", "x") })
	expectPanic("bad buckets", func() { r.Histogram("h", "", []float64{1, 1}) })
	v := r.CounterVec("labelled_total", "", "x", "y")
	expectPanic("label arity", func() { v.With("only-one") })
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n_total", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h_seconds", "", nil)
	v := r.CounterVec("v_total", "", "w")
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i) / per)
				v.With(string(rune('a' + w%2))).Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Errorf("counter = %v, want %d", got, workers*per)
	}
	if got := g.Value(); got != workers*per {
		t.Errorf("gauge = %v, want %d", got, workers*per)
	}
	if got := h.Count(); got != workers*per {
		t.Errorf("histogram count = %d, want %d", got, workers*per)
	}
	total := v.With("a").Value() + v.With("b").Value()
	if total != workers*per {
		t.Errorf("vec total = %v, want %d", total, workers*per)
	}
}

// TestHistogramSnapshotConsistency scrapes while observations land and
// checks each exposition is self-consistent: every observation is 1.0,
// so h_sum must equal h_count and the +Inf bucket must hold every
// observation counted. A rendering that read buckets, sum, and count
// under separate lock acquisitions would tear.
func TestHistogramSnapshotConsistency(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_seconds", "", []float64{0.5, 2})

	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
					h.Observe(1.0)
				}
			}
		}()
	}

	for i := 0; i < 200; i++ {
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		var inf, count uint64
		var sum float64
		var haveInf, haveCount, haveSum bool
		for _, line := range strings.Split(b.String(), "\n") {
			val := line[strings.LastIndex(line, " ")+1:]
			switch {
			case strings.HasPrefix(line, `h_seconds_bucket{le="+Inf"}`):
				n, err := strconv.ParseUint(val, 10, 64)
				if err != nil {
					t.Fatalf("parsing %q: %v", line, err)
				}
				inf, haveInf = n, true
			case strings.HasPrefix(line, "h_seconds_count"):
				n, err := strconv.ParseUint(val, 10, 64)
				if err != nil {
					t.Fatalf("parsing %q: %v", line, err)
				}
				count, haveCount = n, true
			case strings.HasPrefix(line, "h_seconds_sum"):
				f, err := strconv.ParseFloat(val, 64)
				if err != nil {
					t.Fatalf("parsing %q: %v", line, err)
				}
				sum, haveSum = f, true
			}
		}
		if !haveInf || !haveCount || !haveSum {
			t.Fatalf("exposition missing histogram series:\n%s", b.String())
		}
		if inf != count {
			t.Fatalf("scrape %d: +Inf bucket = %d, count = %d (torn snapshot)", i, inf, count)
		}
		if sum != float64(count) {
			t.Fatalf("scrape %d: sum = %v, count = %d (all observations are 1.0; torn snapshot)", i, sum, count)
		}
	}
	close(done)
	wg.Wait()
}

// TestLabelValueEscaping pins the exposition escaping rules: label
// values may carry backslashes, quotes, and newlines, and must land
// escaped exactly as Prometheus's text format requires, one series per
// distinct raw value.
func TestLabelValueEscaping(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("esc_total", "Escaping.", "path")
	v.With(`back\slash`).Inc()
	v.With("new\nline").Inc()
	v.With(`quo"te`).Add(2)
	v.With("plain").Inc()

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`esc_total{path="back\\slash"} 1`,
		`esc_total{path="new\nline"} 1`,
		`esc_total{path="quo\"te"} 2`,
		`esc_total{path="plain"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// A raw newline inside a label value would corrupt the line-based
	// format for every series after it.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "line") {
			t.Errorf("unescaped newline split a series line: %q", line)
		}
	}
}

// TestHelpEscaping: HELP text with backslashes and newlines must stay
// on one line.
func TestHelpEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("h_total", "first\nsecond \\ third").Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP h_total first\nsecond \\ third`
	if !strings.Contains(b.String(), want+"\n") {
		t.Errorf("exposition missing %q:\n%s", want, b.String())
	}
}

// TestLabelledSnapshotConsistency is the torn-scrape check for
// labelled series: labelled histograms and counters are updated from
// several goroutines while WritePrometheus renders, and every scrape
// must be self-consistent per series — all observations are 1.0, so
// for each label value sum == count == +Inf bucket. Run under -race
// this also proves the vec maps tolerate concurrent With/write.
func TestLabelledSnapshotConsistency(t *testing.T) {
	r := NewRegistry()
	hv := r.HistogramVec("hv_seconds", "", []float64{0.5, 2}, "w")
	cv := r.CounterVec("cv_total", "", "w")

	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		label := string(rune('a' + w%2))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
					hv.With(label).Observe(1.0)
					cv.With(label).Inc()
				}
			}
		}()
	}

	parse := func(line string) float64 {
		v, err := strconv.ParseFloat(line[strings.LastIndex(line, " ")+1:], 64)
		if err != nil {
			t.Fatalf("parsing %q: %v", line, err)
		}
		return v
	}
	for i := 0; i < 200; i++ {
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		type series struct {
			inf, count, sum float64
			seen            int
		}
		got := map[string]*series{}
		at := func(label string) *series {
			if got[label] == nil {
				got[label] = &series{}
			}
			return got[label]
		}
		for _, line := range strings.Split(b.String(), "\n") {
			for _, label := range []string{"a", "b"} {
				switch {
				case strings.HasPrefix(line, `hv_seconds_bucket{w="`+label+`",le="+Inf"}`):
					s := at(label)
					s.inf, s.seen = parse(line), s.seen+1
				case strings.HasPrefix(line, `hv_seconds_count{w="`+label+`"}`):
					s := at(label)
					s.count, s.seen = parse(line), s.seen+1
				case strings.HasPrefix(line, `hv_seconds_sum{w="`+label+`"}`):
					s := at(label)
					s.sum, s.seen = parse(line), s.seen+1
				}
			}
		}
		for label, s := range got {
			if s.seen != 3 {
				t.Fatalf("scrape %d label %s: %d of 3 series lines present", i, label, s.seen)
			}
			if s.inf != s.count || s.sum != s.count {
				t.Fatalf("scrape %d label %s: +Inf %v, count %v, sum %v (torn snapshot)",
					i, label, s.inf, s.count, s.sum)
			}
		}
	}
	close(done)
	wg.Wait()
}
