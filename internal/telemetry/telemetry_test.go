package telemetry

import (
	"context"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
)

func TestSpanTree(t *testing.T) {
	tr := NewTracer(TracerConfig{})
	ctx, root := tr.StartTrace(context.Background(), "http.request", "req-1", "endpoint", "/v1/report")
	if root == nil {
		t.Fatal("StartTrace returned nil span")
	}
	if got := root.TraceID(); got != "req-1" {
		t.Fatalf("TraceID = %q, want req-1", got)
	}

	cctx, char := StartSpan(ctx, "characterize")
	_, sim := StartSpan(cctx, "simulate", "machine", "skylake")
	sim.End()
	char.Record("sched.wait", time.Now().Add(-time.Millisecond), time.Now(), "key", "k")
	char.End()
	root.SetAttr("status", "200")
	root.End()

	traces := tr.Traces(Filter{})
	if len(traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(traces))
	}
	got := traces[0]
	if got.TraceID != "req-1" {
		t.Errorf("trace id = %q", got.TraceID)
	}
	if got.Root.Name != "http.request" || got.Root.Attrs["status"] != "200" {
		t.Errorf("root = %+v", got.Root)
	}
	if len(got.Root.Children) != 1 || got.Root.Children[0].Name != "characterize" {
		t.Fatalf("root children = %+v", got.Root.Children)
	}
	names := map[string]bool{}
	for _, c := range got.Root.Children[0].Children {
		names[c.Name] = true
	}
	if !names["simulate"] || !names["sched.wait"] {
		t.Errorf("characterize children = %v, want simulate and sched.wait", names)
	}
}

func TestInboundIDSanitized(t *testing.T) {
	tr := NewTracer(TracerConfig{})
	for _, bad := range []string{"has space", "quote\"", strings.Repeat("x", 65), ""} {
		_, s := tr.StartTrace(context.Background(), "r", bad)
		if id := s.TraceID(); id == bad || id == "" || len(id) != 16 {
			t.Errorf("id %q not replaced by a generated one (got %q)", bad, id)
		}
		s.End()
	}
	_, s := tr.StartTrace(context.Background(), "r", "ok-id_1.2")
	if got := s.TraceID(); got != "ok-id_1.2" {
		t.Errorf("valid inbound id replaced: %q", got)
	}
	s.End()
}

func TestRingBounded(t *testing.T) {
	tr := NewTracer(TracerConfig{Capacity: 3})
	for i := 0; i < 10; i++ {
		_, s := tr.StartTrace(context.Background(), "r", "id-"+string(rune('a'+i)))
		s.End()
	}
	traces := tr.Traces(Filter{})
	if len(traces) != 3 {
		t.Fatalf("ring holds %d, want 3", len(traces))
	}
	// Newest first: j, i, h.
	for i, want := range []string{"id-j", "id-i", "id-h"} {
		if traces[i].TraceID != want {
			t.Errorf("traces[%d] = %q, want %q", i, traces[i].TraceID, want)
		}
	}
	if got := tr.Finished(); got != 10 {
		t.Errorf("Finished = %d, want 10", got)
	}
}

func TestFilters(t *testing.T) {
	tr := NewTracer(TracerConfig{})
	_, fast := tr.StartTrace(context.Background(), "r", "fast", "experiment", "table1")
	fast.End()
	_, slow := tr.StartTrace(context.Background(), "r", "slow", "experiment", "fig2")
	time.Sleep(20 * time.Millisecond)
	slow.End()

	if got := tr.Traces(Filter{MinDuration: 10 * time.Millisecond}); len(got) != 1 || got[0].TraceID != "slow" {
		t.Errorf("MinDuration filter = %+v", got)
	}
	if got := tr.Traces(Filter{Experiment: "table1"}); len(got) != 1 || got[0].TraceID != "fast" {
		t.Errorf("Experiment filter = %+v", got)
	}
	if got := tr.Traces(Filter{Limit: 1}); len(got) != 1 {
		t.Errorf("Limit filter returned %d", len(got))
	}
}

func TestDisabledTracingIsFreeAndNilSafe(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(200, func() {
		c, s := StartSpan(ctx, "simulate")
		if s != nil || c != ctx {
			t.Fatal("StartSpan on a span-free context must be a no-op")
		}
		s.End()
		s.SetAttr("k", "v")
		s.TraceID()
	})
	if allocs != 0 {
		t.Errorf("disabled StartSpan allocates %v times per call, want 0", allocs)
	}

	var nilTracer *Tracer
	nctx, s := nilTracer.StartTrace(ctx, "r", "id")
	if s != nil || nctx != ctx {
		t.Error("nil tracer must not trace")
	}
	s.Record("x", time.Now(), time.Now())
	if nilTracer.Traces(Filter{}) != nil || nilTracer.Capacity() != 0 {
		t.Error("nil tracer accessors must be zero")
	}
}

func TestStageHistogramRecorded(t *testing.T) {
	reg := metrics.NewRegistry()
	tr := NewTracer(TracerConfig{Metrics: reg})
	ctx, root := tr.StartTrace(context.Background(), "http.request", "")
	_, s := StartSpan(ctx, "simulate")
	s.End()
	root.End()

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`spec17_stage_duration_seconds_count{stage="simulate"} 1`,
		`spec17_stage_duration_seconds_count{stage="http.request"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestSlowTraceLogged(t *testing.T) {
	var buf strings.Builder
	var mu sync.Mutex
	lg := NewLogger(syncWriter{&mu, &buf}, slog.LevelDebug)
	tr := NewTracer(TracerConfig{SlowThreshold: time.Millisecond, Log: lg})

	_, fast := tr.StartTrace(context.Background(), "r", "fastone")
	fast.End()
	_, slow := tr.StartTrace(context.Background(), "r", "slowone")
	time.Sleep(5 * time.Millisecond)
	slow.End()

	mu.Lock()
	out := buf.String()
	mu.Unlock()
	if !strings.Contains(out, "slowone") || !strings.Contains(out, "slow trace") {
		t.Errorf("slow trace not logged:\n%s", out)
	}
	if strings.Contains(out, "fastone") {
		t.Errorf("fast trace logged as slow:\n%s", out)
	}
}

func TestSpanCap(t *testing.T) {
	tr := NewTracer(TracerConfig{})
	ctx, root := tr.StartTrace(context.Background(), "r", "")
	for i := 0; i < maxSpansPerTrace+10; i++ {
		_, s := StartSpan(ctx, "leaf")
		s.End()
	}
	root.End()
	got := tr.Traces(Filter{})[0]
	if got.DroppedSpans != 11 { // root counts toward the cap
		t.Errorf("DroppedSpans = %d, want 11", got.DroppedSpans)
	}
}

func TestConcurrentSpans(t *testing.T) {
	tr := NewTracer(TracerConfig{})
	ctx, root := tr.StartTrace(context.Background(), "r", "")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				c, s := StartSpan(ctx, "leaf")
				_, g := StartSpan(c, "grandchild")
				g.End()
				s.End()
			}
		}()
	}
	wg.Wait()
	root.End()
	data := tr.Traces(Filter{})[0]
	if n := countSpans(&data.Root); n != 1+8*50*2 {
		t.Errorf("span count = %d, want %d", n, 1+8*50*2)
	}
}

type syncWriter struct {
	mu *sync.Mutex
	b  *strings.Builder
}

func (w syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.Write(p)
}
