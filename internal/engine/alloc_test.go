package engine

import (
	"context"
	"testing"

	"repro/internal/machine"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// TestAnalyticMeasureAllocs: an untraced estimate allocates only the
// *RawCounts it returns, on every registry workload and fleet machine,
// once its pair's split first-level times are in the memo. The first
// estimate of each pair here is AllocsPerRun's warm-up run, which
// fills the memo, so every counted estimate is a memo hit. The race
// detector's instrumentation allocates on its own, so a -race build
// skips it.
func TestAnalyticMeasureAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	fleet, err := machine.Fleet()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, p := range workloads.All() {
		w := p.Workload()
		for _, m := range fleet {
			var err error
			allocs := testing.AllocsPerRun(5, func() {
				_, err = (Analytic{}).Measure(ctx, m, w, machine.RunOptions{})
			})
			if err != nil {
				t.Fatalf("%s on %s: %v", w.Key, m.Name(), err)
			}
			if allocs > 1 {
				t.Errorf("%s on %s: %v allocations per untraced estimate, want at most 1 (the result)",
					w.Key, m.Name(), allocs)
			}
		}
	}
}

// TestAnalyticMeasureTracedSpan: on a traced context the estimate still
// records its "estimate" span with the machine and workload, and the
// counts equal the untraced estimate's.
func TestAnalyticMeasureTracedSpan(t *testing.T) {
	fleet, err := machine.Fleet()
	if err != nil {
		t.Fatal(err)
	}
	m, w := fleet[0], workloads.All()[0].Workload()
	tr := telemetry.NewTracer(telemetry.TracerConfig{})
	ctx, root := tr.StartTrace(context.Background(), "test", "")
	traced, err := (Analytic{}).Measure(ctx, m, w, machine.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	untraced, err := (Analytic{}).Measure(context.Background(), m, w, machine.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if *traced != *untraced {
		t.Error("traced and untraced estimates differ")
	}
	traces := tr.Traces(telemetry.Filter{})
	if len(traces) != 1 {
		t.Fatalf("%d finished traces, want 1", len(traces))
	}
	kids := traces[0].Root.Children
	if len(kids) != 1 || kids[0].Name != "estimate" ||
		kids[0].Attrs["machine"] != m.Name() || kids[0].Attrs["workload"] != w.Key {
		t.Errorf("root's children = %+v, want one estimate span for %s on %s", kids, w.Key, m.Name())
	}
}
