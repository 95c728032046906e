package repro

// One benchmark per table and figure of the paper's evaluation; each
// regenerates the corresponding result from the shared fleet
// characterization (built once, on first use). Run with:
//
//	go test -bench=. -benchmem
//
// The first benchmark to run pays the one-time characterization cost;
// the per-iteration numbers then measure the analysis pipelines (PCA,
// clustering, validation, coverage geometry) themselves.

import (
	"context"
	"io"
	"log/slog"
	"sync"
	"testing"

	"repro/internal/insight"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

var (
	benchLabOnce sync.Once
	benchLab     *Lab
)

// lab returns the shared benchmark lab at reduced (fast) fidelity —
// every qualitative result of the paper holds at this fidelity, and
// the bench suite stays runnable in seconds.
func lab(b *testing.B) *Lab {
	b.Helper()
	benchLabOnce.Do(func() {
		benchLab = NewLab(FastRunOptions())
	})
	if _, err := benchLab.Characterization(); err != nil {
		b.Fatal(err)
	}
	return benchLab
}

// benchmarkCharacterize measures the fleet characterization fan-out
// itself (8 benchmarks × 7 machines) at a fixed worker count, so the
// serial/parallel pair below shows the speedup of running the
// per-machine measurements across goroutines.
func benchmarkCharacterize(b *testing.B, parallelism int) {
	fleet, err := Fleet()
	if err != nil {
		b.Fatal(err)
	}
	var entries []Entry
	for _, p := range CPU2017Profiles()[:8] {
		entries = append(entries, Entry{Label: p.Name, Workload: p.Workload()})
	}
	opts := RunOptions{Instructions: 20_000, WarmupInstructions: 4_000, Parallelism: parallelism}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Characterize(context.Background(), entries, fleet, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCharacterizeSerial runs every (workload, machine)
// measurement on one goroutine.
func BenchmarkCharacterizeSerial(b *testing.B) { benchmarkCharacterize(b, 1) }

// BenchmarkCharacterizeParallel fans the measurements out across
// GOMAXPROCS workers — the Lab's default. Compare with
// BenchmarkCharacterizeSerial for the fleet-parallelism speedup.
func BenchmarkCharacterizeParallel(b *testing.B) { benchmarkCharacterize(b, 0) }

func BenchmarkTable1InstrMix(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Table1(l); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2MetricRanges(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Table2(l); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1CPIStacks(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := Fig1(l)
		if err != nil {
			b.Fatal(err)
		}
		_ = RenderStacks(rows, 60)
	}
}

func BenchmarkFig2DendrogramSpeedINT(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fig2(l); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3DendrogramSpeedFP(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fig3(l); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4DendrogramRateFP(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fig4(l); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable5Subsets(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Table5(l); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5ValidateINT(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fig5(l); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6ValidateFP(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fig6(l); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable6RandomSubsets(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Table6(l); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7InputSetsINT(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fig7(l); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8InputSetsFP(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fig8(l); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable7RepresentativeInputs(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Table7(l); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRateSpeedCompare(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RateSpeed(l); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9BranchScatter(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fig9(l); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10CacheScatter(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Fig10(l); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable8Domains(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Table8(l); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11CPU2006Coverage(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Fig11(l); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12PowerScatter(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Fig12(l); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig13EmergingWorkloads(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fig13(l); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable9Sensitivity(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Table9(l); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationLinkage(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AblateLinkage(l); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSubsetSizeSweep(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SubsetSizeSweep(l, 6); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRateScaling(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RateScaling(l, []string{"505.mcf_r"}, []int{1, 4}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestStoreHitFastPathAllocs guards the tracing-disabled contract of
// the observability layer: a warm store hit under a span-less context
// performs no telemetry allocations. The bound covers only the path's
// pre-existing costs — the key's string identity (itoa + concat) and
// GetOrCompute's typed-closure wrapper; a span, attr slice, or
// timestamp boxed on the untraced hit path would push it over.
func TestStoreHitFastPathAllocs(t *testing.T) {
	st, err := store.Open(store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	key := storeHitKey(t)
	st.Put(key, &machine.RawCounts{})
	ctx := context.Background()
	compute := func(context.Context) (*machine.RawCounts, error) {
		panic("compute called on a warm hit")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := st.GetOrCompute(ctx, key, compute); err != nil {
			panic(err)
		}
	})
	if allocs > 3 {
		t.Errorf("warm store hit allocates %.1f objects/op, want <= 3 (key id: itoa + concat, closure wrapper)", allocs)
	}
}

// TestStoreHitFastPathAllocsWithInsight extends the same contract to
// the drift monitor: it scores a pair on the put that completes it
// (store.OnPair), so a store with the monitor attached must keep the
// identical warm-hit allocation bound. A future per-Get drift hook
// would trip this immediately.
func TestStoreHitFastPathAllocsWithInsight(t *testing.T) {
	drift := insight.NewDrift(metrics.NewRegistry(), telemetry.NewLogger(io.Discard, slog.LevelError+1))
	st, err := store.Open(store.Config{OnPair: drift.ObservePair})
	if err != nil {
		t.Fatal(err)
	}
	key := storeHitKey(t)
	st.Put(key, &machine.RawCounts{})
	ctx := context.Background()
	compute := func(context.Context) (*machine.RawCounts, error) {
		panic("compute called on a warm hit")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := st.GetOrCompute(ctx, key, compute); err != nil {
			panic(err)
		}
	})
	if allocs > 3 {
		t.Errorf("warm store hit with insight attached allocates %.1f objects/op, want <= 3 (same bound as without)", allocs)
	}
}

// storeHitKey is the key of the store-hit tests: a registry workload on
// the first fleet machine at the default fidelity.
func storeHitKey(tb testing.TB) store.Key {
	tb.Helper()
	fleet, err := machine.Fleet()
	if err != nil {
		tb.Fatal(err)
	}
	return store.KeyForEngine(fleet[0], workloads.CPU2017()[0].Workload(), machine.RunOptions{}, "exact")
}

// BenchmarkStoreHit measures the warm-hit path the daemon leans on
// once its store is populated. Run with -benchmem to watch the
// allocation guard's numbers directly.
func BenchmarkStoreHit(b *testing.B) {
	st, err := store.Open(store.Config{})
	if err != nil {
		b.Fatal(err)
	}
	key := storeHitKey(b)
	st.Put(key, &machine.RawCounts{})
	ctx := context.Background()
	compute := func(context.Context) (*machine.RawCounts, error) {
		panic("compute called on a warm hit")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.GetOrCompute(ctx, key, compute); err != nil {
			b.Fatal(err)
		}
	}
}
