// Package bench is the benchmark-snapshot kit behind `make
// bench-snapshot` and `make bench-gate`: one fixed suite of the
// repository's key performance paths, measured via testing.Benchmark,
// serialized to committed BENCH_<n>.json files, and compared against
// the last snapshot with a regression tolerance.
//
// The suite deliberately tracks end-to-end paths rather than
// micro-kernels: the characterization fan-out (serial and parallel),
// the warm store-hit path the daemon leans on, and the two measurement
// engines over the full workload registry at default fidelity — the
// pair whose ratio is the analytic engine's reason to exist.
package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// The snapshot names of the engine sweep pair; Snapshot.Speedup is
// derived from them.
const (
	ExactName    = "engine_exact_registry"
	AnalyticName = "engine_analytic_registry"
)

// The hot-loop benchmark pair: the batched trace generator on its own,
// and one exact-engine leaf (one machine × one workload at default
// fidelity). Both run a fixed iteration budget rather than
// testing.Benchmark's auto-scaling, so the bench gate's wall time
// stays bounded no matter how fast the loop gets.
const (
	TraceFillName = "trace_fill"
	ExactLeafName = "exact_leaf"
)

// Result is one benchmark's measurement.
type Result struct {
	NsPerOp    int64 `json:"ns_per_op"`
	Iterations int   `json:"iterations"`
}

// Snapshot is the BENCH_<n>.json document.
type Snapshot struct {
	Schema     int               `json:"schema"`
	GoVersion  string            `json:"go_version"`
	GOOS       string            `json:"goos"`
	GOARCH     string            `json:"goarch"`
	Benchmarks map[string]Result `json:"benchmarks"`
	// AnalyticSpeedup is exact/analytic ns_per_op for the full-registry
	// sweep — the analytic engine's contract headline (must stay ≥ 50).
	AnalyticSpeedup float64 `json:"analytic_speedup"`
}

// registrySweep measures every registry workload on every fleet
// machine with eng at default fidelity — one op is the full sweep.
func registrySweep(eng engine.Engine) func(b *testing.B) {
	return func(b *testing.B) {
		fleet, err := machine.Fleet()
		if err != nil {
			b.Fatal(err)
		}
		profiles := workloads.All()
		ctx := context.Background()
		opts := machine.RunOptions{} // default fidelity: 400k instructions
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, p := range profiles {
				w := p.Workload()
				for _, m := range fleet {
					if _, err := eng.Measure(ctx, m, w, opts); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
	}
}

// characterize measures the fleet characterization fan-out at reduced
// fidelity, as bench_test.go's serial/parallel pair does.
func characterize(parallelism int) func(b *testing.B) {
	return func(b *testing.B) {
		fleet, err := machine.Fleet()
		if err != nil {
			b.Fatal(err)
		}
		var entries []core.Entry
		for _, p := range workloads.CPU2017()[:8] {
			entries = append(entries, core.Entry{Label: p.Name, Workload: p.Workload()})
		}
		opts := machine.RunOptions{Instructions: 20_000, WarmupInstructions: 4_000, Parallelism: parallelism}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := core.CharacterizeWith(context.Background(), entries, fleet, opts, nil, nil, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func storeHit(b *testing.B) {
	st, err := store.Open(store.Config{})
	if err != nil {
		b.Fatal(err)
	}
	key := store.Key{Machine: "m", Workload: "w", Instructions: 400_000, Content: "deadbeef"}
	st.Put(key, &machine.RawCounts{})
	ctx := context.Background()
	compute := func(context.Context) (*machine.RawCounts, error) {
		panic("compute called on a warm hit")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.GetOrCompute(ctx, key, compute); err != nil {
			b.Fatal(err)
		}
	}
}

// traceFill measures the batched trace generator alone: one op fills
// traceFillEvents events through FillBatch in simulation-kernel-sized
// slabs, using a large-footprint registry profile so the block/data
// models take their realistic paths.
const traceFillEvents = 1 << 20

func traceFill(n int) error {
	profiles := workloads.All()
	spec := profiles[0].Workload().Spec
	gen, err := trace.NewGenerator(spec, "bench:trace_fill")
	if err != nil {
		return err
	}
	slab := make([]trace.Event, 512)
	for op := 0; op < n; op++ {
		for filled := 0; filled < traceFillEvents; filled += len(slab) {
			gen.FillBatch(slab)
		}
	}
	return nil
}

// exactLeaf measures one exact-engine leaf: a single machine × workload
// measurement at default fidelity — the unit cost every sweep and
// characterization fan-out multiplies.
func exactLeaf(n int) error {
	fleet, err := machine.Fleet()
	if err != nil {
		return err
	}
	ctx := context.Background()
	w := workloads.All()[0].Workload()
	eng := engine.Exact{}
	for op := 0; op < n; op++ {
		if _, err := eng.Measure(ctx, fleet[0], w, machine.RunOptions{}); err != nil {
			return err
		}
	}
	return nil
}

// Entry is one suite benchmark: either auto-scaled through
// testing.Benchmark (Fn), or run for exactly Iters iterations with
// direct timing (FnN) — the fixed-budget path that keeps fast-moving
// hot-loop benchmarks from inflating gate wall time as they speed up.
type Entry struct {
	Name  string
	Fn    func(b *testing.B)
	FnN   func(n int) error
	Iters int
}

// Suite returns the snapshot suite in a stable order.
func Suite() []Entry {
	return []Entry{
		{Name: "characterize_serial", Fn: characterize(1)},
		{Name: "characterize_parallel", Fn: characterize(0)},
		{Name: "store_hit", Fn: storeHit},
		{Name: TraceFillName, FnN: traceFill, Iters: 8},
		{Name: ExactLeafName, FnN: exactLeaf, Iters: 8},
		{Name: ExactName, Fn: registrySweep(engine.Exact{})},
		{Name: AnalyticName, Fn: registrySweep(engine.Analytic{})},
	}
}

// run measures one entry through whichever path it declares.
func (e Entry) run() (Result, error) {
	if e.FnN != nil {
		n := e.Iters
		if n <= 0 {
			n = 1
		}
		start := time.Now()
		if err := e.FnN(n); err != nil {
			return Result{}, fmt.Errorf("bench: %s: %w", e.Name, err)
		}
		return Result{NsPerOp: time.Since(start).Nanoseconds() / int64(n), Iterations: n}, nil
	}
	r := testing.Benchmark(e.Fn)
	if r.N == 0 {
		return Result{}, fmt.Errorf("bench: %s failed (zero iterations)", e.Name)
	}
	return Result{NsPerOp: r.NsPerOp(), Iterations: r.N}, nil
}

// Measure runs the whole suite and assembles a Snapshot. progress (may
// be nil) is called before each benchmark starts.
func Measure(progress func(name string)) (*Snapshot, error) {
	snap := &Snapshot{
		Schema:     1,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Benchmarks: make(map[string]Result),
	}
	for _, bm := range Suite() {
		if progress != nil {
			progress(bm.Name)
		}
		r, err := bm.run()
		if err != nil {
			return nil, err
		}
		snap.Benchmarks[bm.Name] = r
	}
	exact, analytic := snap.Benchmarks[ExactName], snap.Benchmarks[AnalyticName]
	if analytic.NsPerOp > 0 {
		snap.AnalyticSpeedup = float64(exact.NsPerOp) / float64(analytic.NsPerOp)
	}
	return snap, nil
}

var snapshotRe = regexp.MustCompile(`^BENCH_(\d+)\.json$`)

// Latest returns the highest-numbered BENCH_<n>.json in dir and its
// index, or ("", 0, nil) when none exist.
func Latest(dir string) (path string, n int, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", 0, err
	}
	for _, e := range entries {
		m := snapshotRe.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		var i int
		fmt.Sscanf(m[1], "%d", &i)
		if i > n {
			n, path = i, filepath.Join(dir, e.Name())
		}
	}
	return path, n, nil
}

// Load reads a snapshot file.
func Load(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("bench: parsing %s: %w", path, err)
	}
	return &snap, nil
}

// Save writes a snapshot with stable formatting.
func (s *Snapshot) Save(path string) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Regression describes one benchmark that got slower than the
// snapshot allows.
type Regression struct {
	Name         string
	Old, New     int64   // ns/op
	Growth       float64 // (new-old)/old
	MissingInNew bool
}

func (r Regression) String() string {
	if r.MissingInNew {
		return fmt.Sprintf("%s: present in snapshot but not measured", r.Name)
	}
	return fmt.Sprintf("%s: %d ns/op -> %d ns/op (+%.1f%%, tolerance exceeded)",
		r.Name, r.Old, r.New, r.Growth*100)
}

// Compare reports every benchmark in the committed snapshot whose
// fresh measurement regressed by more than tolerance (0.30 = 30%).
// Benchmarks newly added to the suite (absent from the snapshot) pass;
// benchmarks dropped from the suite fail.
func Compare(committed, current *Snapshot, tolerance float64) []Regression {
	var regressions []Regression
	names := make([]string, 0, len(committed.Benchmarks))
	for name := range committed.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		old := committed.Benchmarks[name]
		cur, ok := current.Benchmarks[name]
		if !ok {
			regressions = append(regressions, Regression{Name: name, MissingInNew: true})
			continue
		}
		if old.NsPerOp <= 0 {
			// A zero (or negative) baseline is corrupt snapshot data: no
			// tolerance can be expressed against it, and dividing by it
			// would yield ±Inf/NaN growth. Skip rather than gate on it.
			continue
		}
		growth := float64(cur.NsPerOp-old.NsPerOp) / float64(old.NsPerOp)
		if growth > tolerance {
			regressions = append(regressions, Regression{
				Name: name, Old: old.NsPerOp, New: cur.NsPerOp, Growth: growth,
			})
		}
	}
	return regressions
}
