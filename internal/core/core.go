// Package core implements the paper's methodology (Section III) as a
// reusable pipeline: characterize workloads on a fleet of machines
// into a benchmark × (machine,metric) measurement matrix, remove
// metric correlation with PCA under the Kaiser criterion, measure
// program similarity by hierarchical clustering in the reduced space,
// and derive representative subsets, input-set selections,
// rate-vs-speed comparisons, coverage analyses, and sensitivity
// classifications from the result.
package core

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/counters"
	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// Entry is one workload to characterize, with its display label.
type Entry struct {
	Label    string
	Workload machine.Workload
}

// Characterization is the measurement matrix of a workload set on a
// machine fleet — the paper's "43 benchmarks × 140 metrics" object.
type Characterization struct {
	// Labels are the row names in order.
	Labels []string
	// MachineNames are the fleet machines in order.
	MachineNames []string

	samples map[string]map[string]*counters.Sample   // label -> machine -> sample
	raw     map[string]map[string]*machine.RawCounts // label -> machine -> raw counts
}

// Runner grants worker slots to measurement jobs. Implementations may
// bound concurrency and impose queueing policy (*sched.Queue is the
// canonical one). Do runs fn on the caller's goroutine under ctx once
// the job holds a slot; label names the job on ctx's trace.
type Runner interface {
	Do(ctx context.Context, label string, fn func(context.Context) error) error
}

// CharacterizeWith measures every entry on every machine, each
// (entry, machine) pair once, through a shared store (nil = a private
// memory-only one), a shared Runner, and a measurement engine (nil =
// the exact trace-driven engine). A nil Runner means a private
// scheduler pool of opts.Parallelism workers (0 = GOMAXPROCS, 1 =
// serial).
//
// opts.Parallelism pullers (0 = GOMAXPROCS) take the grid's pairs in
// order from one shared index. For each pair a puller builds the
// store key, which carries the engine's tier, so analytic and exact
// records coexist in one store without ever answering for each other.
// An estimate (the analytic tier) is looked up or computed by the
// puller itself, through the store, and takes no scheduler slot. An
// exact pair already in the store is served directly; a miss becomes
// a Stored measurement on a goroutine of its own, so it queues with
// the Runner's FIFO fairness at once. Every measurement coalesces with
// any concurrent one of the same key — another pair of this grid,
// another characterization, a Lab.RunStored — through the store's
// flight for it, so a key the grid repeats is measured once.
//
// Results are stored by (label, machine) and are deterministic
// regardless of scheduling; of several failed pairs, the first in grid
// order is reported. Canceling ctx abandons the remaining measurements
// and returns the context's error. The call returns only after every
// goroutine it started has exited.
func CharacterizeWith(ctx context.Context, entries []Entry, machines []*machine.Machine, opts machine.RunOptions, st *store.Store, r Runner, eng engine.Engine) (*Characterization, error) {
	c, err := newCharacterization(entries, machines)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if eng == nil {
		eng = engine.Exact{}
	}
	if r == nil {
		r = sched.NewPool(opts.Parallelism, nil).Queue(0)
	}
	if st == nil {
		st, _ = store.Open(store.Config{}) // a memory-only Open never fails
	}

	g := &grid{entries: entries, machines: machines, opts: opts, eng: eng}
	tier := eng.Tier()
	leaves := make([]leaf, len(entries)*len(machines))
	pullers := opts.Parallelism
	if pullers <= 0 {
		pullers = runtime.GOMAXPROCS(0)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(pullers, len(leaves)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(leaves) {
					return
				}
				l := &leaves[i]
				l.i = i
				e, m := g.pair(l)
				l.key = store.KeyForEngine(m, e.Workload, opts, string(tier))
				if estimates(tier) {
					l.rc, l.err = st.GetOrCompute(ctx, l.key, g.measurer(l))
					continue
				}
				if rc, ok := st.Lookup(ctx, l.key); ok {
					l.rc = rc
					continue
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					l.rc, l.err = Stored(ctx, r, tier, l.key, st.GetOrCompute, g.measurer(l))
				}()
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	for i := range leaves {
		l := &leaves[i]
		e, m := g.pair(l)
		var sample *counters.Sample
		err := l.err
		if err == nil {
			sample, err = counters.FromRaw(m.Name(), m.Config().HasRAPL, l.rc)
		}
		if err != nil {
			return nil, fmt.Errorf("core: %s on %s: %w", e.Label, m.Name(), err)
		}
		c.samples[e.Label][m.Name()] = sample
		c.raw[e.Label][m.Name()] = l.rc
	}
	return c, nil
}

// estimates reports whether tier's measurements are estimates: cheap
// enough to compute on the caller's goroutine, without a scheduler
// slot. Only the analytic tier's are.
func estimates(tier engine.Tier) bool { return tier == engine.TierAnalytic }

// Stored returns key's record through getOrCompute — a store's
// GetOrCompute or GetOrComputeMulti — computing a miss with compute.
// An estimate is computed inline, without a slot. An exact measurement
// is a job of its own: it enters the store's flight first and takes a
// worker slot of r only to lead it, so a caller joining another's
// measurement holds no slot while it waits, and a slot is only ever
// held by the computation it was taken for.
func Stored[V any](ctx context.Context, r Runner, tier engine.Tier, key store.Key,
	getOrCompute func(context.Context, store.Key, func(context.Context) (V, error)) (V, error),
	compute func(context.Context) (V, error)) (V, error) {
	if estimates(tier) {
		return getOrCompute(ctx, key, compute)
	}
	return getOrCompute(ctx, key, func(fctx context.Context) (v V, err error) {
		err = r.Do(fctx, jobLabel(fctx, key), func(jctx context.Context) error {
			v, err = compute(jctx)
			return err
		})
		return v, err
	})
}

// grid is one characterization's fixed inputs.
type grid struct {
	entries  []Entry
	machines []*machine.Machine
	opts     machine.RunOptions
	eng      engine.Engine
}

// leaf is one (entry, machine) pair of the grid: entries[i/len(machines)]
// on machines[i%len(machines)], and its outcome.
type leaf struct {
	i   int
	key store.Key
	rc  *machine.RawCounts
	err error
}

// pair returns the leaf's entry and machine.
func (g *grid) pair(l *leaf) (Entry, *machine.Machine) {
	n := len(g.machines)
	return g.entries[l.i/n], g.machines[l.i%n]
}

// jobLabel names key's scheduler job on ctx's trace: key's ID. The
// Runner shows a label only on a traced ctx, so an untraced one gets
// none and builds no string.
func jobLabel(ctx context.Context, key store.Key) string {
	if telemetry.FromContext(ctx) == nil {
		return ""
	}
	return key.ID()
}

// measurer returns the computation of one leaf on the engine. It
// captures the leaf, not a copy of its entry.
func (g *grid) measurer(l *leaf) func(context.Context) (*machine.RawCounts, error) {
	return func(ctx context.Context) (*machine.RawCounts, error) {
		e, m := g.pair(l)
		return g.eng.Measure(ctx, m, e.Workload, g.opts)
	}
}

// newCharacterization validates the inputs and allocates the empty
// result maps. Labels and machine names key the results, so each must
// be non-empty and unique.
func newCharacterization(entries []Entry, machines []*machine.Machine) (*Characterization, error) {
	if len(entries) == 0 {
		return nil, fmt.Errorf("core: no workloads to characterize")
	}
	if len(machines) == 0 {
		return nil, fmt.Errorf("core: no machines to measure on")
	}
	seen := make(map[string]bool, len(entries))
	for _, e := range entries {
		if e.Label == "" {
			return nil, fmt.Errorf("core: entry with empty label")
		}
		if seen[e.Label] {
			return nil, fmt.Errorf("core: duplicate label %q", e.Label)
		}
		seen[e.Label] = true
	}
	names := make(map[string]bool, len(machines))
	for _, m := range machines {
		switch {
		case m == nil:
			return nil, fmt.Errorf("core: nil machine")
		case m.Name() == "":
			return nil, fmt.Errorf("core: machine with empty name")
		case names[m.Name()]:
			return nil, fmt.Errorf("core: duplicate machine name %q", m.Name())
		}
		names[m.Name()] = true
	}

	c := &Characterization{
		samples: make(map[string]map[string]*counters.Sample, len(entries)),
		raw:     make(map[string]map[string]*machine.RawCounts, len(entries)),
	}
	for _, e := range entries {
		c.Labels = append(c.Labels, e.Label)
		c.samples[e.Label] = make(map[string]*counters.Sample, len(machines))
		c.raw[e.Label] = make(map[string]*machine.RawCounts, len(machines))
	}
	for _, m := range machines {
		c.MachineNames = append(c.MachineNames, m.Name())
	}
	return c, nil
}

// SimulateMulti runs copies concurrent copies of w on m (a SPECrate-
// style run), emitting a "simulate" span on the context's trace like
// engine.Exact does for single-copy runs.
func SimulateMulti(ctx context.Context, m *machine.Machine, w machine.Workload, copies int, opts machine.RunOptions) (*machine.MultiCounts, error) {
	_, span := telemetry.StartSpan(ctx, "simulate",
		"machine", m.Name(), "workload", w.Key, "copies", strconv.Itoa(copies))
	mc, err := m.RunMulti(w, copies, opts)
	span.End()
	return mc, err
}

// Sample returns the metric sample for one workload on one machine.
func (c *Characterization) Sample(label, machineName string) (*counters.Sample, error) {
	per, ok := c.samples[label]
	if !ok {
		return nil, fmt.Errorf("core: unknown workload %q", label)
	}
	s, ok := per[machineName]
	if !ok {
		return nil, fmt.Errorf("core: workload %q not measured on %q", label, machineName)
	}
	return s, nil
}

// Raw returns the raw counts for one workload on one machine.
func (c *Characterization) Raw(label, machineName string) (*machine.RawCounts, error) {
	per, ok := c.raw[label]
	if !ok {
		return nil, fmt.Errorf("core: unknown workload %q", label)
	}
	rc, ok := per[machineName]
	if !ok {
		return nil, fmt.Errorf("core: workload %q not measured on %q", label, machineName)
	}
	return rc, nil
}

// Select returns a view of the characterization restricted to the
// given row labels, in the given order.
func (c *Characterization) Select(labels []string) (*Characterization, error) {
	out := &Characterization{
		MachineNames: c.MachineNames,
		samples:      make(map[string]map[string]*counters.Sample, len(labels)),
		raw:          make(map[string]map[string]*machine.RawCounts, len(labels)),
	}
	for _, l := range labels {
		if _, ok := c.samples[l]; !ok {
			return nil, fmt.Errorf("core: unknown workload %q", l)
		}
		out.Labels = append(out.Labels, l)
		out.samples[l] = c.samples[l]
		out.raw[l] = c.raw[l]
	}
	return out, nil
}

// Merge combines two characterizations measured on the same fleet.
// Duplicate labels are rejected.
func (c *Characterization) Merge(other *Characterization) (*Characterization, error) {
	if len(c.MachineNames) != len(other.MachineNames) {
		return nil, fmt.Errorf("core: merging characterizations from different fleets")
	}
	for i, m := range c.MachineNames {
		if other.MachineNames[i] != m {
			return nil, fmt.Errorf("core: merging characterizations from different fleets")
		}
	}
	out := &Characterization{
		MachineNames: c.MachineNames,
		samples:      make(map[string]map[string]*counters.Sample),
		raw:          make(map[string]map[string]*machine.RawCounts),
	}
	add := func(src *Characterization) error {
		for _, l := range src.Labels {
			if _, dup := out.samples[l]; dup {
				return fmt.Errorf("core: duplicate label %q in merge", l)
			}
			out.Labels = append(out.Labels, l)
			out.samples[l] = src.samples[l]
			out.raw[l] = src.raw[l]
		}
		return nil
	}
	if err := add(c); err != nil {
		return nil, err
	}
	if err := add(other); err != nil {
		return nil, err
	}
	return out, nil
}

// Matrix assembles the measurement matrix over the given metrics and
// machines (nil means all). Power metrics are included only for
// machines that have them. The returned column names identify each
// (machine, metric) variable.
func (c *Characterization) Matrix(metrics []counters.Metric, machines []string) (*stats.Matrix, []string, error) {
	if machines == nil {
		machines = c.MachineNames
	}
	// Determine the columns: for each machine, the requested metrics it
	// actually has.
	type col struct {
		machine string
		metric  counters.Metric
	}
	var cols []col
	if len(c.Labels) == 0 {
		return nil, nil, fmt.Errorf("core: empty characterization")
	}
	probe := c.samples[c.Labels[0]]
	for _, m := range machines {
		s, ok := probe[m]
		if !ok {
			return nil, nil, fmt.Errorf("core: machine %q not in characterization", m)
		}
		want := metrics
		if want == nil {
			want = s.Metrics()
		}
		for _, metric := range want {
			if _, err := s.Value(metric); err == nil {
				cols = append(cols, col{machine: m, metric: metric})
			}
		}
	}
	if len(cols) == 0 {
		return nil, nil, fmt.Errorf("core: no matching metric columns")
	}

	matrix := stats.NewMatrix(len(c.Labels), len(cols))
	names := make([]string, len(cols))
	for j, cl := range cols {
		names[j] = counters.ColumnID(cl.machine, cl.metric)
	}
	for i, label := range c.Labels {
		for j, cl := range cols {
			s := c.samples[label][cl.machine]
			v, err := s.Value(cl.metric)
			if err != nil {
				return nil, nil, fmt.Errorf("core: %s on %s: %w", label, cl.machine, err)
			}
			matrix.Set(i, j, v)
		}
	}
	return matrix, names, nil
}

// MetricAcross returns one metric's value for one workload on each of
// the given machines (nil = all), in machine order.
func (c *Characterization) MetricAcross(label string, metric counters.Metric, machines []string) ([]float64, error) {
	if machines == nil {
		machines = c.MachineNames
	}
	out := make([]float64, 0, len(machines))
	for _, m := range machines {
		s, err := c.Sample(label, m)
		if err != nil {
			return nil, err
		}
		v, err := s.Value(metric)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// MetricRange reports the min and max of a metric across the given
// workloads on one machine — the Table II "range of important
// performance characteristics" computation.
func (c *Characterization) MetricRange(labels []string, machineName string, metric counters.Metric) (min, max float64, err error) {
	if len(labels) == 0 {
		return 0, 0, fmt.Errorf("core: no labels")
	}
	first := true
	for _, l := range labels {
		s, err := c.Sample(l, machineName)
		if err != nil {
			return 0, 0, err
		}
		v, err := s.Value(metric)
		if err != nil {
			return 0, 0, err
		}
		if first {
			min, max, first = v, v, false
			continue
		}
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return min, max, nil
}
