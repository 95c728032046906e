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
	"sort"
	"strconv"
	"sync"
	"time"

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
// The key carries the engine's tier, so analytic and exact records
// coexist in one store without ever answering for each other. A pair
// already in the store is served directly, without a scheduler job.
// The misses go to the Runner in runs of about runTarget of work each
// (engine.Tier.LeafCost), submitted as each run fills. Every
// measurement coalesces with any concurrent one of the same key —
// another pair of this grid, another characterization, a
// Lab.RunStored — through the store's flight for it (see Stored), so
// a key the grid repeats is measured once; runs queue with the
// Runner's FIFO fairness.
//
// Results are stored by (label, machine) and are deterministic
// regardless of scheduling; of several failed pairs, the first in grid
// order is reported. Canceling ctx abandons the remaining measurements
// and returns the context's error.
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

	g := &grid{entries: entries, machines: machines, opts: opts, st: st, eng: eng}
	kg := store.NewKeyGrid(machines, opts, string(eng.Tier()))
	runLen := leavesPerRun(eng.Tier())

	leaves := make([]leaf, len(entries)*len(machines))
	var cur *run
	var wg sync.WaitGroup
	submit := func() {
		wg.Add(1)
		go func(ru *run) {
			defer wg.Done()
			g.measureRun(ctx, r, ru)
		}(cur)
		cur = nil
	}
	var row []store.Key
	for i := range leaves {
		if ctx.Err() != nil {
			break // canceled: stop submitting
		}
		j := i % len(machines)
		if j == 0 {
			// Keyed one entry at a time, so keying overlaps the first
			// runs' work.
			row = kg.Row(entries[i/len(machines)].Workload)
		}
		l := &leaves[i]
		l.i, l.key = i, row[j]
		if rc, ok := st.Lookup(ctx, l.key); ok {
			l.rc = rc
			continue
		}
		if cur == nil {
			cur = &run{leaves: make([]*leaf, 0, runLen)}
		}
		l.run = cur
		cur.leaves = append(cur.leaves, l)
		if len(cur.leaves) == runLen {
			submit()
		}
	}
	if cur != nil {
		submit()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	for i := range leaves {
		l := &leaves[i]
		e, m := g.pair(l)
		rc, err := l.result()
		var sample *counters.Sample
		if err == nil {
			sample, err = counters.FromRaw(m.Name(), m.Config().HasRAPL, rc)
		}
		if err != nil {
			return nil, fmt.Errorf("core: %s on %s: %w", e.Label, m.Name(), err)
		}
		c.samples[e.Label][m.Name()] = sample
		c.raw[e.Label][m.Name()] = rc
	}
	return c, nil
}

// runTarget is the least estimated work (engine.Tier.LeafCost) one
// scheduler job of a characterization carries: enough that the job's
// own cost — a goroutine, the pool lock, a wake-up — is small beside
// it. Analytic misses therefore travel ~20 to a job; an exact
// measurement alone outweighs it.
const runTarget = time.Millisecond

// leavesPerRun is the number of tier's measurements one job carries.
func leavesPerRun(tier engine.Tier) int { return max(1, int(runTarget/tier.LeafCost())) }

// Stored returns key's record through getOrCompute — a store's
// GetOrCompute or GetOrComputeMulti — computing a miss with compute.
// An exact measurement is a job of its own: it enters the store's
// flight first and takes a worker slot of r only to lead it, so a
// caller joining another's measurement holds no slot or worker while
// it waits. A lone measurement of a tier that travels in runs
// (analytic) is worth no job: it is computed inline, without a slot.
// So no flight's leader waits for a slot while a run, which holds its
// slot across its leaves' flights, can join it.
func Stored[V any](ctx context.Context, r Runner, tier engine.Tier, key store.Key,
	getOrCompute func(context.Context, store.Key, func(context.Context) (V, error)) (V, error),
	compute func(context.Context) (V, error)) (V, error) {
	if leavesPerRun(tier) > 1 {
		return getOrCompute(ctx, key, compute)
	}
	return getOrCompute(ctx, key, func(fctx context.Context) (v V, err error) {
		err = r.Do(fctx, key.ID(), func(jctx context.Context) error {
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
	st       *store.Store
	eng      engine.Engine
}

// leaf is one (entry, machine) pair of the grid: entries[i/len(machines)]
// on machines[i%len(machines)].
type leaf struct {
	i   int
	key store.Key
	// rc and err are the pair's outcome. A store hit sets rc at
	// submission; a run's job sets them for its leaves.
	rc  *machine.RawCounts
	err error
	// run is the run measuring the pair, if it missed.
	run *run
}

// result is the leaf's outcome: its own, or its run's failure.
func (l *leaf) result() (*machine.RawCounts, error) {
	if l.run != nil && l.run.err != nil {
		return nil, l.run.err
	}
	return l.rc, l.err
}

// run is a group of missed leaves measured by one scheduler job.
type run struct {
	leaves []*leaf
	err    error
}

// pair returns the leaf's entry and machine.
func (g *grid) pair(l *leaf) (Entry, *machine.Machine) {
	n := len(g.machines)
	return g.entries[l.i/n], g.machines[l.i%n]
}

// measureRun measures ru's leaves through the store on r and waits
// for them. A one-leaf run is a Stored measurement; a longer run takes
// one slot for all its leaves and shows its first key and its length
// on the trace.
func (g *grid) measureRun(ctx context.Context, r Runner, ru *run) {
	if len(ru.leaves) == 1 {
		l := ru.leaves[0]
		l.rc, ru.err = Stored(ctx, r, g.eng.Tier(), l.key, g.st.GetOrCompute, g.measurer(l))
		return
	}
	label := fmt.Sprintf("%s +%d", ru.leaves[0].key.ID(), len(ru.leaves)-1)
	ru.err = r.Do(ctx, label, func(jctx context.Context) error {
		for _, l := range ru.leaves {
			if err := jctx.Err(); err != nil {
				return err
			}
			l.rc, l.err = g.st.GetOrCompute(jctx, l.key, g.measurer(l))
		}
		return nil
	})
}

// measurer returns the computation of one leaf on the engine.
func (g *grid) measurer(l *leaf) func(context.Context) (*machine.RawCounts, error) {
	e, m := g.pair(l)
	return func(ctx context.Context) (*machine.RawCounts, error) {
		return g.eng.Measure(ctx, m, e.Workload, g.opts)
	}
}

// newCharacterization validates the inputs and allocates the empty
// result maps.
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

// SortedLabels returns the labels in lexicographic order (the stored
// order is preserved in Labels).
func (c *Characterization) SortedLabels() []string {
	out := append([]string(nil), c.Labels...)
	sort.Strings(out)
	return out
}
