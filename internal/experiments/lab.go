// Package experiments reproduces every table and figure of the
// paper's evaluation. Each experiment is a function taking a *Lab —
// a lazily-built, cached characterization of all workloads on the
// seven-machine fleet — and returning a structured, printable result.
// The per-experiment index in DESIGN.md maps paper artifacts to the
// functions in this package.
package experiments

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/flight"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// Lab owns the shared measurement state. The zero value is not usable;
// create with NewLabWithEngine. All experiments sharing a Lab reuse one
// fleet characterization, so the expensive simulation work happens
// once. The characterization fans the per-machine measurements out
// across the lab's scheduler (see core.CharacterizeWith) with
// deterministic results regardless of scheduling, and Lab is safe for
// concurrent use — spec17d serves many requests from one Lab.
//
// A Lab is a light handle over shared state, the way http.Request
// carries its Context: WithContext returns a sibling handle whose
// measurements abort when the context does, while the underlying
// characterization stays shared. Backing the Lab with a store.Store
// makes every measurement content-addressed and persistent:
// overlapping labs never simulate the same (machine, workload,
// options) pair twice, and a lab built over a loaded snapshot is warm
// from its first experiment.
type Lab struct {
	ctx   context.Context // nil means context.Background()
	state *labState
}

// labState is the shared measurement state behind all handles of one
// lab.
type labState struct {
	opts  machine.RunOptions
	store *store.Store
	sched core.Runner
	eng   engine.Engine

	// build coalesces the callers of the one fleet characterization;
	// result holds its outcome once one is final.
	build  flight.Group[string, *labResult]
	result atomic.Pointer[labResult]
}

// labResult is the outcome of a fleet characterization: a success, or
// an error that is not a cancellation.
type labResult struct {
	char  *core.Characterization
	fleet []*machine.Machine
	err   error
}

// NewLabWithEngine returns a Lab measuring with the given run options
// (zero value = machine defaults: 400k measured instructions per run).
// Every measurement the lab makes — the shared fleet characterization
// and the ad-hoc RunStored runs — goes through st (nil: a private
// memory-only store), is executed by r, and is measured by eng,
// store-keyed by its tier, so an analytic lab and an exact lab backed
// by the same store never serve each other's records. Sharing st is
// what deduplicates in-flight work at the (machine × workload ×
// options) grain across labs. r is typically a queue on a scheduler
// shared process-wide (sched.Pool), which bounds simulation
// concurrency; nil means a private pool of opts.Parallelism workers. A
// nil eng measures exactly.
func NewLabWithEngine(opts machine.RunOptions, st *store.Store, r core.Runner, eng engine.Engine) *Lab {
	if st == nil {
		st, _ = store.Open(store.Config{}) // a memory-only Open never fails
	}
	if r == nil {
		r = sched.NewPool(opts.Parallelism, nil).Queue(0)
	}
	if eng == nil {
		eng = engine.Exact{}
	}
	return &Lab{state: &labState{opts: opts, store: st, sched: r, eng: eng}}
}

// WithContext returns a handle on the same lab whose operations abort
// when ctx is canceled. The underlying characterization is shared:
// a result built through one handle serves every other.
func (l *Lab) WithContext(ctx context.Context) *Lab {
	return &Lab{ctx: ctx, state: l.state}
}

// Context returns the lab handle's context.
func (l *Lab) Context() context.Context {
	if l.ctx != nil {
		return l.ctx
	}
	return context.Background()
}

// Store returns the lab's measurement store (a private memory-only one
// when the lab was made without one).
func (l *Lab) Store() *store.Store { return l.state.store }

var (
	defaultLab     *Lab
	defaultLabOnce sync.Once
)

// DefaultLab returns the process-wide Lab at default fidelity.
func DefaultLab() *Lab {
	defaultLabOnce.Do(func() {
		defaultLab = NewLabWithEngine(machine.RunOptions{}, nil, nil, nil)
	})
	return defaultLab
}

// Entries returns every characterized workload entry: the primary
// input of all CPU2017, CPU2006, and emerging profiles, plus each
// individual input set of multi-input CPU2017 benchmarks (labelled
// "name-i").
func Entries() []core.Entry {
	var entries []core.Entry
	for _, p := range workloads.All() {
		entries = append(entries, core.Entry{Label: p.Name, Workload: p.Workload()})
		if p.InputSets > 1 {
			for i := 1; i <= p.InputSets; i++ {
				entries = append(entries, core.Entry{
					Label:    p.InputLabel(i),
					Workload: p.WorkloadInput(i),
				})
			}
		}
	}
	return entries
}

// build runs the fleet characterization once, coalescing concurrent
// callers onto one flight. The flight keeps running while any caller
// still waits, even after the one that started it has left. A build
// that every caller abandoned is not kept: the next caller starts
// again, cheaply when a store holds the pairs already measured.
func (l *Lab) build() (*core.Characterization, []*machine.Machine, error) {
	s := l.state
	r := s.result.Load()
	if r == nil {
		var err error
		if r, err, _ = s.build.Do(l.Context(), "", s.characterize); err != nil {
			return nil, nil, err
		}
	}
	return r.char, r.fleet, r.err
}

// characterize is the build flight: it characterizes the fleet and
// keeps the outcome unless it is a cancellation, which says nothing
// about the next attempt.
func (s *labState) characterize(ctx context.Context) (*labResult, error) {
	if r := s.result.Load(); r != nil {
		return r, nil // a flight that ended since the caller looked
	}
	fleet, err := machine.Fleet()
	var char *core.Characterization
	if err == nil {
		// Only the flight carries a characterize span, on the trace of
		// the caller that started it; callers that joined share the
		// result, not the spans.
		cctx, span := telemetry.StartSpan(ctx, "characterize",
			"entries", fmt.Sprintf("%d", len(Entries())),
			"machines", fmt.Sprintf("%d", len(fleet)))
		char, err = core.CharacterizeWith(cctx, Entries(), fleet, s.opts, s.store, s.sched, s.eng)
		span.End()
	}
	if flight.IsCanceled(err) {
		return nil, err
	}
	r := &labResult{char: char, fleet: fleet, err: err}
	s.result.Store(r)
	return r, nil
}

// Characterization returns the shared fleet characterization.
func (l *Lab) Characterization() (*core.Characterization, error) {
	char, _, err := l.build()
	return char, err
}

// Fleet returns the seven Table IV machines.
func (l *Lab) Fleet() ([]*machine.Machine, error) {
	_, fleet, err := l.build()
	return fleet, err
}

// RunStored measures one workload on one machine through the lab's
// store. Experiments that measure outside the shared characterization
// — extra fidelities, replicas, multi-copy runs — route through here
// so their measurements are cached and persisted like everything else.
// A store hit, or a join onto a concurrent measurement of the same
// key, is served without a scheduler job, and so is every analytic
// estimate (see core.Stored).
func (l *Lab) RunStored(m *machine.Machine, w machine.Workload, opts machine.RunOptions) (*machine.RawCounts, error) {
	s := l.state
	tier := s.eng.Tier()
	return core.Stored(l.Context(), s.sched, tier, store.KeyForEngine(m, w, opts, string(tier)), s.store.GetOrCompute,
		func(ctx context.Context) (*machine.RawCounts, error) { return s.eng.Measure(ctx, m, w, opts) })
}

// RunStoredMulti is RunStored for multi-copy (SPECrate-style) runs,
// which are always exact simulations.
func (l *Lab) RunStoredMulti(m *machine.Machine, w machine.Workload, copies int, opts machine.RunOptions) (*machine.MultiCounts, error) {
	s := l.state
	return core.Stored(l.Context(), s.sched, engine.TierExact, store.KeyForMulti(m, w, copies, opts), s.store.GetOrComputeMulti,
		func(ctx context.Context) (*machine.MultiCounts, error) {
			return core.SimulateMulti(ctx, m, w, copies, opts)
		})
}

// analyze is every experiment's one path from a label set to the
// paper's analysis. It selects labels, in order, from the lab's
// characterization and, unless opts is nil, fits their similarity
// space (PCA, then clustering) under opts on the handle's context, so
// the fit's spans land on the request's trace. It keeps no state, so
// concurrent calls are safe.
func (l *Lab) analyze(labels []string, opts *core.SimilarityOptions) (*core.Characterization, *core.Similarity, error) {
	c, err := l.Characterization()
	if err != nil {
		return nil, nil, err
	}
	sub, err := c.Select(labels)
	if err != nil || opts == nil {
		return sub, nil, err
	}
	sim, err := sub.SimilarityCtx(l.Context(), *opts)
	if err != nil {
		return nil, nil, err
	}
	return sub, sim, nil
}

// paperOptions returns the paper's similarity settings
// (core.DefaultSimilarityOptions) for analyze; an experiment that
// varies one setting changes it on the returned copy.
func paperOptions() *core.SimilarityOptions {
	opts := core.DefaultSimilarityOptions()
	return &opts
}

// fitSuite fits one CPU2017 sub-suite's primary inputs the paper's
// way.
func fitSuite(lab *Lab, s workloads.Suite) (*core.Similarity, error) {
	_, sim, err := lab.analyze(SuiteNames(s), paperOptions())
	return sim, err
}

// refMachine returns the fleet's Skylake: the paper's reference
// machine for CPI stacks and perfdb speedups, and the one the
// extensions re-measure on.
func (l *Lab) refMachine() (*machine.Machine, error) {
	fleet, err := l.Fleet()
	if err != nil {
		return nil, err
	}
	for _, m := range fleet {
		if m.Name() == machine.Skylake {
			return m, nil
		}
	}
	return nil, fmt.Errorf("experiments: reference machine %q not in fleet", machine.Skylake)
}

// subSuites returns the four CPU2017 sub-suites in the order Tables V
// and VI and the ablations report them.
func subSuites() []workloads.Suite {
	return []workloads.Suite{workloads.SpeedINT, workloads.RateINT, workloads.SpeedFP, workloads.RateFP}
}

// perSuite runs fn for every suite concurrently, one goroutine each,
// and returns the results in suite order. If any call fails, it returns
// the error of the first failing suite in suite order. The per-suite
// analyses (PCA, clustering) are independent and CPU-bound, so on a
// multi-core host they take about as long as the slowest one.
func perSuite[T any](suites []workloads.Suite, fn func(workloads.Suite) (T, error)) ([]T, error) {
	out := make([]T, len(suites))
	errs := make([]error, len(suites))
	var wg sync.WaitGroup
	for i, s := range suites {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i], errs[i] = fn(s)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// SuiteNames returns the primary-input labels of a sub-suite.
func SuiteNames(s workloads.Suite) []string { return labelsOf(workloads.BySuite(s)) }

// labelsOf returns the profiles' names, in order.
func labelsOf(ps []workloads.Profile) []string {
	var out []string
	for _, p := range ps {
		out = append(out, p.Name)
	}
	return out
}
