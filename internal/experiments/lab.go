// Package experiments reproduces every table and figure of the
// paper's evaluation. Each experiment is a function taking a *Lab —
// a lazily-built, cached characterization of all workloads on the
// seven-machine fleet — and returning a structured, printable result.
// The per-experiment index in DESIGN.md maps paper artifacts to the
// functions in this package.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// Lab owns the shared measurement state. The zero value is not usable;
// create with NewLab. All experiments sharing a Lab reuse one fleet
// characterization, so the expensive simulation work happens once.
// The characterization fans the per-machine measurements out across
// goroutines (see core.Characterize; bound it with
// RunOptions.Parallelism) with deterministic results regardless of
// scheduling, and Lab is safe for concurrent use — spec17d serves
// many requests from one Lab.
//
// A Lab is a light handle over shared state, the way http.Request
// carries its Context: WithContext returns a sibling handle whose
// measurements abort when the context does, while the underlying
// characterization stays shared. Backing the Lab with a
// store.Store (NewLabWithStore) makes every measurement
// content-addressed and persistent: overlapping labs never simulate
// the same (machine, workload, options) pair twice, and a lab built
// over a loaded snapshot is warm from its first experiment.
type Lab struct {
	ctx   context.Context // nil means context.Background()
	state *labState
}

// labState is the shared measurement state behind all handles of one
// lab.
type labState struct {
	opts  machine.RunOptions
	store *store.Store  // nil: measure directly
	sched core.Runner   // nil: per-characterization worker pool
	eng   engine.Engine // nil: the exact trace-driven engine

	mu       sync.Mutex
	building chan struct{} // non-nil while one caller characterizes
	done     bool
	char     *core.Characterization
	fleet    []*machine.Machine
	err      error
}

// NewLab returns a Lab measuring with the given run options (zero
// value = machine defaults: 400k measured instructions per run).
func NewLab(opts machine.RunOptions) *Lab {
	return &Lab{state: &labState{opts: opts}}
}

// NewLabWithStore returns a Lab whose measurements go through st.
// A nil store is equivalent to NewLab.
func NewLabWithStore(opts machine.RunOptions, st *store.Store) *Lab {
	return &Lab{state: &labState{opts: opts, store: st}}
}

// NewLabWithSched returns a Lab whose measurements go through st and
// are executed by r — a shared scheduler (sched.Pool via Queue) that
// bounds simulation concurrency process-wide and deduplicates
// in-flight work at the (machine × workload × options) grain across
// every lab sharing it. Nil r is equivalent to NewLabWithStore; nil
// st measures directly (the scheduler still deduplicates in-flight
// submissions).
func NewLabWithSched(opts machine.RunOptions, st *store.Store, r core.Runner) *Lab {
	return &Lab{state: &labState{opts: opts, store: st, sched: r}}
}

// NewLabWithEngine is NewLabWithSched on an explicit measurement
// engine: every measurement the lab makes — the shared fleet
// characterization and the ad-hoc RunStored runs — goes through eng
// and is store-keyed by its tier, so an analytic lab and an exact lab
// backed by the same store never serve each other's records. A nil
// engine measures exactly (identical to NewLabWithSched).
func NewLabWithEngine(opts machine.RunOptions, st *store.Store, r core.Runner, eng engine.Engine) *Lab {
	return &Lab{state: &labState{opts: opts, store: st, sched: r, eng: eng}}
}

// Engine returns the lab's measurement engine (nil means exact).
func (l *Lab) Engine() engine.Engine { return l.state.eng }

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

// Store returns the lab's measurement store (nil when measuring
// directly).
func (l *Lab) Store() *store.Store { return l.state.store }

// Options returns the lab's run options.
func (l *Lab) Options() machine.RunOptions { return l.state.opts }

var (
	defaultLab     *Lab
	defaultLabOnce sync.Once
)

// DefaultLab returns the process-wide Lab at default fidelity.
func DefaultLab() *Lab {
	defaultLabOnce.Do(func() {
		defaultLab = NewLab(machine.RunOptions{})
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
// callers onto one leader. A build aborted by the leader's context is
// NOT cached as the lab's result — the next caller (or a waiter whose
// own context is still live) takes over and rebuilds, cheaply when a
// store holds the pairs the aborted build already measured.
func (l *Lab) build() (*core.Characterization, []*machine.Machine, error) {
	s := l.state
	ctx := l.Context()
	for {
		s.mu.Lock()
		if s.done {
			s.mu.Unlock()
			return s.char, s.fleet, s.err
		}
		if s.building != nil {
			ch := s.building
			s.mu.Unlock()
			select {
			case <-ch:
				continue // leader finished or aborted; re-check
			case <-ctx.Done():
				return nil, nil, ctx.Err()
			}
		}
		ch := make(chan struct{})
		s.building = ch
		s.mu.Unlock()

		fleet, err := machine.Fleet()
		var char *core.Characterization
		if err == nil {
			// Only the leader carries a characterize span; waiters that
			// coalesced onto this build share the result, not the spans.
			cctx, span := telemetry.StartSpan(ctx, "characterize",
				"entries", fmt.Sprintf("%d", len(Entries())),
				"machines", fmt.Sprintf("%d", len(fleet)))
			char, err = core.CharacterizeWith(cctx, Entries(), fleet, s.opts, s.store, s.sched, s.eng)
			span.End()
		}

		s.mu.Lock()
		s.building = nil
		if err == nil || !isCanceled(err) {
			s.done = true
			s.char, s.fleet, s.err = char, fleet, err
		}
		s.mu.Unlock()
		close(ch)
		return char, fleet, err
	}
}

func isCanceled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
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
// store (directly when the lab has none). Experiments that measure
// outside the shared characterization — extra fidelities, replicas,
// multi-copy runs — route through here so their measurements are
// cached and persisted like everything else. A store hit is served
// directly; only a miss goes to the lab's scheduler.
func (l *Lab) RunStored(m *machine.Machine, w machine.Workload, opts machine.RunOptions) (*machine.RawCounts, error) {
	st := l.state.store
	eng := l.state.eng
	tier := string(engine.TierExact)
	if eng != nil {
		tier = string(eng.Tier())
	}
	key := store.KeyForEngine(m, w, opts, tier)
	if st != nil {
		if rc, ok := st.Lookup(l.Context(), key); ok {
			return rc, nil
		}
	}
	compute := func(ctx context.Context) (*machine.RawCounts, error) {
		if eng != nil {
			return eng.Measure(ctx, m, w, opts)
		}
		return core.Simulate(ctx, m, w, opts)
	}
	stored := func(ctx context.Context) (*machine.RawCounts, error) {
		if st == nil {
			return compute(ctx)
		}
		return st.GetOrCompute(ctx, key, compute)
	}
	if r := l.state.sched; r != nil {
		v, err := r.Do(l.Context(), key.ID(), func(jctx context.Context) (any, error) {
			return stored(jctx)
		})
		if err != nil {
			return nil, err
		}
		return v.(*machine.RawCounts), nil
	}
	return stored(l.Context())
}

// RunStoredMulti is RunStored for multi-copy (SPECrate-style) runs.
func (l *Lab) RunStoredMulti(m *machine.Machine, w machine.Workload, copies int, opts machine.RunOptions) (*machine.MultiCounts, error) {
	st := l.state.store
	key := store.KeyForMulti(m, w, copies, opts)
	if st != nil {
		if mc, ok := st.LookupMulti(l.Context(), key); ok {
			return mc, nil
		}
	}
	compute := func(ctx context.Context) (*machine.MultiCounts, error) {
		return core.SimulateMulti(ctx, m, w, copies, opts)
	}
	stored := func(ctx context.Context) (*machine.MultiCounts, error) {
		if st == nil {
			return core.SimulateMulti(ctx, m, w, copies, opts)
		}
		return st.GetOrComputeMulti(ctx, key, compute)
	}
	if r := l.state.sched; r != nil {
		v, err := r.Do(l.Context(), key.ID(), func(jctx context.Context) (any, error) {
			return stored(jctx)
		})
		if err != nil {
			return nil, err
		}
		return v.(*machine.MultiCounts), nil
	}
	return stored(l.Context())
}

// suiteChar returns the characterization restricted to one CPU2017
// sub-suite's primary inputs.
func (l *Lab) suiteChar(s workloads.Suite) (*core.Characterization, error) {
	c, err := l.Characterization()
	if err != nil {
		return nil, err
	}
	var labels []string
	for _, p := range workloads.BySuite(s) {
		labels = append(labels, p.Name)
	}
	return c.Select(labels)
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

// selectChar returns the characterization restricted to the given
// profiles' primary inputs.
func (l *Lab) selectChar(profiles []workloads.Profile) (*core.Characterization, error) {
	c, err := l.Characterization()
	if err != nil {
		return nil, err
	}
	labels := make([]string, 0, len(profiles))
	for _, p := range profiles {
		labels = append(labels, p.Name)
	}
	return c.Select(labels)
}

// SuiteNames returns the primary-input labels of a sub-suite.
func SuiteNames(s workloads.Suite) []string {
	var out []string
	for _, p := range workloads.BySuite(s) {
		out = append(out, p.Name)
	}
	return out
}

// categoryKey maps a CPU2017 sub-suite to its perfdb submission
// category.
func categoryKey(s workloads.Suite) (string, error) {
	switch s {
	case workloads.SpeedINT:
		return "speed-int", nil
	case workloads.RateINT:
		return "rate-int", nil
	case workloads.SpeedFP:
		return "speed-fp", nil
	case workloads.RateFP:
		return "rate-fp", nil
	default:
		return "", fmt.Errorf("experiments: suite %v has no submission category", s)
	}
}
