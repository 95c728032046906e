// Package machine models the seven commercial systems of the paper's
// Table IV. Each Machine composes a branch predictor, a cache
// hierarchy, and a TLB hierarchy with per-machine latency, power, and
// ISA parameters; Run drives a synthetic workload trace through the
// composed simulators and returns the raw event counts from which the
// paper's performance-counter metrics are derived.
//
// Cache geometries follow Table IV with power-of-two roundings where
// the real part's set count is not a power of two (30 MB -> 32 MB,
// 15 MB -> 16 MB, 6 MB -> 4 MB); DESIGN.md records the substitutions.
package machine

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
	"sync"

	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/cpistack"
	"repro/internal/power"
	"repro/internal/rng"
	"repro/internal/tlb"
	"repro/internal/trace"
)

// ISA identifies the instruction-set family of a machine, used to
// perturb workload traces the way recompilation for another ISA
// perturbs real dynamic instruction streams.
type ISA string

// The ISAs present in Table IV.
const (
	X86   ISA = "x86"
	SPARC ISA = "sparc"
)

// Config fully describes a simulated machine.
type Config struct {
	Name    string
	ISA     ISA
	FreqGHz float64
	// IssueWidth bounds ideal CPI at 1/IssueWidth.
	IssueWidth int

	Caches    cache.HierarchyConfig
	TLBs      tlb.HierarchyConfig
	Predictor branch.Config
	Penalties cpistack.Penalties

	// HasRAPL marks the Intel machines whose power the paper measures;
	// Power is consulted only when HasRAPL is true.
	HasRAPL bool
	Power   power.Model
}

// Machine is a ready-to-run instance of a Config. It is safe for
// concurrent use: each Run takes its own simulator state.
type Machine struct {
	cfg Config
	// addrLimit is the bound below which every cache and TLB level can
	// tag an address (cache.Config.AddrLimit); a run that could reach
	// it is refused before it starts.
	addrLimit uint64
	// encoded is cfg's JSON form as json.Encoder writes it (with its
	// trailing newline) and digest the JSON's SHA-256, so equal
	// configurations have equal digests however they were built. Both
	// are taken once, when first asked for, so like state a Machine that
	// is never keyed spends nothing on them.
	encoded    []byte
	digest     [sha256.Size]byte
	digestOnce sync.Once
	// state pools cleared *simState values between runs, so a run
	// does not allocate megabytes of tag arrays. It fills lazily: New
	// and a Machine that never runs allocate none. The fleet's
	// machines are built once per process (Fleet), so their pools
	// serve every Lab and every request.
	state sync.Pool
}

// simState is the simulator state one Run drives: what NewHierarchy,
// tlb.NewHierarchy and branch.New build, and the stream's event slab,
// kept between runs.
type simState struct {
	caches *cache.Hierarchy
	tlbs   *tlb.Hierarchy
	pred   *branch.Predictor
	slab   []trace.Event
}

// getState returns freshly built or cleared simulator state. Neither
// has written its cache and TLB tag arrays: a set is written out when
// priming or the run first touches it.
func (m *Machine) getState() (*simState, error) {
	if s, ok := m.state.Get().(*simState); ok {
		return s, nil
	}
	caches, err := cache.NewHierarchy(m.cfg.Caches)
	if err != nil {
		return nil, err
	}
	tlbs, err := tlb.NewHierarchy(m.cfg.TLBs)
	if err != nil {
		return nil, err
	}
	pred, err := branch.New(m.cfg.Predictor)
	if err != nil {
		return nil, err
	}
	return &simState{caches: caches, tlbs: tlbs, pred: pred, slab: make([]trace.Event, simSlabSize)}, nil
}

// putState clears s back to its constructors' state and pools it.
// Clearing the caches and TLBs rewrites no tag array — it bumps each
// level's generation, which marks every set empty — so it costs the
// same whatever the run touched; the predictor's tables are rewritten.
func (m *Machine) putState(s *simState) {
	s.caches.Clear()
	s.tlbs.Clear()
	s.pred.Clear()
	m.state.Put(s)
}

// New validates cfg and returns a Machine.
func New(cfg Config) (*Machine, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("machine: empty name")
	}
	if cfg.IssueWidth < 1 {
		return nil, fmt.Errorf("machine %s: issue width %d", cfg.Name, cfg.IssueWidth)
	}
	if !(cfg.FreqGHz > 0) || math.IsInf(cfg.FreqGHz, 1) { // NaN fails too
		return nil, fmt.Errorf("machine %s: frequency %v", cfg.Name, cfg.FreqGHz)
	}
	// Validate geometry without building anything; the first Run
	// builds the simulator state.
	if err := cfg.Caches.Validate(); err != nil {
		return nil, fmt.Errorf("machine %s: %w", cfg.Name, err)
	}
	if err := cfg.TLBs.Validate(); err != nil {
		return nil, fmt.Errorf("machine %s: %w", cfg.Name, err)
	}
	if err := cfg.Predictor.Validate(); err != nil {
		return nil, fmt.Errorf("machine %s: %w", cfg.Name, err)
	}
	if err := cfg.Penalties.Validate(); err != nil {
		return nil, fmt.Errorf("machine %s: %w", cfg.Name, err)
	}
	// Power is consulted only when HasRAPL is set, but it is part of the
	// configuration's identity either way: with every float field
	// finite, the configuration always encodes (ConfigDigest).
	if err := cfg.Power.Validate(); err != nil {
		return nil, fmt.Errorf("machine %s: %w", cfg.Name, err)
	}
	return &Machine{
		cfg:       cfg.clone(),
		addrLimit: min(cfg.Caches.AddrLimit(), cfg.TLBs.AddrLimit()),
	}, nil
}

// Config returns a copy of the machine's configuration that shares no
// memory with it: writing through the copy's L3 or L2 TLB pointer
// changes no Machine.
func (m *Machine) Config() Config { return m.cfg.clone() }

// clone returns cfg with its pointed-to levels copied.
func (cfg Config) clone() Config {
	if cfg.Caches.L3 != nil {
		l3 := *cfg.Caches.L3
		cfg.Caches.L3 = &l3
	}
	if cfg.TLBs.L2 != nil {
		l2 := *cfg.TLBs.L2
		cfg.TLBs.L2 = &l2
	}
	return cfg
}

// checkAddrs refuses, before anything is built or simulated, a run of
// copies copies of spec (w's adjusted spec) whose addresses some cache
// or TLB level could not tag: spec's AddrEnd plus the last copy's data
// offset must not pass the machine's addrLimit. Adding the offset to
// the code's bound too, as this does, refuses only code regions larger
// than the data footprint plus 4 GiB.
func (m *Machine) checkAddrs(w Workload, spec trace.Spec, copies int) error {
	if err := spec.Validate(); err != nil {
		return fmt.Errorf("machine %s: workload %q: %w", m.cfg.Name, w.Key, err)
	}
	hi, off := bits.Mul64(uint64(copies-1), copyStride)
	end, carry := bits.Add64(spec.AddrEnd(), off, 0)
	if hi != 0 || carry != 0 || end > m.addrLimit {
		return fmt.Errorf("machine %s: workload %q with %d copies reaches address %#x, but its caches and TLBs tag addresses below %#x",
			m.cfg.Name, w.Key, copies, end, m.addrLimit)
	}
	return nil
}

// ConfigDigest returns the SHA-256 of the machine's configuration as
// JSON: a value that identifies the configuration, so two Machines
// built from equal Configs share it.
func (m *Machine) ConfigDigest() [sha256.Size]byte {
	m.encode()
	return m.digest
}

// EncodeConfig writes the machine's configuration to w as a
// json.Encoder writes it: the JSON that ConfigDigest hashes, then a
// newline. The configuration is encoded once per Machine.
func (m *Machine) EncodeConfig(w io.Writer) error {
	m.encode()
	_, err := w.Write(m.encoded)
	return err
}

// encode fills encoded and digest on first use. Marshalling a Config
// fails only on a NaN or infinite field, which New rejects in every
// one of them.
func (m *Machine) encode() {
	m.digestOnce.Do(func() {
		enc, _ := json.Marshal(m.cfg)
		m.digest = sha256.Sum256(enc)
		m.encoded = append(enc, '\n')
	})
}

// Name returns the machine's name.
func (m *Machine) Name() string { return m.cfg.Name }

// Workload couples a trace specification with the properties the
// trace generator does not model directly.
type Workload struct {
	// Key seeds the trace streams; use a globally unique benchmark
	// name (plus input-set suffix).
	Key string
	// Spec is the ISA-neutral statistical description.
	Spec trace.Spec
	// ILP is the workload's average exploitable instruction-level
	// parallelism, bounding its ideal CPI from below by 1/ILP.
	ILP float64
}

// CheckILP reports an ILP that is not positive and finite: NaN and
// +Inf fail as zero does. Every measurement, exact or analytic, checks
// it first.
func (w Workload) CheckILP() error {
	if !(w.ILP > 0) || math.IsInf(w.ILP, 1) { // NaN fails too
		return fmt.Errorf("machine: workload %q has ILP %v, want positive and finite", w.Key, w.ILP)
	}
	return nil
}

// RawCounts are the per-run event totals — the simulated equivalent of
// one `perf stat` session on one machine.
type RawCounts struct {
	Instructions  uint64
	Loads         uint64
	Stores        uint64
	Branches      uint64
	TakenBranches uint64
	FPOps         uint64
	SIMDOps       uint64
	KernelInstrs  uint64

	Mispredicts uint64
	Cache       cache.Counts
	TLB         tlb.Counts

	Cycles uint64
	CPI    float64
	Stack  cpistack.Stack

	// Power is zero unless the machine HasRAPL.
	Power power.Breakdown
}

// RunOptions control a measurement run.
type RunOptions struct {
	// Instructions measured after warmup. Defaults to 400 000.
	Instructions int
	// WarmupInstructions executed before counters reset.
	// Defaults to Instructions/5.
	WarmupInstructions int
	// Parallelism bounds the number of concurrent per-machine runs a
	// fleet characterization may use (see core.CharacterizeWith): the
	// goroutines that key, look up and estimate its pairs, and the
	// workers of its private scheduler pool when it is given none. It
	// does not affect a single Run, and it never affects results — runs
	// are deterministic regardless of scheduling. 0 means GOMAXPROCS;
	// 1 forces fully serial measurement.
	Parallelism int
}

func (o RunOptions) withDefaults() RunOptions {
	if o.Instructions <= 0 {
		o.Instructions = 400_000
	}
	if o.WarmupInstructions <= 0 {
		o.WarmupInstructions = o.Instructions / 5
	}
	return o
}

// Canonical returns the options with measurement defaults applied and
// scheduling-only knobs (Parallelism) cleared. Two RunOptions with the
// same Canonical value produce bit-identical measurements, so Canonical
// is the correct cache identity for characterization results.
func (o RunOptions) Canonical() RunOptions {
	o = o.withDefaults()
	o.Parallelism = 0
	return o
}

// OptionError reports one invalid RunOptions field. It is the typed
// error both the spec17 flag parser and the spec17d decode path
// surface, so clients can distinguish which knob was wrong.
type OptionError struct {
	// Field is the option's user-facing name ("instructions",
	// "warmup", "parallelism").
	Field string
	// Value is the rejected value.
	Value int
	// Reason says what a valid value looks like.
	Reason string
}

func (e *OptionError) Error() string {
	return fmt.Sprintf("machine: invalid %s %d: %s", e.Field, e.Value, e.Reason)
}

// Validate checks the options as given, before defaults are applied
// (zero values are valid — they select the defaults). The warmup
// bound is checked against the effective instruction count: warmup
// must leave room to measure.
func (o RunOptions) Validate() error {
	if o.Instructions < 0 {
		return &OptionError{Field: "instructions", Value: o.Instructions,
			Reason: "instruction count cannot be negative"}
	}
	if o.WarmupInstructions < 0 {
		return &OptionError{Field: "warmup", Value: o.WarmupInstructions,
			Reason: "warmup instruction count cannot be negative"}
	}
	if o.Parallelism < 0 {
		return &OptionError{Field: "parallelism", Value: o.Parallelism,
			Reason: "worker count cannot be negative"}
	}
	if d := o.withDefaults(); o.WarmupInstructions >= d.Instructions {
		return &OptionError{Field: "warmup", Value: o.WarmupInstructions,
			Reason: fmt.Sprintf("warmup must be smaller than the %d measured instructions", d.Instructions)}
	}
	return nil
}

// Run measures one workload on the machine.
func (m *Machine) Run(w Workload, opts RunOptions) (*RawCounts, error) {
	if err := w.CheckILP(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()

	spec := m.adjustSpec(w)
	if err := m.checkAddrs(w, spec, 1); err != nil {
		return nil, err
	}
	gen, err := trace.NewGenerator(spec, w.Key+"@"+m.cfg.Name)
	if err != nil {
		return nil, fmt.Errorf("machine %s: workload %q: %w", m.cfg.Name, w.Key, err)
	}
	state, err := m.getState()
	if err != nil {
		return nil, err
	}
	defer m.putState(state)

	rc := &RawCounts{}
	st := newSimStream(gen, state.caches, state.tlbs, state.pred, rc, 0, state.slab)

	prime(state.caches, state.tlbs, spec)
	st.warmup(opts.WarmupInstructions)
	st.resetStats()
	st.measure(opts.Instructions)
	if err := st.finalize(m.cfg.IssueWidth, w.ILP, m.cfg.Penalties); err != nil {
		return nil, err
	}

	if m.cfg.HasRAPL {
		bd, err := m.cfg.Power.Estimate(power.Activity{
			Instructions: rc.Instructions,
			Cycles:       rc.Cycles,
			FPOps:        rc.FPOps,
			SIMDOps:      rc.SIMDOps,
			LLCAccesses:  rc.Cache.L2IAccesses + rc.Cache.L2DAccesses + rc.Cache.L3Accesses,
			MemAccesses:  rc.Cache.L3Misses + st.l2dToMem + st.l2iToMem,
		})
		if err != nil {
			return nil, err
		}
		rc.Power = bd
	}
	return rc, nil
}

// prime walks the workload's resident working set through the cache
// and TLB hierarchies once, coldest region first, so a short sampling
// window measures steady-state behaviour instead of fill transients.
// Real measurement (the paper runs complete benchmarks under perf)
// has no fill transient worth mentioning; a sampled simulation must
// reconstruct that state explicitly. The cold region beyond WarmBytes
// is deliberately not primed: footprints exceed every LLC, so cold
// accesses miss in steady state too.
func prime(caches *cache.Hierarchy, tlbs *tlb.Hierarchy, spec trace.Spec) {
	primeOffset(caches, tlbs, spec, 0)
}

// PrimeDataCap and PrimeCodeCap bound the bytes a run primes of any
// one data or code region: never more than any LLC could hold.
const (
	PrimeDataCap = 8 << 20
	PrimeCodeCap = PrimeDataCap / 2
)

// primeOffset primes with the data regions shifted by offset — the
// per-copy address-space displacement of multi-copy (SPECrate) runs.
// Each region is swept through the caches at the hierarchy's smallest
// line size, so every line of every level is touched.
func primeOffset(caches *cache.Hierarchy, tlbs *tlb.Hierarchy, spec trace.Spec, offset uint64) {
	const page = 1 << tlb.PageShift
	primeData := func(base, size uint64) {
		if size > PrimeDataCap {
			size = PrimeDataCap
		}
		caches.SweepData(base, size)
		for off := uint64(0); off < size; off += page {
			tlbs.TranslateData(base + off)
		}
	}
	primeCode := func(base, size uint64) {
		if size > PrimeCodeCap {
			size = PrimeCodeCap
		}
		caches.SweepInstr(base, size)
		for off := uint64(0); off < size; off += page {
			tlbs.TranslateInstr(base + off)
		}
	}
	if spec.KernelFrac > 0 {
		primeCode(trace.KernelCodeBase, trace.KernelCodeBytes)
		primeData(trace.KernelDataBase+offset, trace.KernelDataBytes)
	}
	primeCode(trace.UserCodeBase, spec.CodeBytes)
	// Data: warm first, then mid, then hot, so the hottest lines end up
	// most recently used.
	primeData(trace.DataBase+offset, spec.WarmBytes)
	primeData(trace.DataBase+offset, spec.MidBytes)
	primeData(trace.DataBase+offset, spec.HotBytes)
	// Re-fetch the hot code region last for the same reason.
	primeCode(trace.UserCodeBase, spec.HotCodeBytes)
}

// AdjustedSpec returns the trace specification Run would execute for w
// on this machine: the neutral spec with the machine's ISA and
// compiler perturbations applied. Analytic measurement engines model
// this spec, not the neutral one, so their estimates see the same
// per-(workload, machine) stream a simulation would.
func (m *Machine) AdjustedSpec(w Workload) trace.Spec { return m.adjustSpec(w) }

// adjustSpec applies ISA and compiler perturbations to the neutral
// workload spec, modelling what recompilation on another machine does
// to a real dynamic instruction stream. The perturbation is
// deterministic per (workload, machine).
func (m *Machine) adjustSpec(w Workload) trace.Spec {
	spec := w.Spec
	if m.cfg.ISA == SPARC {
		// RISC recompilation: more instructions overall, so each
		// category's share shifts slightly, and code grows.
		spec.LoadFrac *= 1.06
		spec.StoreFrac *= 1.06
		spec.BranchFrac *= 1.08
		spec.CodeBytes = spec.CodeBytes * 5 / 4
		spec.HotCodeBytes = spec.HotCodeBytes * 5 / 4
	}
	// Compiler/system jitter: ±3% multiplicative noise on the mix and
	// locality knobs, keyed by workload and machine.
	r := rng.NewKeyedJoin(0xC0, w.Key, "|", m.cfg.Name)
	jitter := func(v float64) float64 {
		return v * (1 + float64((float64(r.Float64())-0.5)*0.06))
	}
	spec.LoadFrac = clamp01(jitter(spec.LoadFrac))
	spec.StoreFrac = clamp01(jitter(spec.StoreFrac))
	spec.BranchEntropy = clamp01(jitter(spec.BranchEntropy))
	// Data regions: jitter each *miss-producing* fraction relative to
	// itself — including the implicit cold remainder — and let the hot
	// fraction absorb the balance. Jittering hot directly would leak
	// several percent of references into the cold region, swamping the
	// workload's intended memory behaviour.
	cold := 1 - spec.HotFrac - spec.MidFrac - spec.WarmFrac - spec.StrideFrac
	if cold < 0 {
		cold = 0
	}
	cold = clamp01(jitter(cold))
	spec.MidFrac = clamp01(jitter(spec.MidFrac))
	spec.WarmFrac = clamp01(jitter(spec.WarmFrac))
	spec.HotFrac = 1 - cold - spec.MidFrac - spec.WarmFrac - spec.StrideFrac - 1e-9
	if spec.HotFrac < 0 {
		// Degenerate: no hot traffic; shrink the others proportionally.
		f := (1 - 1e-9) / (cold + spec.MidFrac + spec.WarmFrac + spec.StrideFrac)
		spec.MidFrac *= f
		spec.WarmFrac *= f
		spec.StrideFrac *= f
		spec.HotFrac = 0
	}
	// Keep the spec valid after perturbation.
	if s := spec.LoadFrac + spec.StoreFrac + spec.BranchFrac; s > 0.99 {
		spec.LoadFrac *= 0.99 / s
		spec.StoreFrac *= 0.99 / s
		spec.BranchFrac *= 0.99 / s
	}
	return spec
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
