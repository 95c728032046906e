// Package workloads is the profile database of the reproduction: a
// statistical description of every program the paper measures — the
// 43 SPEC CPU2017 benchmarks (rate and speed, with their multiple
// input sets), the SPEC CPU2006 suite, and the emerging EDA, graph
// analytics, and database workloads of Section V.
//
// Each profile encodes the paper's published ground truth — Table I's
// dynamic instruction counts, instruction mixes, and CPIs; Table II's
// metric ranges; and every qualitative per-benchmark statement in the
// text — as generative parameters for the trace substrate. The paper's
// pipeline only ever sees the vector of performance-counter metrics a
// program induces, so a profile that induces the right metric vector
// reproduces the program for the purposes of this study.
package workloads

import (
	"fmt"
	"sort"

	"repro/internal/machine"
	"repro/internal/trace"
)

// Suite identifies which benchmark collection a profile belongs to.
type Suite int

// Suites covered by the study.
const (
	SpeedINT Suite = iota // SPECspeed 2017 Integer
	RateINT               // SPECrate 2017 Integer
	SpeedFP               // SPECspeed 2017 Floating Point
	RateFP                // SPECrate 2017 Floating Point
	CPU2006INT
	CPU2006FP
	EDA      // CPU2000-era electronic design automation (175.vpr, 300.twolf)
	Graph    // graph analytics (pagerank, connected components)
	Database // Cassandra + YCSB
)

// String returns the suite's display name.
func (s Suite) String() string {
	switch s {
	case SpeedINT:
		return "SPECspeed INT"
	case RateINT:
		return "SPECrate INT"
	case SpeedFP:
		return "SPECspeed FP"
	case RateFP:
		return "SPECrate FP"
	case CPU2006INT:
		return "CPU2006 INT"
	case CPU2006FP:
		return "CPU2006 FP"
	case EDA:
		return "EDA"
	case Graph:
		return "Graph"
	case Database:
		return "Database"
	default:
		return fmt.Sprintf("Suite(%d)", int(s))
	}
}

// IsCPU2017 reports whether the suite is one of the four CPU2017
// sub-suites.
func (s Suite) IsCPU2017() bool {
	return s == SpeedINT || s == RateINT || s == SpeedFP || s == RateFP
}

// IsCPU2006 reports whether the suite is part of CPU2006.
func (s Suite) IsCPU2006() bool { return s == CPU2006INT || s == CPU2006FP }

// Domain is the application-domain classification of Table VIII.
type Domain string

// Application domains used in the paper's Table VIII plus the emerging
// categories of Section V.
const (
	DomCompiler   Domain = "compiler/interpreter"
	DomCompress   Domain = "compression"
	DomAI         Domain = "artificial intelligence"
	DomCombOpt    Domain = "combinatorial optimization"
	DomDESim      Domain = "discrete event simulation"
	DomDocProc    Domain = "document processing"
	DomPhysics    Domain = "physics"
	DomFluid      Domain = "fluid dynamics"
	DomMolecular  Domain = "molecular dynamics"
	DomVisual     Domain = "visualization"
	DomBiomedical Domain = "biomedical"
	DomClimate    Domain = "climatology"
	DomEDA        Domain = "electronic design automation"
	DomGraph      Domain = "graph analytics"
	DomDatabase   Domain = "data serving"
	DomSpeech     Domain = "speech recognition"
	DomLinProg    Domain = "linear programming"
	DomQuantum    Domain = "quantum chemistry/physics"
	DomVideo      Domain = "video processing"
	DomGames      Domain = "games"
	DomOther      Domain = "other"
)

// Profile is one measurable program.
type Profile struct {
	// Name is the SPEC-style identifier, e.g. "605.mcf_s".
	Name string
	// Base is the benchmark family shared by rate/speed/2006 versions,
	// e.g. "mcf".
	Base   string
	Suite  Suite
	Domain Domain
	Lang   string
	// NewIn2017 marks benchmarks introduced by CPU2017.
	NewIn2017 bool
	// DynInstrBillions is the published full-run dynamic instruction
	// count (Table I); the simulator samples a statistically
	// representative window of it.
	DynInstrBillions float64
	// InputSets is the number of reference inputs (>= 1).
	InputSets int
	// ILP is the workload's exploitable instruction-level parallelism.
	ILP float64
	// Spec is the ISA-neutral generator parameterization for the
	// primary (first) input set.
	Spec trace.Spec
}

// Workload converts the profile's primary input set for measurement.
func (p Profile) Workload() machine.Workload {
	return p.WorkloadInput(1)
}

// WorkloadInput returns the machine workload for input set i (1-based).
// Input sets of the same benchmark are small, deterministic
// perturbations of the primary spec — the paper finds CPU2017 input
// sets to be behaviourally close (Figures 7 and 8) — except where a
// specific input is known to diverge.
func (p Profile) WorkloadInput(i int) machine.Workload {
	if i < 1 || i > p.InputSets {
		panic(fmt.Sprintf("workloads: %s has %d input sets, requested %d", p.Name, p.InputSets, i))
	}
	spec := p.Spec
	if i > 1 {
		// Deterministic, benchmark-shape-preserving perturbation:
		// inputs differ mostly in footprint and branch bias.
		f := 1 + float64(0.08*float64(i-1))
		spec.FootprintBytes = uint64(float64(float64(spec.FootprintBytes) * f))
		if spec.FootprintBytes < spec.WarmBytes {
			spec.FootprintBytes = spec.WarmBytes
		}
		spec.TakenFrac = clampFrac(spec.TakenFrac*(1+float64(0.02*float64(i-1))), 0.02, 0.98)
		spec.WarmFrac = clampFrac(spec.WarmFrac*(1+float64(0.05*float64(i-1))), 0, 0.9)
		// Renormalize to just below 1 so floating-point rounding cannot
		// push the reconstructed sum over the validation limit.
		if s := spec.HotFrac + spec.MidFrac + spec.WarmFrac + spec.StrideFrac; s > 0.999 {
			f := 0.999 / s
			spec.HotFrac *= f
			spec.MidFrac *= f
			spec.WarmFrac *= f
			spec.StrideFrac *= f
		}
	}
	return machine.Workload{Key: p.InputKey(i), Spec: spec, ILP: p.ILP}
}

// InputKey returns the unique seed key for input set i (1-based).
func (p Profile) InputKey(i int) string {
	if p.InputSets == 1 {
		return p.Name
	}
	return fmt.Sprintf("%s/input%d", p.Name, i)
}

// InputLabel returns the display label used in the input-set
// dendrograms (Figures 7 and 8): the bare name for single-input
// benchmarks, "name-N" otherwise.
func (p Profile) InputLabel(i int) string {
	if p.InputSets == 1 {
		return p.Name
	}
	return fmt.Sprintf("%s-%d", p.Name, i)
}

func clampFrac(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// params are the declarative knobs from which a Profile's trace.Spec
// is derived. Cache targets are Skylake-referenced MPKI values taken
// from the paper's Tables I/II and per-benchmark statements; the
// builder inverts the region model to hit them approximately.
type params struct {
	load, store, branch float64 // Table I instruction mix (fractions)
	fp, simd, kernel    float64

	l1d, l2d, l3 float64 // data-cache MPKI targets (Skylake-referenced)
	l1i          float64 // instruction-cache MPKI target

	midBytes  uint64 // mid region size; the L1-sensitivity knob (default 160 KiB)
	warmBytes uint64 // warm region size (default 3 MiB)
	footprint uint64 // full footprint (default 256 MiB); the TLB knob
	stride    float64

	codeKB int // static code size in KiB (default 512)

	brMPKI    float64 // branch misprediction target on a modern predictor
	taken     float64 // taken-branch fraction
	patterned bool    // true = history-correlated branches (predictor-
	//                   sensitive); false = entropy-dominated (uniformly hard)
	patternFrac float64 // explicit correlated-branch share (overrides patterned)

	ilp float64
}

// buildSpec inverts the four-region model: given Skylake-referenced
// MPKI targets it chooses region fractions such that the simulated
// metrics land near the targets on Skylake and diverge on the other
// machines exactly where geometry differs.
func buildSpec(p params) trace.Spec {
	if p.midBytes == 0 {
		p.midBytes = 160 << 10
	}
	if p.warmBytes == 0 {
		p.warmBytes = 3 << 20
		if p.l2d <= 2 {
			// Cache-friendly codes keep a small phase working set;
			// this also bounds their D-TLB page churn.
			p.warmBytes = 1 << 20
		}
	}
	if p.warmBytes < p.midBytes {
		p.warmBytes = p.midBytes
	}
	if p.footprint == 0 {
		p.footprint = 256 << 20
	}
	if p.codeKB == 0 {
		p.codeKB = 512
	}
	refs := p.load + p.store
	var hot, mid, warm, cold float64
	if refs > 0 {
		// Stride streams touch a new line every 8 references and miss
		// every level; account for their contribution first.
		sEff := float64(p.stride / 8)
		cold = p.l3/1000/refs - sEff
		warm = (p.l2d - p.l3) / 1000 / refs
		// The mid region's L1 miss rate on the 32 KiB Skylake L1D.
		l1 := 32.0 * 1024
		missMid := (float64(p.midBytes) - l1) / float64(p.midBytes)
		if missMid < 0.2 {
			missMid = 0.2
		}
		mid = (p.l1d - p.l2d) / 1000 / refs / missMid
		cold = clampFrac(cold, 0, 0.8)
		warm = clampFrac(warm, 0, 0.8)
		mid = clampFrac(mid, 0, 0.8)
		// The 1e-6 margin keeps the reconstructed sum strictly below 1
		// despite floating-point rounding.
		hot = 1 - cold - warm - mid - p.stride - 1e-6
		if hot < 0.001 {
			// Over-constrained targets: renormalize the miss regions,
			// leaving a sliver of hot traffic and epsilon headroom.
			scale := (1 - p.stride - 0.002) / (cold + warm + mid)
			cold *= scale
			warm *= scale
			mid *= scale
			hot = 0.001
		}
	} else {
		hot = 1
	}

	// Instruction side: block length ~= 1/branch. A cold-code block
	// pick touches ~blockLen*4/64 fresh lines (at least one), each a
	// likely L1I miss when the code footprint dwarfs the cache; the
	// hot-code share is solved so the cold-pick rate lands the L1I
	// MPKI target.
	blockLen := 1 / p.branch
	linesPerBlock := blockLen * 4 / 64
	if linesPerBlock < 1 {
		linesPerBlock = 1
	}
	// Cold picks mostly land in the 96 KiB warm-code set, whose lines
	// miss the reference 32 KiB L1I two-thirds of the time; the 5%
	// full-footprint tail always misses. Kernel episodes contribute
	// their own I-cache misses (random picks over the kernel code),
	// which the user-code cold-pick rate must not double-count.
	const coldMissRate = 0.95*(96.0-32)/96 + 0.05
	kernelMPKI := float64(p.kernel / blockLen * 0.85 * 1000 * linesPerBlock)
	userMPKI := p.l1i - kernelMPKI
	if userMPKI < 0.1 {
		userMPKI = 0.1
	}
	hotCode := 1 - userMPKI/1000*blockLen/linesPerBlock/coldMissRate
	hotCode = clampFrac(hotCode, 0.4, 1)

	// Branch mixture: on the reference (tournament) predictor the
	// mispredict rate is roughly
	//   e*0.55 + (1-e)*(P*0.10 + (1-P)*0.007) + aliasErr,
	// where aliasErr is the cold-code branches' conflict noise.
	// Patterned workloads carry history-correlated branches that
	// bimodal-predictor machines cannot learn (the Table IX
	// branch-sensitivity mechanism); the fraction stays small so the
	// absolute rate meets the target while still moving the
	// benchmark's rank on bimodal machines. Solve e for the target.
	pattern := p.patternFrac
	if pattern == 0 {
		pattern = 0.02
		if p.patterned {
			pattern = 0.08
		}
	}
	// Cold-code branches are uniformly biased and cost ~1.5%; the hot
	// mixture must supply the rest of the target rate.
	targetRate := p.brMPKI / 1000 / p.branch
	hotTarget := targetRate
	if hotCode > 0 {
		hotTarget = (targetRate - float64((1-hotCode)*0.015)) / hotCode
	}
	baseRate := float64(pattern*0.10) + float64((1-pattern)*0.007)
	entropy := 0.0
	if hotTarget > baseRate {
		// Hard branches cost ~55% once two-bit-counter churn is
		// accounted for.
		entropy = clampFrac((hotTarget-baseRate)/(0.55-baseRate), 0, 1)
	}

	return trace.Spec{
		LoadFrac: p.load, StoreFrac: p.store, BranchFrac: p.branch,
		FPFrac: p.fp, SIMDFrac: p.simd, KernelFrac: p.kernel,
		HotBytes: 8 << 10, MidBytes: p.midBytes, WarmBytes: p.warmBytes,
		FootprintBytes: p.footprint,
		HotFrac:        hot, MidFrac: mid, WarmFrac: warm, StrideFrac: p.stride,
		CodeBytes: uint64(p.codeKB) << 10, HotCodeBytes: 8 << 10, HotCodeFrac: hotCode,
		BranchEntropy: entropy, PatternFrac: pattern, TakenFrac: p.taken,
	}
}

// define assembles a Profile and validates it eagerly so a bad entry
// fails the package's tests rather than a distant experiment.
func define(name, base string, suite Suite, domain Domain, lang string, newIn2017 bool,
	icountBillions float64, inputSets int, p params) Profile {
	spec := buildSpec(p)
	if err := spec.Validate(); err != nil {
		panic(fmt.Sprintf("workloads: profile %s: %v", name, err))
	}
	if inputSets < 1 {
		panic(fmt.Sprintf("workloads: profile %s: input sets %d", name, inputSets))
	}
	if p.ilp <= 0 {
		panic(fmt.Sprintf("workloads: profile %s: ILP %v", name, p.ilp))
	}
	return Profile{
		Name: name, Base: base, Suite: suite, Domain: domain, Lang: lang,
		NewIn2017: newIn2017, DynInstrBillions: icountBillions,
		InputSets: inputSets, ILP: p.ilp, Spec: spec,
	}
}

// BySuite returns the profiles of one suite, in canonical order.
func BySuite(s Suite) []Profile {
	var out []Profile
	for _, p := range All() {
		if p.Suite == s {
			out = append(out, p)
		}
	}
	return out
}

// CPU2017 returns all 43 CPU2017 profiles in Table I order.
func CPU2017() []Profile {
	var out []Profile
	for _, s := range []Suite{SpeedINT, RateINT, SpeedFP, RateFP} {
		out = append(out, BySuite(s)...)
	}
	return out
}

// CPU2006 returns the CPU2006 profiles (INT then FP).
func CPU2006() []Profile {
	return append(BySuite(CPU2006INT), BySuite(CPU2006FP)...)
}

// Emerging returns the EDA, graph, and database profiles of Section V.
func Emerging() []Profile {
	out := append(BySuite(EDA), BySuite(Graph)...)
	return append(out, BySuite(Database)...)
}

// All returns every profile in the database.
func All() []Profile {
	all := make([]Profile, 0, len(cpu2017Profiles)+len(cpu2006Profiles)+len(emergingProfiles))
	all = append(all, cpu2017Profiles...)
	all = append(all, cpu2006Profiles...)
	all = append(all, emergingProfiles...)
	return all
}

// ByName returns the named profile.
func ByName(name string) (Profile, error) {
	for _, p := range All() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("workloads: unknown profile %q", name)
}

// RateSpeedPairs returns the CPU2017 benchmark families present in
// both a rate and a speed version, as (rate, speed) profile pairs
// sorted by family name — the subjects of the paper's Section IV-D.
func RateSpeedPairs() [][2]Profile {
	rate := make(map[string]Profile)
	speed := make(map[string]Profile)
	for _, p := range CPU2017() {
		switch p.Suite {
		case RateINT, RateFP:
			rate[p.Base] = p
		case SpeedINT, SpeedFP:
			speed[p.Base] = p
		}
	}
	var bases []string
	for b := range rate {
		if _, ok := speed[b]; ok {
			bases = append(bases, b)
		}
	}
	sort.Strings(bases)
	pairs := make([][2]Profile, 0, len(bases))
	for _, b := range bases {
		pairs = append(pairs, [2]Profile{rate[b], speed[b]})
	}
	return pairs
}
