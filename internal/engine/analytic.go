// The analytic engine: a closed-form model of the trace-driven
// substrate. Every quantity the simulator measures by replaying
// hundreds of thousands of events — instruction mix, working-set miss
// rates per cache and TLB level, branch mispredicts, the CPI stack,
// power — has a steady-state expectation that follows directly from
// the workload specification and the machine geometry. Evaluating
// those expectations costs tens of microseconds instead of a simulation,
// which is what makes interactive serving and wide scenario matrices
// possible (the estimator tier of memory-centric characterization; cf.
// Singh & Awasthi, arXiv:1910.00651).
//
// The model reads the generator's construction from trace.NewLayout
// (block geometry, mix thresholds, the easy branches' taken share,
// kernel entry, stride streams) and machine's prime caps rather than
// deriving them again. What it assumes on its own — how the prime pass
// ages each stream, the branch-miss closed forms, the kernel data's
// hot share — is set out in docs/ENGINES.md, with the tolerance bands
// tying it to the exact engine.
package engine

import (
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/cpistack"
	"repro/internal/machine"
	"repro/internal/power"
	"repro/internal/telemetry"
	"repro/internal/tlb"
	"repro/internal/trace"
)

// Analytic is the closed-form estimation engine. It is deterministic,
// allocates only the counts it returns when untraced (once its pair is
// in the first-level memo), and costs O(#streams × solver steps) per
// measurement: each cache or TLB level solves for its characteristic
// time in ~12 occupancy sums over its streams, the split first levels
// once per (machine, workload) pair (firstLevels). No trace
// generation, no per-event work.
type Analytic struct{}

// Tier returns TierAnalytic.
func (Analytic) Tier() Tier { return TierAnalytic }

// Measure estimates w on m, emitting an "estimate" leaf span (the
// analytic analogue of the exact engine's "simulate") when ctx is
// traced. Untraced, an estimate allocates only the returned counts.
func (Analytic) Measure(ctx context.Context, m *machine.Machine, w machine.Workload, opts machine.RunOptions) (*machine.RawCounts, error) {
	if telemetry.FromContext(ctx) == nil {
		return estimate(m, w, opts)
	}
	_, span := telemetry.StartSpan(ctx, "estimate", "machine", m.Name(), "workload", w.Key)
	rc, err := estimate(m, w, opts)
	span.End()
	return rc, err
}

// primeInfo captures how the simulator's prime() pass left one stream
// at measurement start. prime() scans the resident regions in a fixed
// order (kernel code, kernel data, user code, warm→mid→hot data, hot
// code), so a stream's primed lines sit in LRU order behind every
// byte the sequence touched after them: on a level smaller than that
// tail, the priming is already evicted when measurement begins.
type primeInfo struct {
	frac      float64 // fraction of the stream the prime pass touched
	afterSide float64 // same-side bytes primed after it (split L1 aging)
	afterAll  float64 // total bytes primed after it (unified-level aging)
}

// stream is one working set competing for cache (or TLB) capacity:
// uniform references at `rate` events per instruction over `size`
// bytes. Disjoint streams model the generator's nested regions as
// annuli, so capacity allocation is a partition.
type stream struct {
	size  float64 // working-set bytes
	rate  float64 // events per instruction entering the hierarchy
	instr bool    // instruction side (for split accounting)
	prime primeInfo
}

// levelTime returns the characteristic time T of one LRU level of the
// given capacity serving the streams, where arrival[i] is stream i's
// inbound event rate at this level (events per instruction; deeper
// levels see only the upstream misses). T is the fixed point at which
// the streams' resident fractions exactly fill the capacity
// (characteristicTime), or +Inf when the live streams fit whole.
func levelTime(capacity, lineBytes float64, streams []*stream, arrival []float64) float64 {
	// The live streams' sizes and per-line rates, in stream order (a
	// level serves at most 11 streams, so both fit on the stack).
	var sizeBuf, muBuf [16]float64
	sizes, mus := sizeBuf[:0], muBuf[:0]
	total := 0.0
	for i, st := range streams {
		if st.size > 0 && arrival[i] > 0 {
			sizes = append(sizes, st.size)
			mus = append(mus, arrival[i]*lineBytes/st.size)
			total += st.size
		}
	}
	if len(sizes) == 0 || total <= capacity {
		return math.Inf(1)
	}
	if recordSolve != nil {
		recordSolve(capacity, slices.Clone(sizes), slices.Clone(mus))
	}
	return characteristicTime(capacity, sizes, mus)
}

// levelMisses models one LRU level of the given capacity and
// characteristic time t (levelTime) serving the streams at the given
// arrival rates. It writes each stream's expected miss rate over an
// n-instruction window preceded by a warmup-instruction warmup into
// miss, which has one element per stream and may be arrival itself:
// stream i's arrival is read before its miss rate is written.
//
// Repeat references follow the characteristic-time approximation: a
// line survives in an LRU cache iff it is re-referenced within the
// cache's characteristic time T, so a stream touching its
// size/lineBytes lines uniformly at per-line rate
// μ = arrival·lineBytes/size keeps the fraction 1−exp(−μT) of them
// resident. Unlike a pure capacity partition, this keeps rate in the
// model: a small working set referenced rarely (kernel code between
// bursts) loses its lines to high-rate streaming traffic, exactly as
// the simulator's true-LRU caches behave.
//
// The first window touch of each line additionally depends on the
// state measurement started in: the line hits only if the warmup
// re-touched it within T, or the prime() residue for its stream
// outlived both the rest of the prime sequence and the warmup. At
// short fidelities this cold-start term dominates sparsely revisited
// streams (kernel regions, giant footprints) — exactly the misses a
// pure steady-state model misses.
func levelMisses(capacity, lineBytes float64, streams []*stream, arrival []float64, t, n, warmup float64, split bool, miss []float64) {
	for i, st := range streams {
		if st.size <= 0 || arrival[i] <= 0 {
			miss[i] = 0
			continue
		}
		mu := arrival[i] * lineBytes / st.size
		// e^(−μT) and e^(−μ·horizon), each evaluated once: the horizon
		// is T itself whenever the warmup outlasts T, and then both are
		// the same float.
		h, eT := 1.0, 0.0
		if !math.IsInf(t, 1) {
			eT = math.Exp(-mu * t)
			h = 1 - eT
		}
		horizon := warmup
		if t < horizon {
			horizon = t
		}
		eH := eT
		if horizon != t {
			eH = math.Exp(-mu * horizon)
		}
		hStart := 1 - eH
		if warmup <= t {
			after := st.prime.afterAll
			if split {
				after = st.prime.afterSide
			}
			res := capacity - after
			if res < 0 {
				res = 0
			}
			if pf := st.prime.frac * st.size; res > pf {
				res = pf
			}
			hStart += eH * res / st.size
		}
		lines := st.size / lineBytes
		refs := arrival[i] * n
		distinct := lines * (1 - math.Exp(-refs/lines))
		miss[i] = ((refs-distinct)*(1-h) + distinct*(1-hStart)) / n
	}
}

// occupancy returns the bytes a level holds at characteristic time t,
// Σ size·(1−e^(−μt)) over its live streams, and that sum's slope in t,
// Σ size·μ·e^(−μt), from one math.Exp per stream.
func occupancy(sizes, mus []float64, t float64) (occ, slope float64) {
	for i, size := range sizes {
		e := math.Exp(-mus[i] * t)
		occ += size * (1 - e)
		slope += size * mus[i] * e
	}
	return occ, slope
}

// recordSolve, when set, receives a copy of each characteristic-time
// solve's inputs; BenchmarkLevelMisses sets it to collect a registry
// machine's real levels. (A copy, so that sizes and mus stay on
// levelMisses' stack.)
var recordSolve func(capacity float64, sizes, mus []float64)

// characteristicTime returns T for a level of the given capacity over
// live streams of the given sizes and per-line rates. T is defined by
// a bisection: double hi from 1 while occupancy(hi) < capacity and
// hi < 1e15, bisect [0, hi] for at most 80 steps, stopping at the
// first step that leaves both bounds unchanged (a step is a pure
// function of the bounds, so every later one would repeat it), and
// take the midpoint of the final bounds.
//
// Walking that path costs ~74 occupancy sums, so the search first
// brackets T (newtonBracket) and then replays the bisection step by
// step, evaluating occupancy only at points inside
// the bracket: every point at or below `below` is known to fall short
// of the capacity, and every point at or above `above` to fill it.
// Each point the replay does evaluate narrows the bracket further.
// The replay takes the bisection's own steps, so its 80-step cap, its
// 1e15 escape and its final midpoint come out as they are, and T is
// the same float bit for bit (TestLevelMissesMatchesReference). Over
// a registry × fleet sweep a solve takes ~12 occupancy sums.
//
// The one assumption is that math.Exp is monotone over float64
// (TestExpMonotone): then −μt, e^(−μt), each term and their
// left-to-right sum are each monotone in t, so the computed occupancy
// is too, and one evaluation decides every point on its side. Were
// math.Exp to step backwards somewhere, a point inside the skipped
// range could compare differently from the bound that decided it, and
// T could differ from the bisection's in its last bits.
func characteristicTime(capacity float64, sizes, mus []float64) float64 {
	below, above := newtonBracket(capacity, sizes, mus)
	short := func(t float64) bool {
		if t <= below {
			return true
		}
		if t >= above {
			return false
		}
		if occ, _ := occupancy(sizes, mus, t); occ < capacity {
			below = t
			return true
		}
		above = t
		return false
	}
	lo, hi := 0.0, 1.0
	for short(hi) && hi < 1e15 {
		hi *= 2
	}
	for iter := 0; iter < 80; iter++ {
		mid := (lo + hi) / 2
		if short(mid) {
			if mid == lo {
				break
			}
			lo = mid
		} else {
			if mid == hi {
				break
			}
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// maxNewtonSteps bounds newtonBracket. Newton converges in a handful
// of steps, except where it creeps an ulp or two a step across a
// plateau of the computed occupancy (a large, slow stream's term moves
// only when its e^(−μt) changes by an ulp); a bracket that ends early
// leaves more of the bisection for the replay to evaluate.
const maxNewtonSteps = 16

// newtonBracket runs Newton's method on occupancy(t) − capacity and
// returns the tightest bounds its iterates certify,
// occupancy(below) < capacity ≤ occupancy(above). `below` starts at
// 0, where occupancy is 0 (no point the bisection evaluates lies at or
// below it), and `above` at +Inf.
// Newton starts where the upper bounds size·min(1, μt) of the
// occupancy terms fill the capacity, at or below T. Occupancy is
// concave, so in exact arithmetic every iterate stays below T and
// climbs toward it; in floats one may land at or past T, and the next
// steps back. It stops when a step would leave the open bracket, which
// is how it ends once converged to within rounding, or after
// maxNewtonSteps iterates.
func newtonBracket(capacity float64, sizes, mus []float64) (below, above float64) {
	below, above = 0, math.Inf(1)
	t := saturationStart(capacity, sizes, mus)
	if !(t > below && t < above) {
		return below, above
	}
	for step := 1; ; step++ {
		occ, slope := occupancy(sizes, mus, t)
		if occ < capacity {
			below = t
		} else {
			above = t
		}
		next := t + (capacity-occ)/slope
		if !(next > below && next < above) || step == maxNewtonSteps {
			return below, above
		}
		t = next
	}
}

// saturationStart returns the t at which Σ size·min(1, μt), an upper
// bound on occupancy(t), reaches the capacity: Newton's method on that
// concave piecewise-linear bound, which lands on it in at most one
// step per stream.
func saturationStart(capacity float64, sizes, mus []float64) float64 {
	t := 0.0
	for range sizes {
		full, slope := 0.0, 0.0
		for i, size := range sizes {
			if mus[i]*t >= 1 {
				full += size
			} else {
				slope += size * mus[i]
			}
		}
		next := (capacity - full) / slope
		if !(next > t) {
			break
		}
		t = next
	}
	return t
}

// sumSide totals the rates of one side's streams (instruction or data).
func sumSide(streams []*stream, rates []float64, wantInstr bool) float64 {
	total := 0.0
	for i, st := range streams {
		if st.instr == wantInstr {
			total += rates[i]
		}
	}
	return total
}

// The stream tables: four code streams (the hot loop, the warm and
// cold annuli of user code, kernel code), then seven data streams.
const nCode, nData = 4, 7

// sides holds one value per side of a level, instruction and data: a
// level's misses per instruction, or a split level's capacities or
// characteristic times.
type sides struct{ instr, data float64 }

// streamTable lists one cascade's streams, code then data, with their
// first-level arrival rates: the streams' own rates.
func streamTable(code *[nCode]stream, data *[nData]stream) (all [nCode + nData]*stream, rates [nCode + nData]float64) {
	for i := range code {
		all[i] = &code[i]
	}
	for i := range data {
		all[nCode+i] = &data[i]
	}
	for i, st := range all {
		rates[i] = st.rate
	}
	return all, rates
}

// splitTimes returns the characteristic times of a cascade's first
// level, split into an instruction side and a data side of capacities
// l1. Unlike a deeper level's, its arrivals are the streams' own
// rates, which estimate derives from the adjusted spec and the layout
// alone, never from the fidelity: so a (machine, workload) pair has
// the same split times at every fidelity (pairTimes).
func splitTimes(code *[nCode]stream, data *[nData]stream, grain float64, l1 sides) sides {
	all, arr := streamTable(code, data)
	return sides{
		levelTime(l1.instr, grain, all[:nCode], arr[:nCode]),
		levelTime(l1.data, grain, all[nCode:], arr[nCode:]),
	}
}

// cascade runs one hierarchy of caches or TLBs at a grain of `grain`
// bytes over the code and data streams: a first level split into an
// instruction side and a data side of capacities l1 and characteristic
// times t1 (splitTimes), then each unified level of the given
// capacities in turn, stopping at the first that is zero (absent).
// Each deeper level sees only the upstream misses as its arrival
// rates, so its time is solved here, at every fidelity. Levels past
// the last read zero.
func cascade(code *[nCode]stream, data *[nData]stream, grain, n, wu float64, l1, t1 sides, unified ...float64) (miss [3]sides) {
	all, arr := streamTable(code, data)
	// Each level's misses replace its arrivals in place: they are the
	// next level's arrivals.
	levelMisses(l1.instr, grain, all[:nCode], arr[:nCode], t1.instr, n, wu, true, arr[:nCode])
	levelMisses(l1.data, grain, all[nCode:], arr[nCode:], t1.data, n, wu, true, arr[nCode:])
	miss[0] = sides{sumSide(all[:], arr[:], true), sumSide(all[:], arr[:], false)}
	for lvl, capacity := range unified {
		if capacity == 0 {
			break
		}
		t := levelTime(capacity, grain, all[:], arr[:])
		levelMisses(capacity, grain, all[:], arr[:], t, n, wu, false, arr[:])
		miss[lvl+1] = sides{sumSide(all[:], arr[:], true), sumSide(all[:], arr[:], false)}
	}
	return miss
}

// pairTimes is one (machine, workload) pair's split first-level
// characteristic times: L1I and L1D, then ITLB and DTLB.
type pairTimes struct{ cache, tlb sides }

// firstLevels memoizes each pair's pairTimes for the process, so an
// estimate solves only its deeper levels, whose arrivals carry the
// fidelity's cold-start misses, once its pair has been estimated at
// any fidelity. It is indexed by the pair's handle, the one a store key
// of the same leaf carries, and holds one entry per distinct pair
// estimated; spec17d estimates the built-in fleet times the registry.
var firstLevels machine.PairMemo[pairTimes]

// counterMiss is the stationary mispredict rate of a two-bit
// saturating counter observing Bernoulli(p) outcomes: the birth-death
// chain over states 0..3 with up-probability p has stationary weights
// (1, r, r², r³), r = p/(1−p); states {0,1} predict not-taken.
func counterMiss(p float64) float64 {
	if p <= 0 || p >= 1 {
		return 0
	}
	r := p / (1 - p)
	s := 1 + r + r*r + r*r*r
	return (p*(1+r) + (1-p)*(r*r+r*r*r)) / s
}

// hardBranchMiss is counterMiss averaged over the generator's hard-
// branch bias distribution (uniform on [0.35, 0.65]), evaluated by
// midpoint quadrature once at init.
var hardBranchMiss = func() float64 {
	const steps = 64
	sum := 0.0
	for i := 0; i < steps; i++ {
		sum += counterMiss(0.35 + (float64(i)+0.5)*0.3/steps)
	}
	return sum / steps
}()

// corrMissAlternating is the mispredict rate of a two-bit counter on
// the generator's phase-correlated branches: their outcome flips every
// hot-loop pass, so the counter oscillates between states 1 and 2 and
// mispredicts essentially every execution (a trained history-based
// predictor instead reads the phase from recent outcomes and tracks
// it, missing mainly on noise and flip boundaries).
const (
	corrMissAlternating = 0.98
	corrMissHistory     = 0.045
)

// predictTakenProb is the stationary probability that a two-bit
// counter fed Bernoulli(t) outcomes currently predicts taken.
func predictTakenProb(t float64) float64 {
	if t <= 0 {
		return 0
	}
	if t >= 1 {
		return 1
	}
	r := t / (1 - t)
	s := 1 + r + r*r + r*r*r
	return (r*r + r*r*r) / s
}

// estimate evaluates the closed-form model for one measurement.
func estimate(m *machine.Machine, w machine.Workload, opts machine.RunOptions) (*machine.RawCounts, error) {
	if err := w.CheckILP(); err != nil {
		return nil, err
	}
	spec := m.AdjustedSpec(w)
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("machine %s: workload %q: %w", m.Name(), w.Key, err)
	}
	cfg := m.Config()
	opts = opts.Canonical()
	n := float64(opts.Instructions)
	wu := float64(opts.WarmupInstructions)

	// The generator's layout: code geometry, mix thresholds, the easy
	// branches' taken share, kernel entry and the stride streams.
	l := trace.NewLayout(spec)

	// Instruction mix: one branch per block; the other slots split by
	// the generator's renormalized load/store/ALU probabilities.
	bl := float64(l.BlockLen)
	branchRate := 1 / bl
	slots := (bl - 1) / bl
	loadRate := slots * l.PLoad
	storeRate := slots * l.PStore
	var simdRate, fpRate float64
	if l.PALU > 0 {
		simd := math.Min(l.PSIMD, l.PALU)
		fp := math.Min(l.PSIMDFP, l.PALU) - simd
		simdRate = slots * simd
		fpRate = slots * fp
	}

	// Kernel residency: episodes of KernelBurst blocks entered at the
	// generator's rate, giving a stationary kernel fraction that equals
	// KernelFrac until the entry probability saturates.
	const burst = float64(trace.KernelBurst)
	kf := burst * l.EnterKernel / (burst*l.EnterKernel + 1)

	// Branch behaviour: expectations over the seeded mixture, from the
	// generator's easy-taken share (solved with its 0.99 cold-taken
	// constant) — correlated branches occupy an int(P·hot) block run,
	// the rest are hard with probability BranchEntropy, and cold blocks
	// are 0.995-taken easy.
	e, pat, h := spec.BranchEntropy, spec.PatternFrac, spec.HotCodeFrac
	q := l.EasyTaken
	qTaken := 0.005 + 0.99*q

	hb, wb, nb := float64(l.HotBlocks), float64(l.WarmBlocks), float64(l.Blocks)
	// Residency of user branch executions (and fetched blocks) over the
	// mixture-seeded hot region vs the cold remainder: the hot loop
	// runs h of the blocks, and excursions (95% warm / 5% anywhere)
	// land back in it proportionally.
	wMix := h + (1-h)*(0.95*hb/wb+0.05*hb/nb)
	wWarm := (1 - h) * (0.95*(wb-hb)/wb + 0.05*(wb-hb)/nb)
	wCold := (1 - h) * 0.05 * (nb - wb) / nb

	corrFrac := func(count int) float64 {
		return float64(int(pat*float64(count))) / float64(count)
	}
	pcU, pcK := corrFrac(l.HotBlocks), corrFrac(l.KernelBlocks)

	easyMiss := counterMiss(0.995)
	mixTaken := func(pc float64) float64 {
		return pc*0.5 + (1-pc)*(e*0.5+(1-e)*qTaken)
	}
	takenProb := (1-kf)*(wMix*mixTaken(pcU)+(1-wMix)*0.995) + kf*mixTaken(pcK)

	// Mispredicts, per predictor organization. The populations behave
	// very differently per kind, and two finite effects matter beyond
	// the per-branch stationary rates: kernel branches are visited so
	// sparsely (uniform random picks over thousands of blocks) that most
	// executions land on never-trained entries, and a gshare's index is
	// perturbed whenever recent history contains an off-modal outcome —
	// Bernoulli noise, hard branches, or a kernel episode's random
	// block identities.
	tblEntries := float64(uint64(1) << uint(cfg.Predictor.TableBits))
	histLen := float64(cfg.Predictor.HistoryBits)
	horizon := n + wu
	kernExec := branchRate * kf

	// A lookup landing on a quasi-random table entry: untouched entries
	// predict taken (init weakly-taken), touched ones lean with the
	// aggregate outcome stream.
	util := branchRate * horizon / tblEntries
	if util > 1 {
		util = 1
	}
	pTrand := 1 - util*(1-predictTakenProb(takenProb))
	perturbEasy := q*(0.995*(1-pTrand)+0.005*pTrand) +
		(1-q)*(0.005*(1-pTrand)+0.995*pTrand)

	// virginFrac: share of executions hitting a never-trained entry when
	// execRate events per instruction spread uniformly over `entries`
	// table entries across the warmup + measured window.
	virginFrac := func(entries, execRate float64) float64 {
		if execRate <= 0 || entries <= 0 {
			return 0
		}
		mu := execRate / entries
		v := entries * math.Exp(-mu*wu) * (1 - math.Exp(-mu*n)) / (execRate * n)
		if v > 1 {
			v = 1
		}
		return v
	}
	tK := mixTaken(pcK)
	initMissK := 1 - tK
	kEntries := float64(l.KernelBlocks)
	if kEntries > tblEntries {
		kEntries = tblEntries
	}
	phi := virginFrac(kEntries, kernExec)
	// PC-indexed entries that were trained are often clobbered by
	// colliding traffic before their next sparse revisit.
	churned := phi + (1-phi)*0.5

	// Excursion branches (warm/cold blocks) are each executed a handful
	// of times at most: on a PC-indexed table most executions find the
	// weakly-taken init state, which mispredicts the not-taken share.
	tW := e*0.5 + (1-e)*qTaken
	phiW := 0.0
	if wb > hb {
		phiW = virginFrac(wb-hb, branchRate*(1-kf)*(wWarm+wCold))
	}
	missW := phiW*(1-tW) + (1-phiW)*(e*hardBranchMiss+(1-e)*easyMiss)

	dedicated := func(corrMiss float64) float64 {
		return pcU*corrMiss + (1-pcU)*(e*hardBranchMiss+(1-e)*easyMiss)
	}
	trainedK := pcK*0.5 + (1-pcK)*(e*hardBranchMiss+(1-e)*easyMiss)
	// Fresh-pattern rate entering the global history: Bernoulli noise
	// and excursion blocks whose outcome disagrees with the replaced
	// history bit. Hard branches also flip history bits, but their flip
	// patterns are drawn from a small fixed set that recurs and trains —
	// they cost table capacity (see `pairs`), not fresh-entry misses.
	nu := 0.005 + (1-h)*2*qTaken*(1-qTaken)
	rhoNu := 1 - math.Pow(1-nu, histLen)
	scramble := 1 - math.Pow(1-l.EnterKernel, histLen)

	var userMiss, kernMiss float64
	switch cfg.Predictor.Kind {
	case branch.Bimodal:
		// PC-indexing keeps the compact hot loop collision-free: misses
		// are the stationary per-branch rates, with correlated branches
		// alternating against their counters every pass.
		userMiss = wMix*dedicated(corrMissAlternating) + (1-wMix)*missW
		kernMiss = churned*initMissK + (1-churned)*trainedK
	case branch.GShare:
		// History perturbation sends a lookup to a quasi-random entry;
		// clean lookups can still collide persistently with an
		// opposite-bias branch, in which case the interleaved updates
		// alternate the shared counter and both branches miss nearly
		// always (degrading toward the churned-table rate once kernel
		// traffic keeps rewriting the table).
		rho := 1 - (1-rhoNu)*(1-scramble)
		pairs := hb * math.Pow(2, math.Min(e*histLen, 6)) * (1 + pcU*histLen)
		alpha := 1 - math.Exp(-pairs/tblEntries)
		conflict := alpha * 2 * q * (1 - q)
		collMiss := (1-scramble)*1.0 + scramble*perturbEasy
		easyG := rho*perturbEasy + (1-rho)*(conflict*collMiss+(1-conflict)*easyMiss)
		// Hard branches land near hardBranchMiss: their handful of
		// history variants all train toward the same near-0.5 bias.
		hot := pcU*corrMissHistory + (1-pcU)*(e*0.35+(1-e)*easyG)
		userMiss = wMix*hot + (1-wMix)*perturbEasy
		kernTrained := pcK*0.5 + (1-pcK)*(e*0.35+(1-e)*perturbEasy)
		kernMiss = phi*initMissK + (1-phi)*kernTrained
	case branch.Tournament:
		// The chooser learns per-PC which side to trust, rescuing both
		// persistent gshare collisions and statically scrambled or
		// noisy histories (it parks such branches on the bimodal side,
		// which is why the leak saturates as the noise rate grows);
		// only transient history noise on otherwise gshare-served
		// branches leaks through.
		leak := 0.75 * (1 - q) * rhoNu * math.Exp(-5*rhoNu) * (1 - scramble)
		userMiss = wMix*(dedicated(corrMissHistory)+(1-pcU)*(1-e)*leak) +
			(1-wMix)*missW
		kernMiss = churned*initMissK + (1-churned)*trainedK
	}
	missProb := (1-kf)*userMiss + kf*kernMiss

	// Data streams: the generator's nested hot/mid/warm/footprint
	// regions as disjoint annuli, plus the sequential stride scan and
	// the fixed kernel regions. Rates are references per instruction.
	dataRate := loadRate + storeRate
	sf, hf, mf, wf := spec.StrideFrac, spec.HotFrac, spec.MidFrac, spec.WarmFrac
	cf := 1 - sf - hf - mf - wf
	if cf < 0 {
		cf = 0
	}
	hotB := float64(spec.HotBytes)
	midB := float64(spec.MidBytes)
	warmB := float64(spec.WarmBytes)
	fpB := float64(spec.FootprintBytes)
	r1 := hf + mf*hotB/midB + wf*hotB/warmB + cf*hotB/fpB
	r2 := mf*(midB-hotB)/midB + wf*(midB-hotB)/warmB + cf*(midB-hotB)/fpB
	r3 := wf*(warmB-midB)/warmB + cf*(warmB-midB)/fpB
	r4 := cf * (fpB - warmB) / fpB

	uData := dataRate * (1 - kf)
	kData := dataRate * kf
	khB := float64(trace.KernelHotDataBytes)
	kdB := float64(trace.KernelDataBytes)

	// Code streams: the hot loop, the warm and cold annuli of user code,
	// and kernel code. Control flow lands on a fresh line (or page) on
	// every off-path jump (probability 1−h per block transition — the
	// hot loop's cyclic advance is PC-contiguous), split over the jump
	// target mixture: 95% uniform over the warm prefix (which includes
	// the hot blocks), 5% uniform over all of the code. Kernel block
	// picks are uniformly random, so every kernel block boundary is a
	// discontinuity.
	blockB := float64(l.BlockBytes)
	hotCodeB := float64(l.HotBlocks) * blockB
	warmAnnB := float64(l.WarmBlocks-l.HotBlocks) * blockB
	coldAnnB := float64(l.Blocks-l.WarmBlocks) * blockB
	kCodeB := float64(l.KernelBlocks) * blockB
	jumpRate := (1 - h) / bl * (1 - kf)
	tgtHot := 0.95*hb/wb + 0.05*hb/nb
	tgtWarm := 0.95*(wb-hb)/wb + 0.05*(wb-hb)/nb
	tgtCold := 0.05 * (nb - wb) / nb

	// Reconstruct what the simulator's prime() pass left behind. The
	// sequence (kernel code, kernel data, user code up to its cap, then
	// warm→mid→hot data up to theirs, hot code last) means each
	// stream's primed lines are aged by exactly the bytes scanned after
	// them; the cold annuli and anything past the caps start cold by
	// design. The prime pass touched the TLBs on the same scans at page
	// stride, so the TLB streams share this state.
	maxPrimeD, maxPrimeC := float64(machine.PrimeDataCap), float64(machine.PrimeCodeCap)
	kcP, kdP := 0.0, 0.0
	if spec.KernelFrac > 0 {
		kcP = math.Min(kCodeB, maxPrimeC)
		kdP = math.Min(kdB, maxPrimeD)
	}
	ucP := math.Min(float64(l.Blocks)*blockB, maxPrimeC)
	warmP := math.Min(warmB, maxPrimeD)
	midP := math.Min(midB, maxPrimeD)
	hotP := math.Min(hotB, maxPrimeD)
	hcP := math.Min(hotCodeB, maxPrimeC)
	// annFrac: how much of the annulus [lo, hi) a scan to `limit` covers.
	annFrac := func(limit, lo, hi float64) float64 {
		if hi <= lo {
			return 0
		}
		f := (limit - lo) / (hi - lo)
		if f < 0 {
			f = 0
		}
		if f > 1 {
			f = 1
		}
		return f
	}
	codePrime := [nCode]primeInfo{
		{frac: annFrac(hcP, 0, hotCodeB)},
		{frac: annFrac(ucP, hotCodeB, hotCodeB+warmAnnB),
			afterSide: math.Max(0, ucP-hotCodeB-warmAnnB) + hcP,
			afterAll:  math.Max(0, ucP-hotCodeB-warmAnnB) + hcP + warmP + midP + hotP},
		{frac: annFrac(ucP, hotCodeB+warmAnnB, hotCodeB+warmAnnB+coldAnnB),
			afterSide: hcP,
			afterAll:  hcP + warmP + midP + hotP},
		{frac: kcP / kCodeB,
			afterSide: ucP + hcP,
			afterAll:  kdP + ucP + hcP + warmP + midP + hotP},
	}
	dataPrime := [nData]primeInfo{
		{frac: annFrac(hotP, 0, hotB), afterSide: 0, afterAll: hcP},
		{frac: annFrac(midP, hotB, midB), afterSide: hotP, afterAll: hotP + hcP},
		{frac: annFrac(warmP, midB, warmB), afterSide: midP + hotP, afterAll: midP + hotP + hcP},
		{}, // the cold annulus is deliberately never primed
		{frac: warmP / fpB, afterSide: midP + hotP, afterAll: midP + hotP + hcP},
		{frac: 1,
			afterSide: math.Max(0, kdP-khB) + warmP + midP + hotP,
			afterAll:  math.Max(0, kdP-khB) + ucP + warmP + midP + hotP + hcP},
		{frac: 1,
			afterSide: warmP + midP + hotP,
			afterAll:  ucP + warmP + midP + hotP + hcP},
	}

	// The two stream tables at a grain of `grain` bytes, a cache line or
	// a page. Instruction fetches (translations) fire on grain
	// transitions: sequentially every grain/InstrBytes instructions,
	// plus the jumps; codeStreams also returns their total rate. Data
	// references each look up, but the stride component advances
	// StrideStep bytes a reference, so all but one in grain/StrideStep
	// re-touch the current line (page) and always hit: only that one
	// behaves as a sequential scan over the footprint.
	codeStreams := func(grain float64) (ss [nCode]stream, fetchRate float64) {
		seq := trace.InstrBytes / grain * (1 - kf)
		kFetch := (trace.InstrBytes/grain + 1/bl) * kf
		ss = [nCode]stream{
			{size: hotCodeB, rate: seq*wMix + jumpRate*tgtHot, instr: true, prime: codePrime[0]},
			{size: warmAnnB, rate: seq*wWarm + jumpRate*tgtWarm, instr: true, prime: codePrime[1]},
			{size: coldAnnB, rate: seq*wCold + jumpRate*tgtCold, instr: true, prime: codePrime[2]},
			{size: kCodeB, rate: kFetch, instr: true, prime: codePrime[3]},
		}
		return ss, seq + jumpRate + kFetch
	}
	dataStreams := func(grain float64) [nData]stream {
		return [nData]stream{
			{size: hotB, rate: uData * r1, prime: dataPrime[0]},
			{size: midB - hotB, rate: uData * r2, prime: dataPrime[1]},
			{size: warmB - midB, rate: uData * r3, prime: dataPrime[2]},
			{size: fpB - warmB, rate: uData * r4, prime: dataPrime[3]},
			{size: fpB, rate: uData * sf / (grain / trace.StrideStep), prime: dataPrime[4]},
			{size: khB, rate: kData * (0.8 + 0.2*khB/kdB), prime: dataPrime[5]},
			{size: kdB - khB, rate: kData * 0.2 * (kdB - khB) / kdB, prime: dataPrime[6]},
		}
	}

	// Cache cascade: split L1, unified L2, optional unified L3; TLB
	// cascade over the same working sets at page grain: split I/D TLBs,
	// optional unified L2 TLB. Both first levels' times come from one
	// memo lookup.
	const lineBytes = 64
	code, fetchRate := codeStreams(lineBytes)
	data := dataStreams(lineBytes)
	l1 := sides{float64(cfg.Caches.L1I.SizeBytes), float64(cfg.Caches.L1D.SizeBytes)}
	pageBytes := float64(uint64(1) << tlb.PageShift)
	itCode, itRate := codeStreams(pageBytes)
	dtData := dataStreams(pageBytes)
	tlb1 := sides{float64(cfg.TLBs.ITLB.Entries) * pageBytes, float64(cfg.TLBs.DTLB.Entries) * pageBytes}
	p := m.PairOf(w)
	t1, ok := firstLevels.Load(p)
	if !ok {
		t1 = pairTimes{splitTimes(&code, &data, lineBytes, l1), splitTimes(&itCode, &dtData, pageBytes, tlb1)}
		firstLevels.Store(p, t1)
	}

	l3 := 0.0
	if cfg.Caches.L3 != nil {
		l3 = float64(cfg.Caches.L3.SizeBytes)
	}
	cm := cascade(&code, &data, lineBytes, n, wu, l1, t1.cache, float64(cfg.Caches.L2.SizeBytes), l3)
	l2t := 0.0
	if cfg.TLBs.L2 != nil {
		l2t = float64(cfg.TLBs.L2.Entries) * pageBytes
	}
	tm := cascade(&itCode, &dtData, pageBytes, n, wu, tlb1, t1.tlb, l2t)
	dtlbMiss := tm[0].data
	l2tlbMiss := tm[1].instr + tm[1].data

	// The generator's stride pointers sit StreamSpan apart.
	// When that spacing is a multiple of a TLB's set stride, every
	// stream's current page indexes the same set; with fewer ways than
	// streams the set thrashes under LRU (a move-to-front stack over
	// nStr equally-hot pages hits only for the Ways most recent), and
	// nearly half the stride references miss a TLB their pages would
	// trivially fit in.
	strideThrash := func(c tlb.Config) float64 {
		setStride := uint64(c.Entries/c.Ways) << tlb.PageShift
		if l.Streams <= c.Ways || l.StreamSpan < setStride || l.StreamSpan%setStride != 0 {
			return 0
		}
		return 1 - float64(c.Ways)/float64(l.Streams)
	}
	if extra := uData * sf * strideThrash(cfg.TLBs.DTLB); extra > 0 {
		dtlbMiss += extra
		if cfg.TLBs.L2 != nil {
			l2tlbMiss += extra * strideThrash(*cfg.TLBs.L2)
		}
	}

	// Assemble the counts the simulator would report.
	cnt := func(rate float64) uint64 {
		if rate <= 0 {
			return 0
		}
		return uint64(math.Round(rate * n))
	}
	rc := &machine.RawCounts{
		Instructions:  uint64(opts.Instructions),
		Loads:         cnt(loadRate),
		Stores:        cnt(storeRate),
		Branches:      cnt(branchRate),
		TakenBranches: cnt(branchRate * takenProb),
		FPOps:         cnt(fpRate),
		SIMDOps:       cnt(simdRate),
		KernelInstrs:  cnt(kf),
		Mispredicts:   cnt(branchRate * missProb),
	}
	rc.Cache = cache.Counts{
		L1IAccesses: cnt(fetchRate),
		L1IMisses:   cnt(cm[0].instr),
		L1DAccesses: rc.Loads + rc.Stores,
		L1DMisses:   cnt(cm[0].data),
		L2IAccesses: cnt(cm[0].instr),
		L2IMisses:   cnt(cm[1].instr),
		L2DAccesses: cnt(cm[0].data),
		L2DMisses:   cnt(cm[1].data),
	}
	if cfg.Caches.L3 != nil {
		rc.Cache.L3Accesses = cnt(cm[1].instr + cm[1].data)
		rc.Cache.L3Misses = cnt(cm[2].instr + cm[2].data)
	}
	rc.TLB = tlb.Counts{
		ITLBLookups: cnt(itRate),
		ITLBMisses:  cnt(tm[0].instr),
		DTLBLookups: rc.Loads + rc.Stores,
		DTLBMisses:  cnt(dtlbMiss),
	}
	if cfg.TLBs.L2 != nil {
		rc.TLB.L2Lookups = cnt(tm[0].instr + dtlbMiss)
		rc.TLB.L2Misses = cnt(l2tlbMiss)
		rc.TLB.PageWalks = rc.TLB.L2Misses
	} else {
		rc.TLB.PageWalks = cnt(tm[0].instr + dtlbMiss)
	}

	in := cpistack.Inputs{
		Instructions: rc.Instructions,
		BaseCPI:      1 / w.ILP,
		IdealCPI:     1 / float64(cfg.IssueWidth),
		Mispredicts:  rc.Mispredicts,
		L1IMissToL2:  rc.Cache.L1IMisses,
		L1DMissToL2:  rc.Cache.L1DMisses,
		PageWalks:    rc.TLB.PageWalks,
	}
	if cfg.Caches.L3 != nil {
		in.L2IMissToL3 = rc.Cache.L2IMisses
		in.L3IMissToMem = cnt(cm[2].instr)
		in.L2DMissToL3 = rc.Cache.L2DMisses
		in.L3DMissToMem = cnt(cm[2].data)
	} else {
		in.L2IMissToMem = rc.Cache.L2IMisses
		in.L3DMissToMem = rc.Cache.L2DMisses
	}
	stack, err := cpistack.Compute(in, cfg.Penalties)
	if err != nil {
		return nil, err
	}
	rc.Stack = stack
	rc.CPI = stack.Total()
	rc.Cycles = uint64(rc.CPI * float64(rc.Instructions))

	if cfg.HasRAPL {
		memAcc := rc.Cache.L3Misses
		if cfg.Caches.L3 == nil {
			memAcc = rc.Cache.L2IMisses + rc.Cache.L2DMisses
		}
		bd, err := cfg.Power.Estimate(power.Activity{
			Instructions: rc.Instructions,
			Cycles:       rc.Cycles,
			FPOps:        rc.FPOps,
			SIMDOps:      rc.SIMDOps,
			LLCAccesses:  rc.Cache.L2IAccesses + rc.Cache.L2DAccesses + rc.Cache.L3Accesses,
			MemAccesses:  memAcc,
		})
		if err != nil {
			return nil, err
		}
		rc.Power = bd
	}
	return rc, nil
}
