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
// The model mirrors internal/trace's generator construction piece by
// piece (block geometry, branch seeding, region mixtures, kernel
// bursts); see docs/ENGINES.md for the derivation and the tolerance
// bands tying it to the exact engine.
package engine

import (
	"context"
	"fmt"
	"math"

	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/cpistack"
	"repro/internal/machine"
	"repro/internal/power"
	"repro/internal/telemetry"
	"repro/internal/tlb"
	"repro/internal/trace"
)

// instrBytes mirrors the trace generator's fixed instruction encoding.
const instrBytes = 4

// Analytic is the closed-form estimation engine. It is deterministic,
// allocation-light, and O(#streams log #streams) per measurement —
// no trace generation, no per-event work.
type Analytic struct{}

// Tier returns TierAnalytic.
func (Analytic) Tier() Tier { return TierAnalytic }

// Measure estimates w on m, emitting an "estimate" leaf span (the
// analytic analogue of the exact engine's "simulate").
func (Analytic) Measure(ctx context.Context, m *machine.Machine, w machine.Workload, opts machine.RunOptions) (*machine.RawCounts, error) {
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

// levelMisses models one LRU level of the given capacity serving the
// streams, where arrival[i] is stream i's inbound event rate at this
// level (events per instruction; deeper levels see only the upstream
// misses). It returns each stream's expected miss rate over an
// n-instruction window preceded by a warmup-instruction warmup.
//
// Repeat references follow the characteristic-time approximation: a
// line survives in an LRU cache iff it is re-referenced within the
// cache's characteristic time T, so a stream touching its
// size/lineBytes lines uniformly at per-line rate
// μ = arrival·lineBytes/size keeps the fraction 1−exp(−μT) of them
// resident. T is the fixed point at which the resident fractions
// exactly fill the capacity — found by bisection, deterministically,
// stopping at the first step that leaves both bounds unchanged (a
// step is a pure function of the bounds, so every later one would
// repeat it). Unlike a pure capacity partition, this keeps rate in the
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
func levelMisses(capacity, lineBytes float64, streams []*stream, arrival []float64, n, warmup float64, split bool) []float64 {
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
	t := math.Inf(1)
	if len(sizes) > 0 && total > capacity {
		occupancy := func(t float64) float64 {
			sum := 0.0
			for i, size := range sizes {
				sum += size * (1 - math.Exp(-mus[i]*t))
			}
			return sum
		}
		lo, hi := 0.0, 1.0
		for occupancy(hi) < capacity && hi < 1e15 {
			hi *= 2
		}
		for iter := 0; iter < 80; iter++ {
			mid := (lo + hi) / 2
			if occupancy(mid) < capacity {
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
		t = (lo + hi) / 2
	}

	miss := make([]float64, len(streams))
	for i, st := range streams {
		if st.size <= 0 || arrival[i] <= 0 {
			continue
		}
		mu := arrival[i] * lineBytes / st.size
		h := 1.0
		if !math.IsInf(t, 1) {
			h = 1 - math.Exp(-mu*t)
		}
		horizon := warmup
		if t < horizon {
			horizon = t
		}
		hStart := 1 - math.Exp(-mu*horizon)
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
			hStart += math.Exp(-mu*horizon) * res / st.size
		}
		lines := st.size / lineBytes
		refs := arrival[i] * n
		distinct := lines * (1 - math.Exp(-refs/lines))
		miss[i] = ((refs-distinct)*(1-h) + distinct*(1-hStart)) / n
	}
	return miss
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
	if w.ILP <= 0 {
		return nil, fmt.Errorf("machine: workload %q has non-positive ILP", w.Key)
	}
	spec := m.AdjustedSpec(w)
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("machine %s: workload %q: %w", m.Name(), w.Key, err)
	}
	cfg := m.Config()
	opts = opts.Canonical()
	n := float64(opts.Instructions)
	wu := float64(opts.WarmupInstructions)

	// Code geometry, exactly as the generator derives it.
	blockLen := int(1/spec.BranchFrac + 0.5)
	if blockLen < 2 {
		blockLen = 2
	}
	blockBytes := uint64(blockLen * instrBytes)
	nBlocks := int(spec.CodeBytes / blockBytes)
	if nBlocks < 1 {
		nBlocks = 1
	}
	hotBlocks := int(spec.HotCodeBytes / blockBytes)
	if hotBlocks < 1 {
		hotBlocks = 1
	}
	if hotBlocks > nBlocks {
		hotBlocks = nBlocks
	}
	warmCode := spec.WarmCodeBytes
	if warmCode == 0 {
		warmCode = 96 << 10
	}
	warmBlocks := int(warmCode / blockBytes)
	if warmBlocks < hotBlocks {
		warmBlocks = hotBlocks
	}
	if warmBlocks > nBlocks {
		warmBlocks = nBlocks
	}
	nKBlocks := int(trace.KernelCodeBytes / blockBytes)
	if nKBlocks < 1 {
		nKBlocks = 1
	}

	// Instruction mix: one branch per block; the other slots split by
	// the generator's renormalized load/store/ALU probabilities.
	bl := float64(blockLen)
	branchRate := 1 / bl
	slots := (bl - 1) / bl
	nonBranch := 1 - spec.BranchFrac
	pl := spec.LoadFrac / nonBranch
	ps := spec.StoreFrac / nonBranch
	loadRate := slots * pl
	storeRate := slots * ps
	var simdRate, fpRate float64
	if alu := 1 - pl - ps; alu > 0 {
		simd := math.Min(spec.SIMDFrac/nonBranch, alu)
		fp := math.Min((spec.SIMDFrac+spec.FPFrac)/nonBranch, alu) - simd
		simdRate = slots * simd
		fpRate = slots * fp
	}

	// Kernel residency: episodes of 8 blocks entered with the
	// generator's rate, giving a stationary kernel fraction that equals
	// KernelFrac until the entry probability saturates.
	kf := 0.0
	if spec.KernelFrac > 0 {
		const burst = 8.0
		enter := spec.KernelFrac / (burst * (1 - spec.KernelFrac))
		if enter > 1 || math.IsInf(enter, 1) {
			enter = 1
		}
		kf = burst * enter / (burst*enter + 1)
	}

	// Branch behaviour. Replicate the generator's solve for the easy
	// branches' taken split (including its 0.99 cold-taken constant),
	// then take expectations over the seeded mixture — correlated
	// branches occupy an int(P·hot) block run, the rest are hard with
	// probability BranchEntropy, and cold blocks are 0.995-taken easy.
	e, pat, h := spec.BranchEntropy, spec.PatternFrac, spec.HotCodeFrac
	q := 0.5
	if rest := (1 - e) * (1 - pat); rest > 0 && h > 0 {
		hotTaken := (spec.TakenFrac - (1-h)*0.99) / h
		q = (hotTaken - e*0.5 - (1-e)*pat*0.5) / rest
		q = (q - 0.005) / 0.99
		if q < 0 {
			q = 0
		}
		if q > 1 {
			q = 1
		}
	}
	qTaken := 0.005 + 0.99*q

	hb, wb, nb := float64(hotBlocks), float64(warmBlocks), float64(nBlocks)
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
	pcU, pcK := corrFrac(hotBlocks), corrFrac(nKBlocks)

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
	enter := 0.0
	if spec.KernelFrac > 0 {
		enter = spec.KernelFrac / (8 * (1 - spec.KernelFrac))
		if enter > 1 || math.IsInf(enter, 1) {
			enter = 1
		}
	}
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
	kEntries := float64(nKBlocks)
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
	scramble := 1 - math.Pow(1-enter, histLen)

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

	// The stride component advances 8 bytes per reference: 7 of every
	// 8 references re-touch the current 64-byte line (guaranteed L1D
	// hits), and the 8th behaves as a sequential scan over the
	// footprint. TLB-side the always-hit fraction is 511/512.
	dataStreams := []*stream{
		{size: hotB, rate: uData * r1},
		{size: midB - hotB, rate: uData * r2},
		{size: warmB - midB, rate: uData * r3},
		{size: fpB - warmB, rate: uData * r4},
		{size: fpB, rate: uData * sf / 8}, // stride line-scan
		{size: khB, rate: kData * (0.8 + 0.2*khB/kdB)},
		{size: kdB - khB, rate: kData * 0.2 * (kdB - khB) / kdB},
	}

	// Code streams. Fetch events fire on 64-byte line transitions:
	// sequentially every 16 instructions, plus one per control-flow
	// discontinuity — every block boundary except hot-loop blocks
	// following hot-loop blocks, which are contiguous (probability h²).
	// Kernel block picks are uniformly random, so every kernel block
	// boundary is a discontinuity.
	hotCodeB := float64(hotBlocks) * float64(blockBytes)
	warmAnnB := float64(warmBlocks-hotBlocks) * float64(blockBytes)
	coldAnnB := float64(nBlocks-warmBlocks) * float64(blockBytes)
	kCodeB := float64(nKBlocks) * float64(blockBytes)
	// Sequential fetches cross a line every 16 instructions; control
	// flow additionally lands on a fresh line on every off-path jump
	// (probability 1−h per block transition — the hot loop's cyclic
	// advance is PC-contiguous), split over the jump target mixture:
	// 95% uniform over the warm prefix (which includes the hot blocks),
	// 5% uniform over all of the code.
	seqFetch := (1.0 / 16) * (1 - kf)
	jumpRate := (1 - h) / bl * (1 - kf)
	tgtHot := 0.95*hb/wb + 0.05*hb/nb
	tgtWarm := 0.95*(wb-hb)/wb + 0.05*(wb-hb)/nb
	tgtCold := 0.05 * (nb - wb) / nb
	kFetch := (1.0/16 + 1/bl) * kf
	codeStreams := []*stream{
		{size: hotCodeB, rate: seqFetch*wMix + jumpRate*tgtHot, instr: true},
		{size: warmAnnB, rate: seqFetch*wWarm + jumpRate*tgtWarm, instr: true},
		{size: coldAnnB, rate: seqFetch*wCold + jumpRate*tgtCold, instr: true},
		{size: kCodeB, rate: kFetch, instr: true},
	}

	// Reconstruct what the simulator's prime() pass left behind. The
	// sequence (kernel code, kernel data, user code up to 4MB, then warm
	// →mid→hot data capped at 8MB, hot code last) means each stream's
	// primed lines are aged by exactly the bytes scanned after them; the
	// cold annuli and anything past the caps start cold by design.
	const maxPrimeD, maxPrimeC = float64(8 << 20), float64(4 << 20)
	kcP, kdP := 0.0, 0.0
	if spec.KernelFrac > 0 {
		kcP = math.Min(kCodeB, maxPrimeC)
		kdP = math.Min(kdB, maxPrimeD)
	}
	ucP := math.Min(float64(nBlocks)*float64(blockBytes), maxPrimeC)
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
	dataStreams[0].prime = primeInfo{frac: annFrac(hotP, 0, hotB), afterSide: 0, afterAll: hcP}
	dataStreams[1].prime = primeInfo{frac: annFrac(midP, hotB, midB), afterSide: hotP, afterAll: hotP + hcP}
	dataStreams[2].prime = primeInfo{frac: annFrac(warmP, midB, warmB), afterSide: midP + hotP, afterAll: midP + hotP + hcP}
	// dataStreams[3], the cold annulus, is deliberately never primed.
	dataStreams[4].prime = primeInfo{frac: warmP / fpB, afterSide: midP + hotP, afterAll: midP + hotP + hcP}
	dataStreams[5].prime = primeInfo{frac: 1,
		afterSide: math.Max(0, kdP-khB) + warmP + midP + hotP,
		afterAll:  math.Max(0, kdP-khB) + ucP + warmP + midP + hotP + hcP}
	dataStreams[6].prime = primeInfo{frac: 1,
		afterSide: warmP + midP + hotP,
		afterAll:  ucP + warmP + midP + hotP + hcP}
	codeStreams[0].prime = primeInfo{frac: annFrac(hcP, 0, hotCodeB)}
	codeStreams[1].prime = primeInfo{frac: annFrac(ucP, hotCodeB, hotCodeB+warmAnnB),
		afterSide: math.Max(0, ucP-hotCodeB-warmAnnB) + hcP,
		afterAll:  math.Max(0, ucP-hotCodeB-warmAnnB) + hcP + warmP + midP + hotP}
	codeStreams[2].prime = primeInfo{frac: annFrac(ucP, hotCodeB+warmAnnB, hotCodeB+warmAnnB+coldAnnB),
		afterSide: hcP,
		afterAll:  hcP + warmP + midP + hotP}
	codeStreams[3].prime = primeInfo{frac: kcP / kCodeB,
		afterSide: ucP + hcP,
		afterAll:  kdP + ucP + hcP + warmP + midP + hotP}

	// Cache cascade: split L1, unified L2, optional unified L3. Each
	// deeper level sees only the upstream misses as its arrival rates.
	const lineBytes = 64
	baseRates := func(ss []*stream) []float64 {
		out := make([]float64, len(ss))
		for i, st := range ss {
			out[i] = st.rate
		}
		return out
	}
	arrCodeL1 := baseRates(codeStreams)
	arrDataL1 := baseRates(dataStreams)
	all := append(append([]*stream{}, codeStreams...), dataStreams...)
	arrL2 := append(
		levelMisses(float64(cfg.Caches.L1I.SizeBytes), lineBytes, codeStreams, arrCodeL1, n, wu, true),
		levelMisses(float64(cfg.Caches.L1D.SizeBytes), lineBytes, dataStreams, arrDataL1, n, wu, true)...)
	arrL3 := levelMisses(float64(cfg.Caches.L2.SizeBytes), lineBytes, all, arrL2, n, wu, false)
	var arrMem []float64
	if cfg.Caches.L3 != nil {
		arrMem = levelMisses(float64(cfg.Caches.L3.SizeBytes), lineBytes, all, arrL3, n, wu, false)
	}

	fetchRate := seqFetch + jumpRate + kFetch
	l1iMiss := sumSide(all, arrL2, true)
	l1dMiss := sumSide(all, arrL2, false)
	l2iMiss := sumSide(all, arrL3, true)
	l2dMiss := sumSide(all, arrL3, false)
	var l3iMiss, l3dMiss float64
	if arrMem != nil {
		l3iMiss = sumSide(all, arrMem, true)
		l3dMiss = sumSide(all, arrMem, false)
	}

	// TLB cascade over the same working sets at page granularity.
	// Instruction-side translations fire on page transitions
	// (sequentially every 1024 instructions plus discontinuities);
	// data-side translations fire on every load and store, with the
	// stride component page-resident 511 of 512 references.
	seqIT := (1.0 / 1024) * (1 - kf)
	kIT := (1.0/1024 + 1/bl) * kf
	itStreams := []*stream{
		{size: hotCodeB, rate: seqIT*wMix + jumpRate*tgtHot, instr: true},
		{size: warmAnnB, rate: seqIT*wWarm + jumpRate*tgtWarm, instr: true},
		{size: coldAnnB, rate: seqIT*wCold + jumpRate*tgtCold, instr: true},
		{size: kCodeB, rate: kIT, instr: true},
	}
	dtStreams := []*stream{
		{size: hotB, rate: uData * r1},
		{size: midB - hotB, rate: uData * r2},
		{size: warmB - midB, rate: uData * r3},
		{size: fpB - warmB, rate: uData * r4},
		{size: fpB, rate: uData * sf / 512}, // stride page-scan
		{size: khB, rate: kData * (0.8 + 0.2*khB/kdB)},
		{size: kdB - khB, rate: kData * 0.2 * (kdB - khB) / kdB},
	}
	// The prime pass touched the TLBs on the same scans at page stride,
	// so the streams inherit the cache-side prime state.
	for i := range itStreams {
		itStreams[i].prime = codeStreams[i].prime
	}
	for i := range dtStreams {
		dtStreams[i].prime = dataStreams[i].prime
	}
	pageBytes := float64(uint64(1) << tlb.PageShift)
	arrITL1 := baseRates(itStreams)
	arrDTL1 := baseRates(dtStreams)
	allT := append(append([]*stream{}, itStreams...), dtStreams...)
	arrTL2 := append(
		levelMisses(float64(cfg.TLBs.ITLB.Entries)*pageBytes, pageBytes, itStreams, arrITL1, n, wu, true),
		levelMisses(float64(cfg.TLBs.DTLB.Entries)*pageBytes, pageBytes, dtStreams, arrDTL1, n, wu, true)...)
	itlbMiss := sumSide(allT, arrTL2, true)
	dtlbMiss := sumSide(allT, arrTL2, false)
	var l2tlbMiss float64
	if cfg.TLBs.L2 != nil {
		walks := levelMisses(float64(cfg.TLBs.L2.Entries)*pageBytes, pageBytes, allT, arrTL2, n, wu, false)
		l2tlbMiss = sumSide(allT, walks, true) + sumSide(allT, walks, false)
	}

	// The generator's MemStreams stride pointers sit streamSpan apart.
	// When that spacing is a multiple of a TLB's set stride, every
	// stream's current page indexes the same set; with fewer ways than
	// streams the set thrashes under LRU (a move-to-front stack over
	// nStr equally-hot pages hits only for the Ways most recent), and
	// nearly half the stride references miss a TLB their pages would
	// trivially fit in.
	nStr := spec.MemStreams
	if nStr <= 0 {
		nStr = 4
	}
	span := spec.FootprintBytes / uint64(nStr)
	if span < 64 {
		span = 64
	}
	strideThrash := func(c tlb.Config) float64 {
		setStride := uint64(c.Entries/c.Ways) << tlb.PageShift
		if nStr <= c.Ways || span < setStride || span%setStride != 0 {
			return 0
		}
		return 1 - float64(c.Ways)/float64(nStr)
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
		L1IMisses:   cnt(l1iMiss),
		L1DAccesses: rc.Loads + rc.Stores,
		L1DMisses:   cnt(l1dMiss),
		L2IAccesses: cnt(l1iMiss),
		L2IMisses:   cnt(l2iMiss),
		L2DAccesses: cnt(l1dMiss),
		L2DMisses:   cnt(l2dMiss),
	}
	if cfg.Caches.L3 != nil {
		rc.Cache.L3Accesses = cnt(l2iMiss + l2dMiss)
		rc.Cache.L3Misses = cnt(l3iMiss + l3dMiss)
	}
	rc.TLB = tlb.Counts{
		ITLBLookups: cnt(seqIT + jumpRate + kIT),
		ITLBMisses:  cnt(itlbMiss),
		DTLBLookups: rc.Loads + rc.Stores,
		DTLBMisses:  cnt(dtlbMiss),
	}
	if cfg.TLBs.L2 != nil {
		rc.TLB.L2Lookups = cnt(itlbMiss + dtlbMiss)
		rc.TLB.L2Misses = cnt(l2tlbMiss)
		rc.TLB.PageWalks = rc.TLB.L2Misses
	} else {
		rc.TLB.PageWalks = cnt(itlbMiss + dtlbMiss)
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
		in.L3IMissToMem = cnt(l3iMiss)
		in.L2DMissToL3 = rc.Cache.L2DMisses
		in.L3DMissToMem = cnt(l3dMiss)
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
