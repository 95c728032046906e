// Package trace generates deterministic synthetic instruction traces
// from statistical workload specifications. A trace is the stream of
// per-instruction events (kind, program counter, data address, branch
// outcome) consumed by the cache, TLB, and branch-predictor simulators
// in place of the proprietary SPEC binaries the paper executed.
//
// The generator models the program properties the paper's metrics are
// sensitive to, and nothing else:
//
//   - instruction mix (load/store/branch/FP/SIMD/kernel fractions),
//   - code footprint and hot-loop concentration (I-cache, I-TLB),
//   - a three-region data working-set model plus streaming accesses
//     (D-cache hierarchy, D-TLB),
//   - per-branch bias, pattern, and entropy (branch predictors).
package trace

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/rng"
)

// Kind classifies one dynamic instruction.
type Kind uint8

// Instruction kinds. IntOp covers scalar integer ALU work; FPOp scalar
// floating point; SIMDOp vector work of either domain.
const (
	IntOp Kind = iota
	FPOp
	SIMDOp
	Load
	Store
	CondBranch
)

// String returns a short mnemonic for the kind.
func (k Kind) String() string {
	switch k {
	case IntOp:
		return "int"
	case FPOp:
		return "fp"
	case SIMDOp:
		return "simd"
	case Load:
		return "load"
	case Store:
		return "store"
	case CondBranch:
		return "branch"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Event is one dynamic instruction.
type Event struct {
	Kind   Kind
	PC     uint64 // instruction address
	Addr   uint64 // effective address for Load/Store, else 0
	Taken  bool   // outcome for CondBranch
	Kernel bool   // executed in kernel mode
}

// Spec is the statistical description of a workload. All fractions are
// of dynamic instructions and must lie in [0, 1]; region sizes are in
// bytes. See internal/workloads for the profile database that fills
// these in from the paper's published data.
type Spec struct {
	// Instruction mix. BranchFrac determines the basic-block length
	// (every block ends in exactly one conditional branch); the
	// remaining instruction slots are split between loads, stores, and
	// ALU work, with FPFrac/SIMDFrac selecting the ALU flavour.
	LoadFrac, StoreFrac, BranchFrac float64
	FPFrac, SIMDFrac                float64
	KernelFrac                      float64

	// Data-side working sets, four nested regions (all based at 0):
	// hot (stack and hot structs, sized to fit any L1), mid (the
	// blocked/tiled working set, typically between L1 and L2 sizes),
	// warm (the phase working set, between L2 and L3 sizes), and the
	// full footprint. HotFrac/MidFrac/WarmFrac/StrideFrac select where
	// each reference goes; the remainder is uniform over the footprint
	// ("cold", the pointer-chasing component that reaches DRAM).
	HotBytes, MidBytes, WarmBytes, FootprintBytes uint64
	HotFrac, MidFrac, WarmFrac, StrideFrac        float64
	// MemStreams is the number of concurrent sequential streams for
	// the StrideFrac component (default 4).
	MemStreams int

	// Code side: total static code and the size of the hot (loop)
	// portion that receives HotCodeFrac of the execution. Cold-code
	// excursions mostly land in a WarmCodeBytes-sized working set
	// (defaulting to min(96 KiB, CodeBytes)), with a 5% tail over the
	// full footprint — real programs keep their active code within a
	// second-level-cache-sized region even when the binary is huge.
	CodeBytes, HotCodeBytes, WarmCodeBytes uint64
	HotCodeFrac                            float64

	// Branch behaviour is a three-way mixture over static branches:
	//
	//   - "hard" branches (probability BranchEntropy): Bernoulli with
	//     a near-0.5 bias — every predictor mispredicts them ~45% of
	//     the time (leela's and mcf's data-dependent branches);
	//   - "correlated" branches (probability PatternFrac of the rest):
	//     all follow the hot loop's iteration phase, which flips every
	//     pass (red-black sweeps, odd/even iteration work), plus 0.5%
	//     noise. Their outcomes alternate — a bimodal counter
	//     mispredicts ~50% — but every phase flip is visible in recent
	//     global history, so history-based predictors (gshare,
	//     tournament) learn them almost perfectly. These are the
	//     predictor-quality-sensitive branches of loop-nest codes like
	//     bwaves;
	//   - "easy" branches (the remainder): Bernoulli with a 0.995 or
	//     0.005 bias, predicted correctly ~99.5% of the time everywhere.
	//
	// TakenFrac sets the workload's overall taken fraction; the
	// generator solves for the easy branches' taken/not-taken split
	// (hard and correlated branches are ~50% taken).
	BranchEntropy float64
	PatternFrac   float64
	TakenFrac     float64
}

// Validate reports the first implausible field.
func (s Spec) Validate() error {
	// The fractions in field order, so that of several out of range the
	// first is reported, every time.
	fracs := [...]struct {
		name string
		v    float64
	}{
		{"LoadFrac", s.LoadFrac}, {"StoreFrac", s.StoreFrac}, {"BranchFrac", s.BranchFrac},
		{"FPFrac", s.FPFrac}, {"SIMDFrac", s.SIMDFrac}, {"KernelFrac", s.KernelFrac},
		{"HotFrac", s.HotFrac}, {"MidFrac", s.MidFrac}, {"WarmFrac", s.WarmFrac}, {"StrideFrac", s.StrideFrac},
		{"HotCodeFrac", s.HotCodeFrac}, {"BranchEntropy", s.BranchEntropy}, {"PatternFrac", s.PatternFrac},
		{"TakenFrac", s.TakenFrac},
	}
	for _, f := range fracs {
		if !(f.v >= 0 && f.v <= 1) { // NaN fails too
			return fmt.Errorf("trace: %s = %v outside [0,1]", f.name, f.v)
		}
	}
	if s.LoadFrac+s.StoreFrac+s.BranchFrac > 1 {
		return fmt.Errorf("trace: load+store+branch fractions exceed 1 (%v)",
			s.LoadFrac+s.StoreFrac+s.BranchFrac)
	}
	if s.HotFrac+s.MidFrac+s.WarmFrac+s.StrideFrac > 1 {
		return fmt.Errorf("trace: hot+mid+warm+stride fractions exceed 1 (%v)",
			s.HotFrac+s.MidFrac+s.WarmFrac+s.StrideFrac)
	}
	if s.BranchFrac <= 0 {
		return fmt.Errorf("trace: BranchFrac must be positive (blocks end in a branch)")
	}
	if s.HotBytes == 0 || s.MidBytes < s.HotBytes || s.WarmBytes < s.MidBytes || s.FootprintBytes < s.WarmBytes {
		return fmt.Errorf("trace: need 0 < HotBytes (%d) <= MidBytes (%d) <= WarmBytes (%d) <= FootprintBytes (%d)",
			s.HotBytes, s.MidBytes, s.WarmBytes, s.FootprintBytes)
	}
	if s.CodeBytes == 0 || s.HotCodeBytes == 0 || s.HotCodeBytes > s.CodeBytes {
		return fmt.Errorf("trace: need 0 < HotCodeBytes (%d) <= CodeBytes (%d)", s.HotCodeBytes, s.CodeBytes)
	}
	return nil
}

// Address-space layout of generated traces. UserCodeBase and
// KernelCodeBase separate the two code regions so kernel-heavy
// workloads (databases) pressure the I-cache with a second footprint,
// as the paper observes for Cassandra. The bases are exported so the
// measurement harness can prime caches and TLBs with the resident
// working set before sampling.
const (
	UserCodeBase   uint64 = 0x0040_0000
	KernelCodeBase uint64 = 0x4000_0000
	KernelDataBase uint64 = 0x6000_0000
	DataBase       uint64 = 0x1_0000_0000

	// KernelCodeBytes is the fixed size of the kernel code region and
	// KernelDataBytes of the kernel data region; KernelHotDataBytes is
	// the slice of it that receives most kernel references.
	KernelCodeBytes    uint64 = 128 << 10
	KernelDataBytes    uint64 = 1 << 20
	KernelHotDataBytes uint64 = 32 << 10
)

// InstrBytes is every instruction's size (a fixed encoding, adequate
// for I-side locality modelling), StrideStep the bytes a stride stream
// advances per reference, and KernelBurst the blocks per kernel
// episode.
const (
	InstrBytes  = 4
	StrideStep  = 8
	KernelBurst = 8
)

// branchKind classifies one static branch's behaviour.
type branchKind uint8

const (
	easyBranch branchKind = iota
	hardBranch
	corrBranch
)

// branchState is the behavioural state of one static branch.
type branchState struct {
	kind branchKind
	// taken is the rng.Threshold of the Bernoulli taken probability
	// (easy/hard branches).
	taken uint64
}

// The rng.Threshold of each constant probability the generator draws
// against: an easy branch's taken probability, 0.995 or 0.005 (also a
// correlated branch's chance to break its phase); a cold-code
// excursion's chance to stay in the warm code; a kernel reference's
// chance to hit the hot kernel data.
var (
	tStrong    = rng.Threshold(0.995)
	tWeak      = rng.Threshold(0.005)
	tWarmCode  = rng.Threshold(0.95)
	tKernelHot = rng.Threshold(0.8)
)

// coldBranch is the behaviour of every branch outside the hot loop:
// strongly taken, drawn from no RNG. All cold blocks share this one
// read-only value instead of a table entry each.
var coldBranch = branchState{kind: easyBranch, taken: tStrong}

// Layout is what a Spec lays out before any random draw: the code
// geometry, the instruction-mix thresholds, the easy branches' taken
// share, the kernel-entry probability and the stride streams. The
// generator runs on it, and the analytic engine reads it instead of
// deriving the same values again.
type Layout struct {
	// Code geometry: the basic-block length in instructions (a
	// conditional branch ends each block) and in bytes, the user
	// code's blocks, the hot loop's and the warm working set's
	// prefixes of them, and the kernel code's blocks.
	BlockLen                                    int
	BlockBytes                                  uint64
	Blocks, HotBlocks, WarmBlocks, KernelBlocks int

	// Streams is the number of stride streams; each scans its own
	// StreamSpan bytes of the footprint.
	Streams    int
	StreamSpan uint64

	// Instruction-mix thresholds over a non-branch slot: a uniform
	// draw below PLoad is a load, below PLoadStore (PLoad + PStore) a
	// store; an ALU slot's draw scaled by PALU is SIMD below PSIMD and
	// FP below PSIMDFP. Both engines' count pins hold each float
	// expression, association order included.
	PLoad, PStore, PLoadStore, PALU, PSIMD, PSIMDFP float64

	// EnterKernel is the per-block probability of starting a kernel
	// episode, so that the long-run kernel fraction matches KernelFrac.
	EnterKernel float64
	// EasyTaken is the probability that an easy hot branch is seeded
	// taken-biased, solved so that all branches hit TakenFrac overall.
	EasyTaken float64
}

// NewLayout lays out spec, which must pass Validate.
func NewLayout(spec Spec) Layout {
	var l Layout
	l.BlockLen = max(int(1/spec.BranchFrac+0.5), 2)
	l.BlockBytes = uint64(l.BlockLen * InstrBytes)
	l.Blocks = max(int(spec.CodeBytes/l.BlockBytes), 1)
	l.HotBlocks = min(max(int(spec.HotCodeBytes/l.BlockBytes), 1), l.Blocks)
	warmCode := spec.WarmCodeBytes
	if warmCode == 0 {
		warmCode = 96 << 10
	}
	l.WarmBlocks = min(max(int(warmCode/l.BlockBytes), l.HotBlocks), l.Blocks)
	// Kernel code: a fixed-size region (128 KiB) of its own blocks.
	l.KernelBlocks = max(int(KernelCodeBytes/l.BlockBytes), 1)

	l.Streams = spec.MemStreams
	if l.Streams <= 0 {
		l.Streams = 4
	}
	l.StreamSpan = max(spec.FootprintBytes/uint64(l.Streams), 64)

	nonBranch := 1 - spec.BranchFrac
	l.PLoad = spec.LoadFrac / nonBranch
	l.PStore = spec.StoreFrac / nonBranch
	l.PLoadStore = l.PLoad + l.PStore
	l.PALU = 1 - l.PLoad - l.PStore
	l.PSIMD = spec.SIMDFrac / nonBranch
	l.PSIMDFP = (spec.SIMDFrac + spec.FPFrac) / nonBranch
	if spec.KernelFrac > 0 {
		l.EnterKernel = spec.KernelFrac / (KernelBurst * (1 - spec.KernelFrac))
		if l.EnterKernel > 1 {
			l.EnterKernel = 1
		}
	}

	// Solve for the easy branches' taken share so the hot mixture plus
	// the cold-branch population hits TakenFrac overall:
	//   taken = h*(e*0.5 + (1-e)*(P*0.5 + (1-P)*(q*0.98+0.01))) + (1-h)*0.99,
	// where h is the hot share of branch executions (HotCodeFrac).
	e, P, h := spec.BranchEntropy, spec.PatternFrac, spec.HotCodeFrac
	l.EasyTaken = 0.5
	if rest := (1 - e) * (1 - P); rest > 0 && h > 0 {
		hotTaken := (spec.TakenFrac - float64((1-h)*0.99)) / h
		q := (hotTaken - float64(e*0.5) - float64((1-e)*P*0.5)) / rest
		q = (q - 0.005) / 0.99
		if q < 0 {
			q = 0
		}
		if q > 1 {
			q = 1
		}
		l.EasyTaken = q
	}
	return l
}

// Generator produces the event stream for one workload. It is not
// safe for concurrent use; create one per goroutine.
type Generator struct {
	spec Spec
	Layout

	branches []branchState // hot blocks only; colder ones are coldBranch
	// kbranches is the kernel code's table, seeded from kseed on the
	// first kernel block: most workloads never enter the kernel.
	kbranches []branchState
	kseed     rng.Rand
	streams   []uint64

	// The rng.Threshold of every probability a draw is tested against,
	// derived once: Layout's mix thresholds (the ALU ones scaled by
	// PALU, as the draw is), the hot-code and kernel-entry
	// probabilities, and the data regions' cumulative fractions.
	tLoad, tLoadStore, tSIMD, tSIMDFP uint64
	tHotCode, tEnterKernel            uint64
	tStride                           uint64 // StrideFrac
	tHot                              uint64 // StrideFrac + HotFrac
	tMid                              uint64 // StrideFrac + HotFrac + MidFrac
	tWarm                             uint64 // StrideFrac + HotFrac + MidFrac + WarmFrac

	// Per-instruction state.
	curBlock   int
	curHot     int
	blockPos   int
	inKernel   bool
	kernBudget int
	phase      bool // hot-loop iteration phase (flips per pass)

	rBlock, rMix, rData, rBranch, rKernel rng.Rand
}

// NewGenerator builds a generator for spec. The key seeds all random
// streams: the same (spec, key) pair always yields the same trace.
func NewGenerator(spec Spec, key string) (*Generator, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	g := &Generator{
		spec:    spec,
		Layout:  NewLayout(spec),
		rBlock:  *rng.NewKeyed(key, 1),
		rMix:    *rng.NewKeyed(key, 2),
		rData:   *rng.NewKeyed(key, 3),
		rBranch: *rng.NewKeyed(key, 4),
		rKernel: *rng.NewKeyed(key, 5),
	}
	g.branches = make([]branchState, g.HotBlocks)
	seedBranches(g.branches, spec, g.EasyTaken, &g.rBranch)
	// The kernel table would be seeded next, from the same stream:
	// keep the stream where it starts and skip the draws it takes.
	g.kseed = g.rBranch
	g.rBranch.Skip(seedDraws(g.KernelBlocks, spec.PatternFrac))

	g.streams = make([]uint64, g.Streams)
	for i := range g.streams {
		g.streams[i] = uint64(i) * g.StreamSpan
	}
	g.tLoad = rng.Threshold(g.PLoad)
	g.tLoadStore = rng.Threshold(g.PLoadStore)
	if g.PALU > 0 {
		g.tSIMD = rng.ScaledThreshold(g.PALU, g.PSIMD)
		g.tSIMDFP = rng.ScaledThreshold(g.PALU, g.PSIMDFP)
	}
	g.tHotCode = rng.Threshold(spec.HotCodeFrac)
	g.tEnterKernel = rng.Threshold(g.EnterKernel)
	g.tStride = rng.Threshold(spec.StrideFrac)
	g.tHot = rng.Threshold(spec.StrideFrac + spec.HotFrac)
	g.tMid = rng.Threshold(spec.StrideFrac + spec.HotFrac + spec.MidFrac)
	g.tWarm = rng.Threshold(spec.StrideFrac + spec.HotFrac + spec.MidFrac + spec.WarmFrac)

	g.curBlock = g.pickBlock()
	return g, nil
}

// AddrEnd returns a bound above every address a generator for s
// emits and every address priming its regions touches: the data
// footprint above DataBase (the stride streams' spans included), the
// user code, and the kernel's code and data. s must pass Validate.
// The sums saturate, so a bound past 2^64 reads as the largest uint64.
func (s Spec) AddrEnd() uint64 {
	l := NewLayout(s)
	return max(
		satAdd(DataBase, max(s.FootprintBytes, satMul(uint64(l.Streams), l.StreamSpan))),
		satAdd(UserCodeBase, max(s.CodeBytes, satMul(uint64(l.Blocks), l.BlockBytes))),
		satAdd(KernelCodeBase, max(KernelCodeBytes, satMul(uint64(l.KernelBlocks), l.BlockBytes))),
		KernelDataBase+KernelDataBytes,
	)
}

// satAdd and satMul are a+b and a·b, or math.MaxUint64 if that
// overflows.
func satAdd(a, b uint64) uint64 {
	if sum, carry := bits.Add64(a, b, 0); carry == 0 {
		return sum
	}
	return math.MaxUint64
}

func satMul(a, b uint64) uint64 {
	if hi, lo := bits.Mul64(a, b); hi == 0 {
		return lo
	}
	return math.MaxUint64
}

// correlatedRun returns how many of a table's hotCount leading and
// trailing blocks hold correlated branches, for a pattern fraction P.
// Correlated branches occupy a contiguous run of blocks (a loop nest)
// that wraps the cycle boundary: the run's tail executes just before
// the phase flips and its head just after, so every correlated branch
// — including the first ones of a new phase — sees phase-valued bits
// in its recent history. That stable context is exactly what a gshare
// predictor needs to learn the phase; a bimodal counter sees only the
// alternation.
func correlatedRun(hotCount int, P float64) (head, tail int) {
	nCorr := int(P * float64(hotCount))
	tail = min(nCorr/2, 12)
	return nCorr - tail, tail
}

// seedDraws returns the draws seedBranches takes to seed a table of
// hotCount blocks: two for each block that is not correlated.
func seedDraws(hotCount int, P float64) uint64 {
	head, tail := correlatedRun(hotCount, P)
	return 2 * uint64(hotCount-head-tail)
}

// kernelBranches returns the kernel code's branch table, seeding it on
// first use exactly as NewGenerator would have seeded it up front.
func (g *Generator) kernelBranches() []branchState {
	if g.kbranches == nil {
		g.kbranches = make([]branchState, g.KernelBlocks)
		r := g.kseed
		seedBranches(g.kbranches, g.spec, g.EasyTaken, &r)
	}
	return g.kbranches
}

// seedBranches assigns behaviour to the hot blocks' branches bs from
// the hard/correlated/easy mixture, an easy branch leaning taken with
// probability q (Layout.EasyTaken). Branches of colder blocks are
// uniformly strongly-taken (coldBranch), so their (rarely trained,
// heavily aliased) predictor entries still agree — matching real
// programs, whose cold paths remain predictable.
func seedBranches(bs []branchState, spec Spec, q float64, r *rng.Rand) {
	hotCount := len(bs)
	e := spec.BranchEntropy
	head, tail := correlatedRun(hotCount, spec.PatternFrac)
	for i := range bs {
		b := &bs[i]
		if i < head || i >= hotCount-tail {
			b.kind = corrBranch
			continue
		}
		switch {
		case r.Bool(e):
			b.kind = hardBranch
			b.taken = rng.Threshold(0.35 + float64(float64(r.Float64())*0.3))
		default:
			b.kind = easyBranch
			if r.Bool(q) {
				b.taken = tStrong
			} else {
				b.taken = tWeak
			}
		}
	}
}

// Spec returns the specification the generator was built from.
func (g *Generator) Spec() Spec { return g.spec }

// pickBlock selects the next basic block to execute. Hot-loop blocks
// execute cyclically (sequential control flow, so history-based
// predictors observe structured context and the fetch stream is
// spatially local); cold-code excursions jump to a uniformly random
// block, modelling rarely-exercised paths.
func (g *Generator) pickBlock() int {
	if g.inKernel {
		return g.rBlock.Intn(g.KernelBlocks)
	}
	if g.rBlock.Below(g.tHotCode) {
		g.curHot++
		if g.curHot >= g.HotBlocks {
			g.curHot = 0
			g.phase = !g.phase // next loop iteration: flip the sweep phase
		}
		return g.curHot
	}
	if g.rBlock.Below(tWarmCode) {
		return g.rBlock.Intn(g.WarmBlocks)
	}
	return g.rBlock.Intn(g.Blocks)
}

// Next fills ev with the next dynamic instruction.
func (g *Generator) Next(ev *Event) {
	// Kernel episodes: enter with probability such that the long-run
	// kernel fraction matches KernelFrac; each episode runs a burst of
	// blocks, modelling syscall service routines.
	if g.blockPos == 0 {
		if g.inKernel {
			g.kernBudget--
			if g.kernBudget <= 0 {
				g.inKernel = false
			}
		} else if g.spec.KernelFrac > 0 {
			if g.rKernel.Below(g.tEnterKernel) {
				g.inKernel = true
				g.kernBudget = KernelBurst
			}
		}
		g.curBlock = g.pickBlock()
	}

	base := UserCodeBase
	if g.inKernel {
		base = KernelCodeBase
	}
	pc := base + uint64(g.curBlock*g.BlockLen+g.blockPos)*InstrBytes
	ev.PC = pc
	ev.Kernel = g.inKernel
	ev.Addr = 0
	ev.Taken = false

	if g.blockPos == g.BlockLen-1 {
		// Block-terminating conditional branch.
		ev.Kind = CondBranch
		ev.Taken = g.outcome(g.branch(g.inKernel, g.curBlock))
		g.blockPos = 0
		return
	}
	g.blockPos++

	// Non-branch slot: loads, stores, and ALU ops in their renormalized
	// proportions (thresholds precomputed at construction).
	x := g.rMix.Uint64() >> 11
	switch {
	case x < g.tLoad:
		ev.Kind = Load
		ev.Addr = g.dataAddr()
	case x < g.tLoadStore:
		ev.Kind = Store
		ev.Addr = g.dataAddr()
	default:
		// ALU flavour by FP/SIMD fractions renormalized over ALU slots.
		if g.PALU <= 0 {
			ev.Kind = IntOp
			return
		}
		y := g.rMix.Uint64() >> 11
		switch {
		case y < g.tSIMD:
			ev.Kind = SIMDOp
		case y < g.tSIMDFP:
			ev.Kind = FPOp
		default:
			ev.Kind = IntOp
		}
	}
}

// FillBatch fills the caller-owned slab evs with the next len(evs)
// dynamic instructions — the arena API of the batched simulation
// kernel. The generator advances exactly as len(evs) Next calls would:
// every RNG stream draws in the same order, so a trace consumed
// through any mix of FillBatch and Next calls is bit-identical to one
// consumed event by event (TestFillBatchMatchesNext pins this).
//
// The body is Next unrolled across the slab with the per-event state
// (block position, thresholds, RNG handle) held in locals; only the
// once-per-block prologue touches the Generator's fields.
func (g *Generator) FillBatch(evs []Event) {
	var (
		blockLen          = g.BlockLen
		tLoad             = g.tLoad
		tLoadStore        = g.tLoadStore
		pALU              = g.PALU
		tSIMD             = g.tSIMD
		tSIMDFP           = g.tSIMDFP
		kernelFrac        = g.spec.KernelFrac
		rMix              = &g.rMix
		pos               = g.blockPos
		curBlock          = g.curBlock
		inKernel          = g.inKernel
		base       uint64 = UserCodeBase
	)
	if inKernel {
		base = KernelCodeBase
	}
	for i := range evs {
		ev := &evs[i]
		if pos == 0 {
			if inKernel {
				g.kernBudget--
				if g.kernBudget <= 0 {
					inKernel = false
					g.inKernel = false
				}
			} else if kernelFrac > 0 {
				if g.rKernel.Below(g.tEnterKernel) {
					inKernel = true
					g.inKernel = true
					g.kernBudget = KernelBurst
				}
			}
			curBlock = g.pickBlock()
			if inKernel {
				base = KernelCodeBase
			} else {
				base = UserCodeBase
			}
		}

		ev.PC = base + uint64(curBlock*blockLen+pos)*InstrBytes
		ev.Kernel = inKernel
		ev.Addr = 0
		ev.Taken = false

		if pos == blockLen-1 {
			ev.Kind = CondBranch
			ev.Taken = g.outcome(g.branch(inKernel, curBlock))
			pos = 0
			continue
		}
		pos++

		x := rMix.Uint64() >> 11
		switch {
		case x < tLoad:
			ev.Kind = Load
			ev.Addr = g.dataAddr()
		case x < tLoadStore:
			ev.Kind = Store
			ev.Addr = g.dataAddr()
		default:
			if pALU <= 0 {
				ev.Kind = IntOp
				continue
			}
			y := rMix.Uint64() >> 11
			switch {
			case y < tSIMD:
				ev.Kind = SIMDOp
			case y < tSIMDFP:
				ev.Kind = FPOp
			default:
				ev.Kind = IntOp
			}
		}
	}
	g.blockPos = pos
	g.curBlock = curBlock
}

// branch returns the behaviour of the branch ending block.
func (g *Generator) branch(inKernel bool, block int) *branchState {
	if inKernel {
		return &g.kernelBranches()[block]
	}
	if block < len(g.branches) {
		return &g.branches[block]
	}
	return &coldBranch
}

// outcome produces one branch's next direction and updates the global
// outcome history the correlated branches read.
func (g *Generator) outcome(b *branchState) bool {
	var taken bool
	switch b.kind {
	case corrBranch:
		taken = g.phase
		if g.rBranch.Below(tWeak) {
			taken = !taken
		}
	default:
		taken = g.rBranch.Below(b.taken)
	}
	return taken
}

// dataAddr produces the next load/store effective address.
func (g *Generator) dataAddr() uint64 {
	spec := &g.spec
	if g.inKernel {
		// Kernel data: mostly hot kernel structures, with a colder
		// tail over the wider kernel region.
		if g.rData.Below(tKernelHot) {
			return KernelDataBase + g.rData.Uint64n(KernelHotDataBytes)&^7
		}
		return KernelDataBase + g.rData.Uint64n(KernelDataBytes)&^7
	}
	x := g.rData.Uint64() >> 11
	switch {
	case x < g.tStride:
		i := g.rData.Intn(len(g.streams))
		g.streams[i] += StrideStep
		if g.streams[i] >= uint64(i+1)*g.StreamSpan {
			g.streams[i] = uint64(i) * g.StreamSpan
		}
		return DataBase + g.streams[i]
	case x < g.tHot:
		return DataBase + g.rData.Uint64n(spec.HotBytes)&^7
	case x < g.tMid:
		return DataBase + g.rData.Uint64n(spec.MidBytes)&^7
	case x < g.tWarm:
		return DataBase + g.rData.Uint64n(spec.WarmBytes)&^7
	default:
		return DataBase + g.rData.Uint64n(spec.FootprintBytes)&^7
	}
}
