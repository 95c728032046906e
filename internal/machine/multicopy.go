package machine

import (
	"fmt"

	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/tlb"
	"repro/internal/trace"
)

// MultiCounts is the result of a multi-copy (SPECrate-style) run:
// n identical copies of one benchmark share the last-level cache and
// memory while keeping private L1/L2 caches, TLBs, and predictors —
// the paper measures single copies (Section IV-D) and this extension
// models the contention the real SPECrate harness creates.
type MultiCounts struct {
	// Copies is the number of concurrent instances.
	Copies int
	// PerCopy holds each copy's raw counts.
	PerCopy []*RawCounts
	// Throughput is the aggregate instructions per cycle
	// (sum over copies of 1/CPI_i).
	Throughput float64
}

// ScalingEfficiency returns the throughput relative to perfect linear
// scaling from the given single-copy throughput: 1 means no
// interference, lower values mean shared-resource contention.
func (mc *MultiCounts) ScalingEfficiency(singleThroughput float64) float64 {
	if singleThroughput <= 0 || mc.Copies == 0 {
		return 0
	}
	return mc.Throughput / (singleThroughput * float64(mc.Copies))
}

// copyStride separates the copies' data address spaces: each copy's
// data lives in its own 64 GiB window, as separate rate processes do.
// Code is shared (the OS maps one text segment for all copies).
const copyStride uint64 = 1 << 36

// RunMulti measures copies concurrent instances of the workload,
// interleaved instruction by instruction, with a shared L3. With
// copies == 1 it degenerates to Run up to trace-seed differences.
func (m *Machine) RunMulti(w Workload, copies int, opts RunOptions) (*MultiCounts, error) {
	if copies < 1 {
		return nil, fmt.Errorf("machine: copies %d", copies)
	}
	if err := w.CheckILP(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	spec := m.adjustSpec(w)
	if err := m.checkAddrs(w, spec, copies); err != nil {
		return nil, err
	}

	// Shared L3 (when the machine has one); private L1/L2 per copy.
	var sharedL3 *cache.Cache
	if m.cfg.Caches.L3 != nil {
		var err error
		sharedL3, err = cache.New(*m.cfg.Caches.L3)
		if err != nil {
			return nil, err
		}
	}

	counts := make([]RawCounts, copies)
	streams := make([]*simStream, copies)
	for i := range streams {
		gen, err := trace.NewGenerator(spec, fmt.Sprintf("%s#copy%d@%s", w.Key, i, m.cfg.Name))
		if err != nil {
			return nil, err
		}
		privCfg := m.cfg.Caches
		privCfg.L3 = nil // the private hierarchy stops at L2
		caches, err := cache.NewHierarchy(privCfg)
		if err != nil {
			return nil, err
		}
		caches.L3 = sharedL3 // re-attach the shared LLC
		tlbs, err := tlb.NewHierarchy(m.cfg.TLBs)
		if err != nil {
			return nil, err
		}
		pred, err := branch.New(m.cfg.Predictor)
		if err != nil {
			return nil, err
		}
		streams[i] = newSimStream(gen, caches, tlbs, pred, &counts[i], uint64(i)*copyStride, make([]trace.Event, simSlabSize))
		primeOffset(caches, tlbs, spec, streams[i].offset)
	}

	// Round-robin interleaving through the shared kernel: warmup, then
	// measurement.
	runInterleaved(streams, opts.WarmupInstructions, false)
	for _, st := range streams {
		st.resetStats()
	}
	if sharedL3 != nil {
		sharedL3.ResetStats()
	}
	runInterleaved(streams, opts.Instructions, true)

	out := &MultiCounts{Copies: copies}
	for _, st := range streams {
		if err := st.finalize(m.cfg.IssueWidth, w.ILP, m.cfg.Penalties); err != nil {
			return nil, err
		}
		out.PerCopy = append(out.PerCopy, st.rc)
		out.Throughput += 1 / st.rc.CPI
	}
	return out, nil
}
