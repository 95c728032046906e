package machine

import (
	"testing"

	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/tlb"
	"repro/internal/trace"
)

// buildStream assembles the simStream Run would use for (m, w), with a
// caller-chosen slab size.
func buildStream(t *testing.T, m *Machine, w Workload, slabSize int) *simStream {
	t.Helper()
	spec := m.adjustSpec(w)
	gen, err := trace.NewGenerator(spec, w.Key+"@"+m.cfg.Name)
	if err != nil {
		t.Fatal(err)
	}
	caches, err := cache.NewHierarchy(m.cfg.Caches)
	if err != nil {
		t.Fatal(err)
	}
	tlbs, err := tlb.NewHierarchy(m.cfg.TLBs)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := branch.New(m.cfg.Predictor)
	if err != nil {
		t.Fatal(err)
	}
	st := newSimStream(gen, caches, tlbs, pred, &RawCounts{}, 0, make([]trace.Event, slabSize))
	prime(caches, tlbs, spec)
	return st
}

// TestBatchedMatchesSequential runs one (machine × workload) leaf
// through the generator's Next API one event at a time, and through the
// batched kernel at several slab sizes (1, 7, 313 and 4096 — none of
// which divide the instruction counts), asserting identical RawCounts.
// Machines with and without an L3 cover both miss-routing tables.
func TestBatchedMatchesSequential(t *testing.T) {
	fleet, err := Fleet()
	if err != nil {
		t.Fatal(err)
	}
	opts := quickOpts()
	w := testWorkload()

	for _, m := range fleet {
		if name := m.Name(); name != SparcT4 && name != Harpertown {
			continue
		}
		// Reference: the same kernel fed one event at a time via Next.
		ref := buildStream(t, m, w, 1)
		var ev trace.Event
		for i := 0; i < opts.WarmupInstructions; i++ {
			ref.gen.Next(&ev)
			ref.warmupEvent(&ev)
		}
		ref.resetStats()
		for i := 0; i < opts.Instructions; i++ {
			ref.gen.Next(&ev)
			ref.measureEvent(&ev)
		}
		if err := ref.finalize(m.cfg.IssueWidth, w.ILP, m.cfg.Penalties); err != nil {
			t.Fatal(err)
		}

		for _, slabSize := range []int{1, 7, 313, 4096} {
			st := buildStream(t, m, w, slabSize)
			st.warmup(opts.WarmupInstructions)
			st.resetStats()
			st.measure(opts.Instructions)
			if err := st.finalize(m.cfg.IssueWidth, w.ILP, m.cfg.Penalties); err != nil {
				t.Fatal(err)
			}
			if *st.rc != *ref.rc {
				t.Errorf("%s: slab size %d diverged from sequential reference:\n got %+v\nwant %+v",
					m.Name(), slabSize, *st.rc, *ref.rc)
			}
		}

		// And the public entry point (default slab) agrees too.
		got, err := m.Run(w, opts)
		if err != nil {
			t.Fatal(err)
		}
		if *got != *ref.rc {
			t.Errorf("%s: Run diverged from sequential reference:\n got %+v\nwant %+v",
				m.Name(), *got, *ref.rc)
		}
	}
}
