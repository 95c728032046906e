package trace_test

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// TestLazyKernelTableMatchesEager: for every registry workload, as
// each fleet machine adjusts it, a generator that seeds its kernel
// branch table on the first kernel block emits the same trace as one
// that seeds it up front. The workloads that enter the kernel must
// seed it, and the others never do.
func TestLazyKernelTableMatchesEager(t *testing.T) {
	const events = 20_000
	fleet, err := machine.Fleet()
	if err != nil {
		t.Fatal(err)
	}
	lazy := make([]trace.Event, events)
	eager := make([]trace.Event, events)
	kernelWorkloads := 0
	for _, p := range workloads.All() {
		w := p.Workload()
		if w.Spec.KernelFrac > 0 {
			kernelWorkloads++
		}
		for _, m := range fleet {
			spec, key := m.AdjustedSpec(w), w.Key+"@"+m.Name()
			g, err := trace.NewGenerator(spec, key)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := trace.NewEagerGenerator(spec, key)
			if err != nil {
				t.Fatal(err)
			}
			g.FillBatch(lazy)
			ref.FillBatch(eager)
			kernel := false
			for i := range lazy {
				if lazy[i] != eager[i] {
					t.Fatalf("%s on %s: event %d = %+v, eager table gives %+v", p.Name, m.Name(), i, lazy[i], eager[i])
				}
				kernel = kernel || lazy[i].Kernel
			}
			if g.KernelSeeded() != kernel {
				t.Errorf("%s on %s: kernel table seeded %v, kernel events %v", p.Name, m.Name(), g.KernelSeeded(), kernel)
			}
			if kernel != (spec.KernelFrac > 0) {
				t.Errorf("%s on %s: KernelFrac %v but kernel events %v in %d", p.Name, m.Name(), spec.KernelFrac, kernel, events)
			}
		}
	}
	if kernelWorkloads == 0 {
		t.Fatal("no registry workload enters the kernel")
	}
	t.Logf("%d registry workloads, %d with KernelFrac > 0", len(workloads.All()), kernelWorkloads)
}
