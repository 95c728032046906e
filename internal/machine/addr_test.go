package machine_test

import (
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// maxCopies is the most copies any caller runs: ratescaling's
// registry experiment runs 1, 2, 4 and 8.
const maxCopies = 8

// TestRegistryAddrsFit: every registry workload fits the 32-bit tags
// of every fleet machine's caches and TLBs at every copy count up to
// maxCopies, so no run the reproduction makes is refused. The
// sensitivity fleet is four of these machines.
func TestRegistryAddrsFit(t *testing.T) {
	fleet, err := machine.Fleet()
	if err != nil {
		t.Fatal(err)
	}
	var top uint64
	least := ^uint64(0)
	for _, m := range fleet {
		least = min(least, m.AddrLimit())
		for _, p := range workloads.All() {
			w := p.Workload()
			for copies := 1; copies <= maxCopies; copies++ {
				if err := m.CheckAddrs(w, copies); err != nil {
					t.Fatalf("%s on %s ×%d: %v", p.Name, m.Name(), copies, err)
				}
			}
			top = max(top, m.AdjustedSpec(w).AddrEnd()+(maxCopies-1)*machine.CopyStride)
		}
	}
	t.Logf("highest registry address %#x ×%d copies, least fleet tag bound %#x", top, maxCopies, least)
}

// TestAddrPastBoundRefused: on each fleet machine, a workload whose
// highest address lands exactly on the machine's tag bound passes the
// check, and one byte more is refused by Run and, with copies, by
// RunMulti, with an error and before anything is simulated.
func TestAddrPastBoundRefused(t *testing.T) {
	fleet, err := machine.Fleet()
	if err != nil {
		t.Fatal(err)
	}
	opts := machine.RunOptions{Instructions: 2000, WarmupInstructions: 400}
	for _, m := range fleet {
		w := workloads.All()[0].Workload()
		w.Key = "addr-bound"
		for _, copies := range []int{1, maxCopies} {
			w.Spec.FootprintBytes = m.AddrLimit() - trace.DataBase - uint64(copies-1)*machine.CopyStride
			if end := m.AdjustedSpec(w).AddrEnd(); end+uint64(copies-1)*machine.CopyStride != m.AddrLimit() {
				t.Fatalf("%s: footprint %d ends at %#x, want the bound %#x", m.Name(), w.Spec.FootprintBytes, end, m.AddrLimit())
			}
			if err := m.CheckAddrs(w, copies); err != nil {
				t.Errorf("%s ×%d: a workload ending at the bound refused: %v", m.Name(), copies, err)
			}
			w.Spec.FootprintBytes++
			var err error
			if copies == 1 {
				_, err = m.Run(w, opts)
			} else {
				_, err = m.RunMulti(w, copies, opts)
			}
			if err == nil || !strings.Contains(err.Error(), "tag addresses below") {
				t.Errorf("%s ×%d: a workload one byte past the bound gave %v, want a refusal", m.Name(), copies, err)
			}
		}
		if _, err := m.RunMulti(w, 1<<40, opts); err == nil {
			t.Errorf("%s: 2^40 copies were not refused", m.Name())
		}
	}
}
