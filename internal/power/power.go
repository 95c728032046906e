// Package power implements an activity-based energy model that stands
// in for the RAPL counters the paper reads on its three Intel machines
// (Skylake, Ivybridge, Broadwell). It reports average core, LLC
// (uncore), and DRAM power from the event counts produced by the
// simulation substrate, reproducing the power spectrum of Figure 12.
package power

import (
	"fmt"
	"math"
)

// Model holds a machine's power coefficients. Units are watts for
// static terms and watts per unit activity for dynamic terms; activity
// rates are per-cycle, derived from the counts below.
type Model struct {
	// CoreStatic is idle core power; CorePerIPC scales with retirement
	// throughput; FPWeight and SIMDWeight add the extra switching cost
	// of floating-point and vector units relative to integer work.
	CoreStatic, CorePerIPC, FPWeight, SIMDWeight float64
	// LLCStatic and LLCPerAPC (accesses per cycle into L2/L3) model
	// the uncore.
	LLCStatic, LLCPerAPC float64
	// DRAMStatic and DRAMPerMPC (memory accesses per cycle) model
	// DIMM power.
	DRAMStatic, DRAMPerMPC float64
}

// Validate rejects negative, NaN and infinite coefficients: of several,
// the first in field order.
func (m Model) Validate() error {
	for _, c := range [...]struct {
		name string
		v    float64
	}{
		{"CoreStatic", m.CoreStatic}, {"CorePerIPC", m.CorePerIPC},
		{"FPWeight", m.FPWeight}, {"SIMDWeight", m.SIMDWeight},
		{"LLCStatic", m.LLCStatic}, {"LLCPerAPC", m.LLCPerAPC},
		{"DRAMStatic", m.DRAMStatic}, {"DRAMPerMPC", m.DRAMPerMPC},
	} {
		if !(c.v >= 0) {
			return fmt.Errorf("power: coefficient %s = %v must be >= 0", c.name, c.v)
		}
		if math.IsInf(c.v, 1) {
			return fmt.Errorf("power: coefficient %s = %v must be finite", c.name, c.v)
		}
	}
	return nil
}

// DefaultModel returns coefficients calibrated to a desktop-class
// part: tens of watts of core power, a few watts of uncore, and
// DRAM power that grows steeply with memory traffic.
func DefaultModel() Model {
	return Model{
		CoreStatic: 8, CorePerIPC: 12, FPWeight: 6, SIMDWeight: 14,
		LLCStatic: 2, LLCPerAPC: 40,
		DRAMStatic: 1.5, DRAMPerMPC: 300,
	}
}

// Activity summarizes a measured run for the power model.
type Activity struct {
	Instructions uint64
	Cycles       uint64
	FPOps        uint64
	SIMDOps      uint64
	// LLCAccesses counts L2+L3 lookups; MemAccesses counts requests
	// that reached DRAM.
	LLCAccesses uint64
	MemAccesses uint64
}

// Breakdown is the average power during the run, in watts.
type Breakdown struct {
	Core, LLC, DRAM float64
}

// Total returns package + DRAM power.
func (b Breakdown) Total() float64 { return b.Core + b.LLC + b.DRAM }

// Estimate computes the power breakdown for a run.
func (m Model) Estimate(a Activity) (Breakdown, error) {
	if err := m.Validate(); err != nil {
		return Breakdown{}, err
	}
	if a.Cycles == 0 {
		return Breakdown{}, fmt.Errorf("power: zero cycles")
	}
	cyc := float64(a.Cycles)
	ipc := float64(a.Instructions) / cyc
	fpFrac := 0.0
	simdFrac := 0.0
	if a.Instructions > 0 {
		fpFrac = float64(a.FPOps) / float64(a.Instructions)
		simdFrac = float64(a.SIMDOps) / float64(a.Instructions)
	}
	return Breakdown{
		Core: m.CoreStatic + float64(m.CorePerIPC*ipc*(1+float64(m.FPWeight*fpFrac)+float64(m.SIMDWeight*simdFrac))),
		LLC:  m.LLCStatic + m.LLCPerAPC*float64(a.LLCAccesses)/cyc,
		DRAM: m.DRAMStatic + m.DRAMPerMPC*float64(a.MemAccesses)/cyc,
	}, nil
}
