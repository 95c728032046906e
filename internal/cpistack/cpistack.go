// Package cpistack implements a top-down (Yasin-style) cycles-per-
// instruction accounting model. Given the event and miss counts
// measured by the cache/TLB/branch simulators plus a machine's latency
// parameters, it decomposes execution time into base issue cycles,
// front-end stalls (I-cache and branch mispredictions), back-end
// memory stalls per cache level, and an "other" component for
// dependency and resource stalls — reproducing the CPI stack of the
// paper's Figure 1 and the CPI column of Table I.
package cpistack

import (
	"fmt"
	"math"
)

// Penalties holds a machine's stall costs, in cycles.
type Penalties struct {
	// MispredictPenalty is the pipeline refill cost of a branch
	// misprediction.
	MispredictPenalty float64
	// L2HitLatency, L3HitLatency, MemLatency are the additional
	// latencies of hits in L2, L3, and memory (beyond L1).
	L2HitLatency, L3HitLatency, MemLatency float64
	// PageWalkLatency is the cost of a TLB miss requiring a walk.
	PageWalkLatency float64
	// MLP is the average memory-level parallelism: concurrent
	// outstanding misses that overlap their latencies. Must be >= 1.
	MLP float64
}

// Validate reports nonsensical parameters, NaN and +Inf among them: of
// several bad latencies, the first in field order.
func (p Penalties) Validate() error {
	if !(p.MLP >= 1) { // NaN fails too
		return fmt.Errorf("cpistack: MLP %v must be >= 1", p.MLP)
	}
	if math.IsInf(p.MLP, 1) {
		return fmt.Errorf("cpistack: MLP %v must be finite", p.MLP)
	}
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{"MispredictPenalty", p.MispredictPenalty},
		{"L2HitLatency", p.L2HitLatency},
		{"L3HitLatency", p.L3HitLatency},
		{"MemLatency", p.MemLatency},
		{"PageWalkLatency", p.PageWalkLatency},
	} {
		if !(f.v >= 0) {
			return fmt.Errorf("cpistack: %s %v must be >= 0", f.name, f.v)
		}
		if math.IsInf(f.v, 1) {
			return fmt.Errorf("cpistack: %s %v must be finite", f.name, f.v)
		}
	}
	return nil
}

// Inputs are the per-run event counts feeding the model.
type Inputs struct {
	Instructions uint64

	// BaseCPI is the ideal steady-state CPI of the workload on this
	// core absent all miss events: max(1/issueWidth, 1/ILP). It
	// captures inter-instruction dependencies ("other" stalls beyond
	// the machine ideal are reported separately).
	BaseCPI float64
	// IdealCPI is 1/issueWidth, the machine's best case.
	IdealCPI float64

	Mispredicts uint64

	// Instruction-side misses that hit in each deeper level.
	L1IMissToL2, L2IMissToL3, L2IMissToMem uint64
	// Data-side misses by service level.
	L1DMissToL2, L2DMissToL3, L3DMissToMem, L3IMissToMem uint64

	PageWalks uint64
}

// Stack is the resulting CPI decomposition. Total = sum of components.
type Stack struct {
	Base     float64 // ideal issue cycles
	Deps     float64 // dependency/resource stalls ("other")
	FrontEnd float64 // I-cache related fetch stalls
	BadSpec  float64 // branch misprediction stalls
	L2       float64 // back-end stalls serviced by L2
	L3       float64 // back-end stalls serviced by L3
	Memory   float64 // back-end stalls serviced by DRAM (incl. page walks)
}

// Total returns the modelled CPI.
func (s Stack) Total() float64 {
	return s.Base + s.Deps + s.FrontEnd + s.BadSpec + s.L2 + s.L3 + s.Memory
}

// Components returns the stack in display order with labels, for
// rendering Figure 1.
func (s Stack) Components() []struct {
	Label string
	Value float64
} {
	return []struct {
		Label string
		Value float64
	}{
		{"base", s.Base},
		{"other", s.Deps},
		{"frontend", s.FrontEnd},
		{"bad-spec", s.BadSpec},
		{"L2", s.L2},
		{"L3", s.L3},
		{"memory", s.Memory},
	}
}

// Compute derives the CPI stack from counts and penalties.
func Compute(in Inputs, p Penalties) (Stack, error) {
	if err := p.Validate(); err != nil {
		return Stack{}, err
	}
	if in.Instructions == 0 {
		return Stack{}, fmt.Errorf("cpistack: zero instructions")
	}
	if in.BaseCPI < in.IdealCPI {
		in.BaseCPI = in.IdealCPI
	}
	n := float64(in.Instructions)
	per := func(events uint64, cost float64) float64 {
		return float64(events) * cost / n
	}

	s := Stack{
		Base: in.IdealCPI,
		Deps: in.BaseCPI - in.IdealCPI,
	}
	// Front-end: instruction fetch misses stall the pipe with little
	// overlap (fetch is serial).
	s.FrontEnd = per(in.L1IMissToL2, p.L2HitLatency) +
		per(in.L2IMissToL3, p.L3HitLatency) +
		per(in.L2IMissToMem+in.L3IMissToMem, p.MemLatency)
	s.BadSpec = per(in.Mispredicts, p.MispredictPenalty)
	// Back-end: data misses overlap by the machine's MLP.
	s.L2 = per(in.L1DMissToL2, p.L2HitLatency) / p.MLP
	s.L3 = per(in.L2DMissToL3, p.L3HitLatency) / p.MLP
	s.Memory = per(in.L3DMissToMem, p.MemLatency)/p.MLP + per(in.PageWalks, p.PageWalkLatency)/p.MLP
	return s, nil
}
