package cpistack

import (
	"math"
	"testing"
)

func okPenalties() Penalties {
	return Penalties{
		MispredictPenalty: 15,
		L2HitLatency:      10, L3HitLatency: 30, MemLatency: 200,
		PageWalkLatency: 50,
		MLP:             2,
	}
}

func TestPenaltiesValidate(t *testing.T) {
	if err := okPenalties().Validate(); err != nil {
		t.Fatalf("valid penalties rejected: %v", err)
	}
	p := okPenalties()
	p.MLP = 0.5
	if err := p.Validate(); err == nil {
		t.Fatal("MLP < 1 should be invalid")
	}
	p = okPenalties()
	p.MemLatency = -1
	if err := p.Validate(); err == nil {
		t.Fatal("negative latency should be invalid")
	}
	// Of several negative latencies, the first in field order, on
	// every call.
	p = okPenalties()
	p.L2HitLatency, p.L3HitLatency, p.MemLatency, p.PageWalkLatency = -1, -1, -1, -1
	const want = "cpistack: L2HitLatency -1 must be >= 0"
	for call := 0; call < 64; call++ {
		if err := p.Validate(); err == nil || err.Error() != want {
			t.Fatalf("call %d: Validate() = %v, want %q", call, err, want)
		}
	}
}

func TestComputeIdealWorkload(t *testing.T) {
	in := Inputs{Instructions: 1000, BaseCPI: 0.25, IdealCPI: 0.25}
	s, err := Compute(in, okPenalties())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Total()-0.25) > 1e-12 {
		t.Fatalf("ideal workload CPI %v, want 0.25", s.Total())
	}
	if s.Deps != 0 || s.FrontEnd != 0 || s.BadSpec != 0 {
		t.Fatalf("ideal workload should have no stalls: %+v", s)
	}
}

func TestComputeDependencyStalls(t *testing.T) {
	in := Inputs{Instructions: 1000, BaseCPI: 1.0, IdealCPI: 0.25}
	s, err := Compute(in, okPenalties())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Deps-0.75) > 1e-12 {
		t.Fatalf("deps = %v, want 0.75", s.Deps)
	}
}

func TestComputeBaseClampedToIdeal(t *testing.T) {
	// BaseCPI below the machine ideal is impossible; it must clamp.
	in := Inputs{Instructions: 1000, BaseCPI: 0.1, IdealCPI: 0.25}
	s, err := Compute(in, okPenalties())
	if err != nil {
		t.Fatal(err)
	}
	if s.Deps != 0 || s.Base != 0.25 {
		t.Fatalf("clamping failed: %+v", s)
	}
}

func TestComputeMispredictCost(t *testing.T) {
	in := Inputs{Instructions: 1000, BaseCPI: 0.5, IdealCPI: 0.5, Mispredicts: 10}
	s, _ := Compute(in, okPenalties())
	want := 10.0 * 15 / 1000
	if math.Abs(s.BadSpec-want) > 1e-12 {
		t.Fatalf("BadSpec = %v, want %v", s.BadSpec, want)
	}
}

func TestComputeMemoryOverlap(t *testing.T) {
	p := okPenalties()
	in := Inputs{Instructions: 1000, BaseCPI: 0.5, IdealCPI: 0.5, L3DMissToMem: 10}
	s1, _ := Compute(in, p)
	p.MLP = 4
	s2, _ := Compute(in, p)
	if math.Abs(s1.Memory-2*s2.Memory) > 1e-12 {
		t.Fatalf("doubling MLP should halve memory stalls: %v vs %v", s1.Memory, s2.Memory)
	}
}

func TestComputeFrontEndNotOverlapped(t *testing.T) {
	p := okPenalties()
	in := Inputs{Instructions: 1000, BaseCPI: 0.5, IdealCPI: 0.5, L1IMissToL2: 100}
	s, _ := Compute(in, p)
	want := 100.0 * 10 / 1000 // full latency, no MLP division
	if math.Abs(s.FrontEnd-want) > 1e-12 {
		t.Fatalf("FrontEnd = %v, want %v", s.FrontEnd, want)
	}
}

func TestComputeTotalIsSum(t *testing.T) {
	in := Inputs{
		Instructions: 5000, BaseCPI: 0.6, IdealCPI: 0.25,
		Mispredicts: 40, L1IMissToL2: 30, L2IMissToL3: 5, L2IMissToMem: 1,
		L1DMissToL2: 200, L2DMissToL3: 50, L3DMissToMem: 20, PageWalks: 8,
	}
	s, err := Compute(in, okPenalties())
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, c := range s.Components() {
		sum += c.Value
	}
	if math.Abs(sum-s.Total()) > 1e-12 {
		t.Fatalf("components sum %v != Total %v", sum, s.Total())
	}
	if s.Total() <= in.BaseCPI {
		t.Fatal("stalls must increase CPI above base")
	}
}

func TestComputeErrors(t *testing.T) {
	if _, err := Compute(Inputs{}, okPenalties()); err == nil {
		t.Fatal("zero instructions should error")
	}
	bad := okPenalties()
	bad.MLP = 0
	if _, err := Compute(Inputs{Instructions: 10, BaseCPI: 1, IdealCPI: 1}, bad); err == nil {
		t.Fatal("invalid penalties should error")
	}
}

func TestMemoryBoundWorkloadDominatedByMemory(t *testing.T) {
	// An mcf-like workload: heavy L3-to-memory misses must dominate.
	in := Inputs{
		Instructions: 100000, BaseCPI: 0.4, IdealCPI: 0.25,
		L1DMissToL2: 5000, L2DMissToL3: 2000, L3DMissToMem: 450, PageWalks: 100,
	}
	s, _ := Compute(in, okPenalties())
	if s.Memory < s.L2 || s.Memory < s.L3 || s.Memory < s.Base {
		t.Fatalf("memory component should dominate: %+v", s)
	}
}

// TestPenaltiesValidateRejectsNaN: a NaN or infinite MLP or latency is
// rejected like a value out of range.
func TestPenaltiesValidateRejectsNaN(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		for name, field := range map[string]func(*Penalties) *float64{
			"MLP":               func(p *Penalties) *float64 { return &p.MLP },
			"MispredictPenalty": func(p *Penalties) *float64 { return &p.MispredictPenalty },
			"PageWalkLatency":   func(p *Penalties) *float64 { return &p.PageWalkLatency },
		} {
			p := okPenalties()
			*field(&p) = bad
			if err := p.Validate(); err == nil {
				t.Errorf("%v %s: no error", bad, name)
			}
		}
	}
}
