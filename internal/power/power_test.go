package power

import (
	"math"
	"testing"
)

func baseActivity() Activity {
	return Activity{
		Instructions: 1_000_000,
		Cycles:       1_000_000,
		FPOps:        0,
		SIMDOps:      0,
		LLCAccesses:  10_000,
		MemAccesses:  1_000,
	}
}

func TestValidate(t *testing.T) {
	if err := DefaultModel().Validate(); err != nil {
		t.Fatalf("default model invalid: %v", err)
	}
	m := DefaultModel()
	m.DRAMPerMPC = -1
	if err := m.Validate(); err == nil {
		t.Fatal("negative coefficient must be rejected")
	}
}

func TestEstimateZeroCycles(t *testing.T) {
	if _, err := DefaultModel().Estimate(Activity{}); err == nil {
		t.Fatal("zero cycles must error")
	}
}

func TestEstimateInvalidModel(t *testing.T) {
	m := DefaultModel()
	m.CoreStatic = -5
	if _, err := m.Estimate(baseActivity()); err == nil {
		t.Fatal("invalid model must error")
	}
}

func TestHigherIPCMoreCorePower(t *testing.T) {
	m := DefaultModel()
	slow := baseActivity()
	slow.Cycles = 4_000_000 // IPC 0.25
	fast := baseActivity()  // IPC 1.0
	bs, err := m.Estimate(slow)
	if err != nil {
		t.Fatal(err)
	}
	bf, err := m.Estimate(fast)
	if err != nil {
		t.Fatal(err)
	}
	if bf.Core <= bs.Core {
		t.Fatalf("higher IPC should draw more core power: %v vs %v", bf.Core, bs.Core)
	}
}

func TestFPAndSIMDRaiseCorePower(t *testing.T) {
	m := DefaultModel()
	intOnly := baseActivity()
	fp := baseActivity()
	fp.FPOps = 300_000
	simd := baseActivity()
	simd.SIMDOps = 300_000
	bi, _ := m.Estimate(intOnly)
	bf, _ := m.Estimate(fp)
	bv, _ := m.Estimate(simd)
	if bf.Core <= bi.Core {
		t.Fatal("FP work should raise core power")
	}
	if bv.Core <= bf.Core {
		t.Fatal("SIMD should cost more than scalar FP")
	}
}

func TestMemoryTrafficRaisesDRAMPower(t *testing.T) {
	m := DefaultModel()
	quiet := baseActivity()
	noisy := baseActivity()
	noisy.MemAccesses = 100_000
	bq, _ := m.Estimate(quiet)
	bn, _ := m.Estimate(noisy)
	if bn.DRAM <= bq.DRAM {
		t.Fatal("memory traffic should raise DRAM power")
	}
	if bn.Core != bq.Core {
		t.Fatal("memory traffic alone should not change core power")
	}
}

func TestLLCTrafficRaisesLLCPower(t *testing.T) {
	m := DefaultModel()
	quiet := baseActivity()
	busy := baseActivity()
	busy.LLCAccesses = 500_000
	bq, _ := m.Estimate(quiet)
	bb, _ := m.Estimate(busy)
	if bb.LLC <= bq.LLC {
		t.Fatal("LLC traffic should raise LLC power")
	}
}

func TestTotalIsSum(t *testing.T) {
	b := Breakdown{Core: 30, LLC: 4, DRAM: 6}
	if math.Abs(b.Total()-40) > 1e-12 {
		t.Fatalf("Total = %v, want 40", b.Total())
	}
}

func TestStaticFloor(t *testing.T) {
	m := DefaultModel()
	idle := Activity{Instructions: 1, Cycles: 1_000_000_000}
	b, err := m.Estimate(idle)
	if err != nil {
		t.Fatal(err)
	}
	if b.Core < m.CoreStatic || b.LLC < m.LLCStatic || b.DRAM < m.DRAMStatic {
		t.Fatalf("power must not fall below static floor: %+v", b)
	}
}

// TestValidateRejectsNaN: a NaN or infinite coefficient is rejected
// like a negative one.
func TestValidateRejectsNaN(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		m := DefaultModel()
		m.LLCPerAPC = bad
		if err := m.Validate(); err == nil {
			t.Fatalf("%v coefficient must be rejected", bad)
		}
	}
}

// TestValidateFirstInFieldOrder: of several bad coefficients, Validate
// names the first in field order, with the same text on every call.
func TestValidateFirstInFieldOrder(t *testing.T) {
	m := DefaultModel()
	m.FPWeight, m.SIMDWeight, m.LLCStatic, m.LLCPerAPC = -1, -1, -1, -1
	m.DRAMStatic, m.DRAMPerMPC = -1, -1
	const want = "power: coefficient FPWeight = -1 must be >= 0"
	for call := 0; call < 64; call++ {
		if err := m.Validate(); err == nil || err.Error() != want {
			t.Fatalf("call %d: Validate() = %v, want %q", call, err, want)
		}
	}
}
