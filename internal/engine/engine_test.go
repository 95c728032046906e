package engine

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/workloads"
)

func TestParseTier(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Tier
		ok   bool
	}{
		{"exact", TierExact, true},
		{"analytic", TierAnalytic, true},
		{"auto", TierAuto, true},
		{"", "", false},
		{"EXACT", "", false},
		{"Analytic", "", false},
		{"fast", "", false},
		{"exact ", "", false},
	} {
		got, err := ParseTier(tc.in)
		if tc.ok {
			if err != nil || got != tc.want {
				t.Errorf("ParseTier(%q) = %v, %v; want %v, nil", tc.in, got, err, tc.want)
			}
			continue
		}
		if err == nil {
			t.Errorf("ParseTier(%q) = %v, nil; want error", tc.in, got)
			continue
		}
		// The error must name the allowed set: it is surfaced verbatim
		// as the server's 400 body.
		if !strings.Contains(err.Error(), "valid: exact, analytic, auto") {
			t.Errorf("ParseTier(%q) error %q does not list the valid tiers", tc.in, err)
		}
	}
}

func TestNew(t *testing.T) {
	if e, err := New(TierExact); err != nil || e.Tier() != TierExact {
		t.Errorf("New(exact) = %v, %v", e, err)
	}
	if e, err := New(TierAnalytic); err != nil || e.Tier() != TierAnalytic {
		t.Errorf("New(analytic) = %v, %v", e, err)
	}
	// Auto is a serving policy, not an engine: the caller must resolve
	// it to a concrete tier before coming here.
	if e, err := New(TierAuto); err == nil {
		t.Errorf("New(auto) = %v, nil; want error", e)
	}
	if e, err := New(Tier("nope")); err == nil {
		t.Errorf("New(nope) = %v, nil; want error", e)
	}
}

// TestExactMatchesRun pins the exact engine to the historical
// measurement path: Exact.Measure must be bit-identical to machine.Run,
// so switching the serving layer onto the engine interface changed
// nothing about what "exact" means.
func TestExactMatchesRun(t *testing.T) {
	fleet, err := machine.Fleet()
	if err != nil {
		t.Fatal(err)
	}
	opts := machine.RunOptions{Instructions: 20_000}
	w := workloads.All()[0].Workload()
	for _, m := range fleet[:2] {
		want, err := m.Run(w, opts)
		if err != nil {
			t.Fatalf("Run(%s): %v", m.Name(), err)
		}
		got, err := Exact{}.Measure(context.Background(), m, w, opts)
		if err != nil {
			t.Fatalf("Exact.Measure(%s): %v", m.Name(), err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Exact.Measure differs from machine.Run:\n got %+v\nwant %+v", m.Name(), got, want)
		}
	}
}

// TestAnalyticRejectsNaN: the analytic tier rejects a NaN or infinite
// ILP or a NaN spec fraction, as the exact tier does, instead of
// estimating from it.
func TestAnalyticRejectsNaN(t *testing.T) {
	fleet, err := machine.Fleet()
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(*machine.Workload){
		"NaN ILP":      func(w *machine.Workload) { w.ILP = math.NaN() },
		"+Inf ILP":     func(w *machine.Workload) { w.ILP = math.Inf(1) },
		"NaN LoadFrac": func(w *machine.Workload) { w.Spec.LoadFrac = math.NaN() },
	} {
		w := workloads.All()[0].Workload()
		mutate(&w)
		if _, err := (Analytic{}).Measure(context.Background(), fleet[0], w, crossvalOpts); err == nil {
			t.Errorf("Analytic.Measure with %s: no error", name)
		}
	}
}

// TestAnalyticDeterministic: the estimator is a pure function of
// (machine, workload, options) — repeated calls must agree exactly,
// because store keys and result caches assume it.
func TestAnalyticDeterministic(t *testing.T) {
	fleet, err := machine.Fleet()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, p := range workloads.All()[:4] {
		w := p.Workload()
		for _, m := range fleet {
			a, err := Analytic{}.Measure(ctx, m, w, crossvalOpts)
			if err != nil {
				t.Fatalf("Analytic.Measure(%s, %s): %v", m.Name(), w.Key, err)
			}
			b, err := Analytic{}.Measure(ctx, m, w, crossvalOpts)
			if err != nil {
				t.Fatalf("Analytic.Measure(%s, %s) repeat: %v", m.Name(), w.Key, err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s on %s: repeated analytic measurements differ", w.Key, m.Name())
			}
		}
	}
}

// TestAnalyticShape sanity-checks the estimator's output against the
// invariants every RawCounts consumer assumes: the instruction budget
// is honoured, the mix decomposes, and cycles/CPI are consistent.
func TestAnalyticShape(t *testing.T) {
	fleet, err := machine.Fleet()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, p := range workloads.All() {
		w := p.Workload()
		for _, m := range fleet {
			rc, err := Analytic{}.Measure(ctx, m, w, crossvalOpts)
			if err != nil {
				t.Fatalf("Analytic.Measure(%s, %s): %v", m.Name(), w.Key, err)
			}
			n := rc.Instructions
			if n == 0 {
				t.Fatalf("%s on %s: zero instructions", w.Key, m.Name())
			}
			if rc.Cycles == 0 || rc.CPI <= 0 {
				t.Errorf("%s on %s: cycles %d CPI %v", w.Key, m.Name(), rc.Cycles, rc.CPI)
			}
			for name, v := range map[string]uint64{
				"loads": rc.Loads, "stores": rc.Stores, "branches": rc.Branches,
				"kernel": rc.KernelInstrs,
			} {
				if v > n {
					t.Errorf("%s on %s: %s (%d) exceeds instructions (%d)", w.Key, m.Name(), name, v, n)
				}
			}
			if rc.TakenBranches > rc.Branches {
				t.Errorf("%s on %s: taken (%d) exceeds branches (%d)", w.Key, m.Name(), rc.TakenBranches, rc.Branches)
			}
			if rc.Mispredicts > rc.Branches {
				t.Errorf("%s on %s: mispredicts (%d) exceed branches (%d)", w.Key, m.Name(), rc.Mispredicts, rc.Branches)
			}
			c := rc.Cache
			for name, lvl := range map[string][2]uint64{
				"L1I": {c.L1IMisses, c.L1IAccesses},
				"L1D": {c.L1DMisses, c.L1DAccesses},
				"L2I": {c.L2IMisses, c.L2IAccesses},
				"L2D": {c.L2DMisses, c.L2DAccesses},
				"L3":  {c.L3Misses, c.L3Accesses},
			} {
				if lvl[0] > lvl[1] {
					t.Errorf("%s on %s: %s misses (%d) exceed accesses (%d)", w.Key, m.Name(), name, lvl[0], lvl[1])
				}
			}
			if m.Config().HasRAPL && rc.Power.Core <= 0 {
				t.Errorf("%s on %s: RAPL machine reported core power %v", w.Key, m.Name(), rc.Power.Core)
			}
		}
	}
}
