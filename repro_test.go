package repro

import (
	"context"
	"math"
	"strings"
	"testing"
)

// The facade tests exercise the public API end to end at reduced
// fidelity; the per-experiment shape assertions live in
// internal/experiments.

func TestPublicProfileDatabase(t *testing.T) {
	if got := len(CPU2017Profiles()); got != 43 {
		t.Fatalf("CPU2017Profiles = %d, want 43", got)
	}
	if got := len(CPU2006Profiles()); got != 29 {
		t.Fatalf("CPU2006Profiles = %d, want 29", got)
	}
	if got := len(EmergingProfiles()); got != 8 {
		t.Fatalf("EmergingProfiles = %d, want 8", got)
	}
	p, err := ProfileByName("505.mcf_r")
	if err != nil {
		t.Fatal(err)
	}
	if p.Base != "mcf" || p.Suite != RateINT {
		t.Fatalf("unexpected profile %+v", p)
	}
	if got := len(ProfilesBySuite(RateFP)); got != 13 {
		t.Fatalf("rate FP = %d profiles, want 13", got)
	}
}

func TestPublicFleet(t *testing.T) {
	fleet, err := Fleet()
	if err != nil {
		t.Fatal(err)
	}
	if len(fleet) != 7 {
		t.Fatalf("fleet = %d machines, want 7 (Table IV)", len(fleet))
	}
}

func TestPublicPipeline(t *testing.T) {
	p1, _ := ProfileByName("505.mcf_r")
	p2, _ := ProfileByName("525.x264_r")
	p3, _ := ProfileByName("541.leela_r")
	fleet, err := Fleet()
	if err != nil {
		t.Fatal(err)
	}
	char, err := Characterize(context.Background(), []Entry{
		{Label: p1.Name, Workload: p1.Workload()},
		{Label: p2.Name, Workload: p2.Workload()},
		{Label: p3.Name, Workload: p3.Workload()},
	}, fleet[:2], RunOptions{Instructions: 40_000, WarmupInstructions: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := char.Similarity(DefaultSimilarityOptions())
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Subset(2)
	if len(res.Representatives) != 2 {
		t.Fatalf("subset = %v", res.Representatives)
	}
	if !strings.Contains(sim.Dendrogram.Render(40), "505.mcf_r") {
		t.Fatal("dendrogram rendering broken")
	}
}

// TestCharacterizeRejectsNaN: a workload with a NaN field fails
// characterization instead of being measured and stored under a
// content hash that cannot tell it from another NaN workload.
func TestCharacterizeRejectsNaN(t *testing.T) {
	fleet, err := Fleet()
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(*Workload){
		"ILP":       func(w *Workload) { w.ILP = math.NaN() },
		"StoreFrac": func(w *Workload) { w.Spec.StoreFrac = math.NaN() },
	} {
		p, _ := ProfileByName("505.mcf_r")
		w := p.Workload()
		mutate(&w)
		_, err := Characterize(context.Background(), []Entry{{Label: p.Name, Workload: w}},
			fleet[:1], RunOptions{Instructions: 40_000, WarmupInstructions: 10_000})
		if err == nil {
			t.Errorf("NaN %s: Characterize succeeded", name)
		}
	}
}

func TestFastRunOptions(t *testing.T) {
	o := FastRunOptions()
	if o.Instructions <= 0 || o.WarmupInstructions <= 0 {
		t.Fatalf("FastRunOptions = %+v", o)
	}
}
