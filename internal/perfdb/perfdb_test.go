package perfdb

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/cpistack"
)

// stacks for three archetypes: compute-bound, memory-bound, branch-bound.
func testStacks() map[string]cpistack.Stack {
	return map[string]cpistack.Stack{
		"compute": {Base: 0.25, Deps: 0.15},
		"memory":  {Base: 0.25, Deps: 0.10, L2: 0.10, L3: 0.20, Memory: 0.55},
		"branchy": {Base: 0.25, Deps: 0.15, BadSpec: 0.40},
	}
}

func testSystems() []System {
	return []System{
		{Name: "mem-monster", Freq: 1.0, MemBoost: 4, CacheBoost: 1, BranchBoost: 1},
		{Name: "fast-clock", Freq: 1.5, MemBoost: 1, CacheBoost: 1, BranchBoost: 1},
	}
}

func TestBuildAndSpeedupShape(t *testing.T) {
	db, err := Build(testStacks(), testSystems())
	if err != nil {
		t.Fatal(err)
	}
	// The memory-boosted system must speed up the memory-bound
	// benchmark far more than the compute-bound one.
	memUp, err := db.Speedup("mem-monster", "memory")
	if err != nil {
		t.Fatal(err)
	}
	compUp, err := db.Speedup("mem-monster", "compute")
	if err != nil {
		t.Fatal(err)
	}
	if memUp < compUp*1.5 {
		t.Fatalf("memory-bound speedup %v should dwarf compute-bound %v", memUp, compUp)
	}
	// The pure-frequency system speeds everything up by ~1.5.
	for _, b := range []string{"compute", "memory", "branchy"} {
		v, err := db.Speedup("fast-clock", b)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(v-1.5) > 0.1 {
			t.Errorf("fast-clock speedup of %s = %v, want ≈1.5", b, v)
		}
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(nil, testSystems()); err == nil {
		t.Fatal("no stacks must error")
	}
	if _, err := Build(testStacks(), nil); err == nil {
		t.Fatal("no systems must error")
	}
	bad := []System{{Name: "x", Freq: 1, MemBoost: 0.5, CacheBoost: 1, BranchBoost: 1}}
	if _, err := Build(testStacks(), bad); err == nil {
		t.Fatal("invalid system must error")
	}
	zero := map[string]cpistack.Stack{"z": {}}
	if _, err := Build(zero, testSystems()); err == nil {
		t.Fatal("zero-CPI stack must error")
	}
}

func TestScoreGeomean(t *testing.T) {
	db, _ := Build(testStacks(), testSystems())
	all := []string{"compute", "memory", "branchy"}
	s, err := db.Score("mem-monster", all)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := db.Speedup("mem-monster", "compute")
	b, _ := db.Speedup("mem-monster", "memory")
	c, _ := db.Speedup("mem-monster", "branchy")
	want := math.Cbrt(a * b * c)
	if math.Abs(s-want) > 1e-9 {
		t.Fatalf("Score = %v, want %v", s, want)
	}
	if _, err := db.Score("mem-monster", nil); err == nil {
		t.Fatal("empty list must error")
	}
	if _, err := db.Score("nope", all); err == nil {
		t.Fatal("unknown system must error")
	}
	if _, err := db.Speedup("mem-monster", "nope"); err == nil {
		t.Fatal("unknown benchmark must error")
	}
}

func TestValidate(t *testing.T) {
	db, _ := Build(testStacks(), testSystems())
	all := []string{"compute", "memory", "branchy"}
	v, err := db.Validate([]string{"compute"}, all)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.PerSystem) != 2 {
		t.Fatalf("per-system errors = %d, want 2", len(v.PerSystem))
	}
	if v.Max < v.Avg {
		t.Fatal("max error must be >= average")
	}
	// A compute-only subset badly mispredicts the mem-monster score.
	if v.PerSystem["mem-monster"] < 0.10 {
		t.Fatalf("biased subset should err on mem-monster, got %v", v.PerSystem["mem-monster"])
	}
}

func TestRepresentativeSubsetBeatsBiasedSubset(t *testing.T) {
	// A subset drawing one benchmark per behaviour class predicts the
	// overall score better than a subset of three similar benchmarks.
	stacks := map[string]cpistack.Stack{
		"mem1": {Base: 0.3, L3: 0.2, Memory: 0.6}, "mem2": {Base: 0.3, L3: 0.22, Memory: 0.58},
		"cpu1": {Base: 0.4, Deps: 0.1}, "cpu2": {Base: 0.42, Deps: 0.1},
		"br1": {Base: 0.3, BadSpec: 0.4}, "br2": {Base: 0.32, BadSpec: 0.38},
	}
	db, err := Build(stacks, testSystems())
	if err != nil {
		t.Fatal(err)
	}
	all := []string{"mem1", "mem2", "cpu1", "cpu2", "br1", "br2"}
	good, err := db.Validate([]string{"mem1", "cpu1", "br1"}, all)
	if err != nil {
		t.Fatal(err)
	}
	biased, err := db.Validate([]string{"mem1", "mem2", "br1"}, all)
	if err != nil {
		t.Fatal(err)
	}
	if good.Avg >= biased.Avg {
		t.Fatalf("representative subset (%v) should beat biased subset (%v)", good.Avg, biased.Avg)
	}
}

func TestSystemsFor(t *testing.T) {
	for _, cat := range []string{"speed-int", "rate-int", "speed-fp", "rate-fp"} {
		systems := SystemsFor(cat)
		if len(systems) < 4 || len(systems) > 5 {
			t.Errorf("%s: %d systems, want 4-5", cat, len(systems))
		}
		again := SystemsFor(cat)
		if !reflect.DeepEqual(systems, again) {
			t.Errorf("%s: selection must be deterministic", cat)
		}
		for _, s := range systems {
			if err := s.Validate(); err != nil {
				t.Errorf("%s: %v", cat, err)
			}
		}
	}
}

func TestRandomSubset(t *testing.T) {
	all := []string{"a", "b", "c", "d", "e", "f"}
	s1 := RandomSubset(all, 3, 1)
	s2 := RandomSubset(all, 3, 1)
	if !reflect.DeepEqual(s1, s2) {
		t.Fatal("same seed must give same subset")
	}
	s3 := RandomSubset(all, 3, 2)
	if reflect.DeepEqual(s1, s3) {
		t.Fatal("different seeds should give different subsets")
	}
	if len(s1) != 3 {
		t.Fatalf("subset size %d, want 3", len(s1))
	}
	seen := map[string]bool{}
	for _, b := range s1 {
		if seen[b] {
			t.Fatal("subset has duplicates")
		}
		seen[b] = true
	}
	whole := RandomSubset(all, 10, 3)
	if len(whole) != len(all) {
		t.Fatal("k >= n should return everything")
	}
}
