// Package perfdb is a synthetic stand-in for SPEC's published-results
// database, which the paper uses to validate its benchmark subsets
// (Figures 5 and 6, Table VI). Real submissions report per-benchmark
// speedups of commercial systems over a reference machine; the overall
// score is the geometric mean across the sub-suite.
//
// The synthetic database models each commercial system as a vector of
// capability factors (frequency, memory subsystem, branch prediction,
// front-end) and derives each benchmark's speedup from how its
// measured CPI stack decomposes on the reference machine: a system
// with a strong memory subsystem speeds up memory-bound benchmarks
// most, and so on, plus a small deterministic submission noise. This
// preserves the property the validation experiment depends on:
// behaviourally similar benchmarks earn similar speedups, so a
// behaviourally representative subset predicts the full-suite score
// while an arbitrary subset need not.
package perfdb

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/cpistack"
	"repro/internal/rng"
	"repro/internal/stats"
)

// System is one commercial submission's machine.
type System struct {
	Name string
	// Freq is the clock/core advantage over the reference machine,
	// applied to all benchmarks.
	Freq float64
	// MemBoost divides back-end memory stall cycles; CacheBoost
	// divides front-end (instruction fetch) stalls; BranchBoost
	// divides misprediction stalls. All must be >= 1.
	MemBoost, CacheBoost, BranchBoost float64
}

// Validate reports implausible capability factors.
func (s System) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("perfdb: system with empty name")
	}
	if s.Freq <= 0 {
		return fmt.Errorf("perfdb: system %s frequency factor %v", s.Name, s.Freq)
	}
	for name, v := range map[string]float64{
		"MemBoost": s.MemBoost, "CacheBoost": s.CacheBoost, "BranchBoost": s.BranchBoost,
	} {
		if v < 1 {
			return fmt.Errorf("perfdb: system %s %s %v must be >= 1", s.Name, name, v)
		}
	}
	return nil
}

// systemPool is the roster of synthetic commercial systems. Per-
// category submissions draw from this pool, mirroring the paper's
// situation where the submitted systems differ per sub-suite.
var systemPool = []System{
	{Name: "vendorA-2S-server", Freq: 1.30, MemBoost: 3.5, CacheBoost: 2.0, BranchBoost: 1.3},
	{Name: "vendorB-hpc-node", Freq: 1.05, MemBoost: 5.0, CacheBoost: 1.4, BranchBoost: 1.1},
	{Name: "vendorC-workstation", Freq: 1.70, MemBoost: 1.3, CacheBoost: 1.2, BranchBoost: 1.8},
	{Name: "vendorD-blade", Freq: 0.90, MemBoost: 2.2, CacheBoost: 3.0, BranchBoost: 1.5},
	{Name: "vendorE-desktop", Freq: 1.85, MemBoost: 1.1, CacheBoost: 1.1, BranchBoost: 2.0},
	{Name: "vendorF-micro-server", Freq: 0.80, MemBoost: 2.6, CacheBoost: 1.8, BranchBoost: 1.05},
}

// SystemsFor returns the synthetic submissions available for a
// category ("speed-int", "rate-int", "speed-fp", "rate-fp"). The
// selection is deterministic per category and between 4 and 5 systems,
// matching the paper's "very few companies have submitted results for
// all categories".
func SystemsFor(category string) []System {
	r := rng.NewKeyed("perfdb-category:"+category, 0)
	n := 4 + r.Intn(2)
	idx := r.Intn(len(systemPool))
	out := make([]System, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, systemPool[(idx+i)%len(systemPool)])
	}
	return out
}

// DB holds per-system, per-benchmark speedups over the reference.
type DB struct {
	systems []System
	scores  map[string]map[string]float64 // system -> benchmark -> speedup
}

// Build derives the database from the benchmarks' CPI stacks measured
// on the reference machine. The stacks map is keyed by benchmark name.
func Build(stacks map[string]cpistack.Stack, systems []System) (*DB, error) {
	if len(stacks) == 0 {
		return nil, fmt.Errorf("perfdb: no benchmark stacks")
	}
	if len(systems) == 0 {
		return nil, fmt.Errorf("perfdb: no systems")
	}
	db := &DB{systems: systems, scores: make(map[string]map[string]float64)}
	for _, sys := range systems {
		if err := sys.Validate(); err != nil {
			return nil, err
		}
		per := make(map[string]float64, len(stacks))
		for bench, st := range stacks {
			total := st.Total()
			if total <= 0 {
				return nil, fmt.Errorf("perfdb: benchmark %s has non-positive CPI", bench)
			}
			// The system removes stall cycles according to its strengths.
			newCPI := st.Base + st.Deps +
				st.FrontEnd/sys.CacheBoost +
				st.BadSpec/sys.BranchBoost +
				(st.L2+st.L3+st.Memory)/sys.MemBoost
			speedup := sys.Freq * total / newCPI
			// Deterministic submission noise (compiler flags, firmware):
			// +/-2.5%. Each float64() keeps a product from fusing.
			r := rng.NewKeyed("perfdb:"+sys.Name+"/"+bench, 1)
			speedup *= 1 + float64((float64(r.Float64())-0.5)*0.05)
			per[bench] = speedup
		}
		db.scores[sys.Name] = per
	}
	return db, nil
}

// Speedup returns one benchmark's speedup on one system.
func (db *DB) Speedup(system, benchmark string) (float64, error) {
	per, ok := db.scores[system]
	if !ok {
		return 0, fmt.Errorf("perfdb: unknown system %q", system)
	}
	v, ok := per[benchmark]
	if !ok {
		return 0, fmt.Errorf("perfdb: system %q has no result for %q", system, benchmark)
	}
	return v, nil
}

// Score returns the SPEC-style overall score of a system on a
// benchmark list: the geometric mean of the per-benchmark speedups.
func (db *DB) Score(system string, benchmarks []string) (float64, error) {
	if len(benchmarks) == 0 {
		return 0, fmt.Errorf("perfdb: empty benchmark list")
	}
	vals := make([]float64, 0, len(benchmarks))
	for _, b := range benchmarks {
		v, err := db.Speedup(system, b)
		if err != nil {
			return 0, err
		}
		vals = append(vals, v)
	}
	return stats.GeoMean(vals), nil
}

// WeightedScore returns the weighted geometric mean of the
// per-benchmark speedups: prod(speedup_i^(w_i/sum(w))). A subset
// chosen by clustering uses each representative's cluster size as its
// weight, so the subset score estimates the full-suite score rather
// than over-weighting outlier clusters.
func (db *DB) WeightedScore(system string, benchmarks []string, weights []float64) (float64, error) {
	if len(benchmarks) == 0 {
		return 0, fmt.Errorf("perfdb: empty benchmark list")
	}
	if len(weights) != len(benchmarks) {
		return 0, fmt.Errorf("perfdb: %d weights for %d benchmarks", len(weights), len(benchmarks))
	}
	total := 0.0
	for _, w := range weights {
		if w <= 0 {
			return 0, fmt.Errorf("perfdb: non-positive weight %v", w)
		}
		total += w
	}
	logSum := 0.0
	for i, b := range benchmarks {
		v, err := db.Speedup(system, b)
		if err != nil {
			return 0, err
		}
		logSum += float64(weights[i] / total * math.Log(v))
	}
	return math.Exp(logSum), nil
}

// Validation summarizes subset accuracy across every system in the DB.
type Validation struct {
	// PerSystem maps system name to its relative error.
	PerSystem map[string]float64
	// Avg and Max are the mean and worst relative errors.
	Avg, Max float64
}

// Validate computes the subset-vs-full error on all systems using the
// plain geometric mean (nil weights) or a weighted one.
func (db *DB) Validate(subset, all []string) (Validation, error) {
	return db.ValidateWeighted(subset, nil, all)
}

// ValidateWeighted computes the subset-vs-full error on all systems,
// scoring the subset with the given per-benchmark weights (nil =
// unweighted).
func (db *DB) ValidateWeighted(subset []string, weights []float64, all []string) (Validation, error) {
	v := Validation{PerSystem: make(map[string]float64, len(db.systems))}
	names := make([]string, 0, len(db.systems))
	for _, s := range db.systems {
		names = append(names, s.Name)
	}
	sort.Strings(names)
	for _, name := range names {
		var subScore float64
		var err error
		if weights == nil {
			subScore, err = db.Score(name, subset)
		} else {
			subScore, err = db.WeightedScore(name, subset, weights)
		}
		if err != nil {
			return Validation{}, err
		}
		full, err := db.Score(name, all)
		if err != nil {
			return Validation{}, err
		}
		e := math.Abs(subScore-full) / full
		v.PerSystem[name] = e
		v.Avg += e
		if e > v.Max {
			v.Max = e
		}
	}
	v.Avg /= float64(len(names))
	return v, nil
}

// RandomSubset draws k distinct benchmarks from all, deterministically
// per seed — the paper's "random sets 1 and 2" comparison (Table VI).
func RandomSubset(all []string, k int, seed uint64) []string {
	if k >= len(all) {
		out := make([]string, len(all))
		copy(out, all)
		return out
	}
	idx := make([]int, len(all))
	for i := range idx {
		idx[i] = i
	}
	r := rng.New(seed)
	// Partial Fisher-Yates.
	for i := 0; i < k; i++ {
		j := i + r.Intn(len(idx)-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	out := make([]string, k)
	for i := 0; i < k; i++ {
		out[i] = all[idx[i]]
	}
	sort.Strings(out)
	return out
}
