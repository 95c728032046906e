package experiments

import (
	"fmt"
	"sort"
	"strings"
)

// Descriptor names one experiment of the suite: a stable id (the
// spec17 -exp spelling), a human title, a coarse kind, and a runner
// producing the experiment's JSON-serializable result from a Lab.
//
// The registry is the single source of truth for experiment identity,
// and Run is how callers dispatch by id: cmd/spec17's text mode runs
// the descriptors -exp selects, the spec17d server builds its catalog,
// 404 bodies, and cache keys from them, and BuildReport fills its
// fields from them (see Report for which experiments it holds).
type Descriptor struct {
	// ID is the stable experiment identifier, e.g. "table5" or
	// "ablation-linkage". IDs are lowercase and never reused.
	ID string `json:"id"`
	// Title is the human-readable name, e.g. the paper's caption.
	Title string `json:"title"`
	// Kind classifies the experiment: "table", "figure", "section",
	// "ablation", or "extension".
	Kind string `json:"kind"`
	// Run computes the experiment on the lab. The result marshals to
	// JSON; its concrete type is the experiment's row/result type.
	Run func(*Lab) (any, error) `json:"-"`
}

// Composite results for experiments whose functions return multiple
// values; the registry (and the server) need one JSON document each.
type (
	// Fig10Result pairs the data-cache and instruction-cache PC spaces.
	Fig10Result struct {
		DCache *ScatterResult
		ICache *ScatterResult
	}
	// Fig11Result bundles the coverage planes with the CPU2006
	// benchmarks CPU2017 leaves uncovered.
	Fig11Result struct {
		Planes    []CoverageResult
		Uncovered []string
	}
	// Fig12Result bundles the power-space coverage with its scatter.
	Fig12Result struct {
		Coverage *CoverageResult
		Scatter  *ScatterResult
	}
)

// registry lists every experiment in presentation order: the paper's
// tables and figures first, then the ablations and extensions.
var registry = []Descriptor{
	{"table1", "Table I: dynamic instruction count, instruction mix, and CPI (Skylake)", "table",
		func(l *Lab) (any, error) { return Table1(l) }},
	{"table2", "Table II: metric ranges per sub-suite (Skylake)", "table",
		func(l *Lab) (any, error) { return Table2(l) }},
	{"fig1", "Figure 1: CPI stacks of the SPECrate benchmarks (Skylake)", "figure",
		func(l *Lab) (any, error) { return Fig1(l) }},
	{"fig2", "Figure 2: SPECspeed INT dendrogram", "figure",
		func(l *Lab) (any, error) { return Fig2(l) }},
	{"fig3", "Figure 3: SPECspeed FP dendrogram", "figure",
		func(l *Lab) (any, error) { return Fig3(l) }},
	{"fig4", "Figure 4: SPECrate FP dendrogram", "figure",
		func(l *Lab) (any, error) { return Fig4(l) }},
	{"table5", "Table V: representative 3-benchmark subsets", "table",
		func(l *Lab) (any, error) { return Table5(l) }},
	{"fig5", "Figure 5: INT subset validation", "figure",
		func(l *Lab) (any, error) { return Fig5(l) }},
	{"fig6", "Figure 6: FP subset validation", "figure",
		func(l *Lab) (any, error) { return Fig6(l) }},
	{"table6", "Table VI: identified subsets vs random subsets", "table",
		func(l *Lab) (any, error) { return Table6(l) }},
	{"fig7", "Figure 7: INT input-set similarity", "figure",
		func(l *Lab) (any, error) { return Fig7(l) }},
	{"fig8", "Figure 8: FP input-set similarity", "figure",
		func(l *Lab) (any, error) { return Fig8(l) }},
	{"table7", "Table VII: representative input sets", "table",
		func(l *Lab) (any, error) { return Table7(l) }},
	{"ratespeed", "Section IV-D: rate vs speed similarity", "section",
		func(l *Lab) (any, error) { return RateSpeed(l) }},
	{"fig9", "Figure 9: CPU2017 in the branch-behaviour PC space", "figure",
		func(l *Lab) (any, error) { return Fig9(l) }},
	{"fig10", "Figure 10: data-cache and instruction-cache PC spaces", "figure",
		func(l *Lab) (any, error) {
			dc, ic, err := Fig10(l)
			if err != nil {
				return nil, err
			}
			return &Fig10Result{DCache: dc, ICache: ic}, nil
		}},
	{"table8", "Table VIII: application domains and covering benchmarks", "table",
		func(l *Lab) (any, error) { return Table8(l) }},
	{"fig11", "Figure 11: CPU2017 vs CPU2006 workload-space coverage", "figure",
		func(l *Lab) (any, error) {
			planes, uncovered, err := Fig11(l)
			if err != nil {
				return nil, err
			}
			return &Fig11Result{Planes: planes, Uncovered: uncovered}, nil
		}},
	{"fig12", "Figure 12: power-characteristic PC space (RAPL machines)", "figure",
		func(l *Lab) (any, error) {
			cov, scatter, err := Fig12(l)
			if err != nil {
				return nil, err
			}
			return &Fig12Result{Coverage: cov, Scatter: scatter}, nil
		}},
	{"fig13", "Figure 13: CPU2017 vs EDA, graph, and database workloads", "figure",
		func(l *Lab) (any, error) { return Fig13(l) }},
	{"table9", "Table IX: sensitivity to branch predictor, L1 D-cache, and D-TLB configuration", "table",
		func(l *Lab) (any, error) { return Table9(l) }},
	{"ablation-linkage", "Ablation: linkage method vs subset quality", "ablation",
		func(l *Lab) (any, error) { return AblateLinkage(l) }},
	{"ablation-weighting", "Ablation: sqrt-eigenvalue weighting of PC scores", "ablation",
		func(l *Lab) (any, error) { return AblateScoreWeighting(l) }},
	{"ablation-pcs", "Ablation: Kaiser criterion vs 90% variance target", "ablation",
		func(l *Lab) (any, error) { return AblatePCSelection(l) }},
	{"subset-sweep", "Subset-size sweep: validation error and time saving vs k", "ablation",
		func(l *Lab) (any, error) { return SubsetSizeSweep(l, 6) }},
	{"table9-extended", "Extended sensitivity: all hardware structures", "extension",
		func(l *Lab) (any, error) { return Table9Extended(l) }},
	{"rate-scaling", "SPECrate scaling: throughput vs concurrent copies", "extension",
		func(l *Lab) (any, error) { return RateScaling(l, nil, []int{1, 2, 4, 8}) }},
	{"tree-similarity", "Dendrogram similarity: rate vs speed (cophenetic correlation)", "extension",
		func(l *Lab) (any, error) { return RateSpeedTreeSimilarity(l) }},
	{"noise", "Sampling noise: metric variation across independent trace samples", "extension",
		func(l *Lab) (any, error) { return MeasurementNoise(l, nil, 5) }},
}

// Registry returns every experiment descriptor in presentation order
// (paper artifacts first, then ablations and extensions). The returned
// slice is a copy; callers may reorder it freely.
func Registry() []Descriptor {
	out := make([]Descriptor, len(registry))
	copy(out, registry)
	return out
}

// Lookup resolves an experiment id. Ids are matched exactly (they are
// already lowercase).
func Lookup(id string) (Descriptor, bool) {
	for _, d := range registry {
		if d.ID == id {
			return d, true
		}
	}
	return Descriptor{}, false
}

// IDs returns every experiment id in presentation order.
func IDs() []string {
	out := make([]string, len(registry))
	for i, d := range registry {
		out[i] = d.ID
	}
	return out
}

// SortedIDs returns every experiment id in lexicographic order — the
// spelling both cmd/spec17's unknown-id error and the server's 404
// body use.
func SortedIDs() []string {
	out := IDs()
	sort.Strings(out)
	return out
}

// UnknownIDError describes an unknown experiment id, naming every
// valid id in sorted order. cmd/spec17 prints it; the spec17d server
// returns the same information as its 404 body.
func UnknownIDError(id string) error {
	return fmt.Errorf("unknown experiment %q (valid ids: %s)",
		id, strings.Join(SortedIDs(), ", "))
}
