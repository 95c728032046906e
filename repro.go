// Package repro is a from-scratch Go reproduction of "Wait of a
// Decade: Did SPEC CPU 2017 Broaden the Performance Horizon?"
// (Panda, Song, Dean, John — HPCA 2018): a benchmark characterization,
// redundancy, and subsetting study of the SPEC CPU2017 suite.
//
// The library has three layers:
//
//   - A measurement substrate replacing the paper's hardware: a
//     deterministic synthetic-trace generator (internal/trace) driven
//     by a profile database of all 43 CPU2017 benchmarks, the CPU2006
//     suite, and the emerging EDA/graph/database workloads
//     (internal/workloads), executed on models of the paper's seven
//     commercial machines (internal/machine) composed of cache, TLB,
//     and branch-predictor simulators.
//
//   - The paper's methodology (internal/core): principal component
//     analysis under the Kaiser criterion, hierarchical clustering,
//     dendrogram subsetting, subset validation against a synthetic
//     SPEC results database, input-set selection, rate/speed
//     comparison, coverage analysis, and configuration-sensitivity
//     classification.
//
//   - One reproduction function per table and figure of the paper's
//     evaluation (internal/experiments), re-exported here.
//
// Everything is standard-library only and bit-for-bit deterministic.
// The quickest start:
//
//	lab := repro.NewLab(repro.FastRunOptions())
//	table5, err := repro.Table5(lab)
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured record of every experiment.
package repro

import (
	"context"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/store"
	"repro/internal/workloads"
)

// Lab owns the shared fleet characterization all experiments reuse.
// Create one with NewLab and pass it to every experiment; the
// expensive simulation happens once, on first use.
type Lab = experiments.Lab

// RunOptions control simulation fidelity (instructions measured per
// workload per machine).
type RunOptions = machine.RunOptions

// NewLab returns a Lab measuring at the given fidelity. The zero
// options give the default 400k measured instructions per run.
func NewLab(opts RunOptions) *Lab { return experiments.NewLabWithEngine(opts, nil, nil, nil) }

// Store is a content-addressed, persistent measurement store. Labs
// backed by one (NewLabWithStore) never measure the same (machine,
// workload, options) pair twice — in one process or, with a snapshot
// path, across processes ("warm starts"). See docs/STORE.md.
type Store = store.Store

// StoreConfig configures a Store; the zero value is memory-only.
type StoreConfig = store.Config

// OpenStore opens a measurement store, loading the snapshot at
// cfg.Path when one exists. The returned error is advisory: it
// describes a discarded (corrupt or incompatible) snapshot, and the
// Store is always usable.
func OpenStore(cfg StoreConfig) (*Store, error) { return store.Open(cfg) }

// NewLabWithStore returns a Lab whose measurements are cached in (and
// served from) st. Results are bit-identical to a store-free Lab.
func NewLabWithStore(opts RunOptions, st *Store) *Lab {
	return experiments.NewLabWithEngine(opts, st, nil, nil)
}

// DefaultLab returns the shared, default-fidelity Lab.
func DefaultLab() *Lab { return experiments.DefaultLab() }

// FastRunOptions returns reduced-fidelity options (120k measured
// instructions) that preserve every qualitative result of the paper
// while building the lab several times faster.
func FastRunOptions() RunOptions {
	return RunOptions{Instructions: 120_000, WarmupInstructions: 30_000}
}

// Result and option types re-exported from the methodology layer.
type (
	// Characterization is the workloads × (machine, metric) matrix.
	Characterization = core.Characterization
	// Entry is one workload to characterize.
	Entry = core.Entry
	// Similarity is a fitted PCA + hierarchical clustering space.
	Similarity = core.Similarity
	// SimilarityOptions configure the similarity pipeline.
	SimilarityOptions = core.SimilarityOptions
	// SubsetResult is a representative subset read off a dendrogram.
	SubsetResult = core.SubsetResult
	// Profile describes one benchmark program.
	Profile = workloads.Profile
	// Suite identifies a benchmark collection.
	Suite = workloads.Suite
	// Machine is one simulated commercial system.
	Machine = machine.Machine
	// Workload couples a trace spec with its seed key and ILP.
	Workload = machine.Workload
)

// Benchmark suites of the study.
const (
	SpeedINT = workloads.SpeedINT
	RateINT  = workloads.RateINT
	SpeedFP  = workloads.SpeedFP
	RateFP   = workloads.RateFP
)

// Workload database accessors.
var (
	// AllProfiles returns every profile in the database.
	AllProfiles = workloads.All
	// CPU2017Profiles returns the 43 CPU2017 benchmarks (Table I order).
	CPU2017Profiles = workloads.CPU2017
	// CPU2006Profiles returns the 29 CPU2006 benchmarks.
	CPU2006Profiles = workloads.CPU2006
	// EmergingProfiles returns the EDA, graph, and database workloads.
	EmergingProfiles = workloads.Emerging
	// ProfileByName looks a profile up by its SPEC-style name.
	ProfileByName = workloads.ByName
	// ProfilesBySuite returns the profiles of one suite.
	ProfilesBySuite = workloads.BySuite
)

// Fleet returns the paper's seven Table IV machines.
var Fleet = machine.Fleet

// Characterize measures workload entries on a machine fleet.
func Characterize(ctx context.Context, entries []Entry, machines []*Machine, opts RunOptions) (*Characterization, error) {
	return core.CharacterizeWith(ctx, entries, machines, opts, nil, nil, nil)
}

// DefaultSimilarityOptions returns the paper's analysis settings (all
// metrics, all machines, Ward linkage, Kaiser criterion).
var DefaultSimilarityOptions = core.DefaultSimilarityOptions

// The paper's experiments, one function per table/figure. See
// DESIGN.md section 4 for the index.
var (
	Table1 = experiments.Table1 // Table I: instruction mix and CPI
	Table2 = experiments.Table2 // Table II: per-suite metric ranges
	Fig1   = experiments.Fig1   // Figure 1: CPI stacks (rate benchmarks)
	Fig2   = experiments.Fig2   // Figure 2: SPECspeed INT dendrogram
	Fig3   = experiments.Fig3   // Figure 3: SPECspeed FP dendrogram
	Fig4   = experiments.Fig4   // Figure 4: SPECrate FP dendrogram
	Table5 = experiments.Table5 // Table V: 3-benchmark subsets
	Fig5   = experiments.Fig5   // Figure 5: INT subset validation
	Fig6   = experiments.Fig6   // Figure 6: FP subset validation
	Table6 = experiments.Table6 // Table VI: identified vs random subsets
	Fig7   = experiments.Fig7   // Figure 7: INT input-set similarity
	Fig8   = experiments.Fig8   // Figure 8: FP input-set similarity
	Table7 = experiments.Table7 // Table VII: representative input sets
	Fig9   = experiments.Fig9   // Figure 9: branch-behaviour scatter
	Fig10  = experiments.Fig10  // Figure 10: cache-behaviour scatters
	Table8 = experiments.Table8 // Table VIII: domain classification
	Fig11  = experiments.Fig11  // Figure 11: CPU2017 vs CPU2006 coverage
	Fig12  = experiments.Fig12  // Figure 12: power-space coverage
	Fig13  = experiments.Fig13  // Figure 13: emerging workloads
	Table9 = experiments.Table9 // Table IX: configuration sensitivity

	// RateSpeed is the Section IV-D rate-vs-speed comparison.
	RateSpeed = experiments.RateSpeed
	// RateINTDendrogram is the rate-INT dendrogram the paper omits
	// for space.
	RateINTDendrogram = experiments.RateINTDendrogram
)

// Ablations of the methodology's design choices (not in the paper):
// linkage method, PC-score weighting, dimensionality criterion, and
// subset size. See DESIGN.md.
var (
	AblateLinkage = experiments.AblateLinkage
	// Table9Extended classifies sensitivity over all seven hardware
	// structures, not just the paper's three.
	Table9Extended       = experiments.Table9Extended
	AblateScoreWeighting = experiments.AblateScoreWeighting
	AblatePCSelection    = experiments.AblatePCSelection
	SubsetSizeSweep      = experiments.SubsetSizeSweep
)

// Extensions beyond the paper's evaluation.
var (
	// RateScaling measures SPECrate-style multi-copy throughput
	// scaling under shared-LLC contention.
	RateScaling = experiments.RateScaling
	// RateSpeedTreeSimilarity quantifies how alike the rate and speed
	// dendrograms are (cophenetic correlation).
	RateSpeedTreeSimilarity = experiments.RateSpeedTreeSimilarity
	// MeasurementNoise quantifies the substrate's sampling noise,
	// validating the single-measurement methodology.
	MeasurementNoise = experiments.MeasurementNoise
)

// Rendering helpers for terminal output.
var (
	RenderStacks  = experiments.RenderStacks
	RenderScatter = experiments.RenderScatter
	RenderTable6  = experiments.RenderTable6
)

// ExperimentDescriptor names one experiment of the suite: stable id,
// title, kind, and a runner producing its JSON-serializable result.
type ExperimentDescriptor = experiments.Descriptor

// The experiment registry — the stable ids shared by cmd/spec17's
// -exp flag and the spec17d HTTP service.
var (
	// Experiments returns every experiment descriptor in
	// presentation order.
	Experiments = experiments.Registry
	// ExperimentIDs returns every experiment id in presentation order.
	ExperimentIDs = experiments.IDs
	// LookupExperiment resolves one experiment id.
	LookupExperiment = experiments.Lookup
	// BuildReport runs the experiments the report bundles into one
	// JSON-serializable document; see experiments.Report for which.
	BuildReport = experiments.BuildReport
)
