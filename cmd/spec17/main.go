// Command spec17 reproduces the tables and figures of "Wait of a
// Decade: Did SPEC CPU 2017 Broaden the Performance Horizon?"
// (HPCA 2018) on the synthetic measurement substrate.
//
// Usage:
//
//	spec17 [-exp id[,id...]] [-instructions n] [-warmup n] [-width n] [-store file] [-engine exact|analytic]
//
// -store refuses -instructions or -warmup above store.MaxInstructions,
// since the snapshot's next load would refuse every record above it.
//
// -exp takes ids from the experiment registry (an unknown id lists
// them), or "all" (default) for every experiment in registry order.
//
// -svg DIR writes every figure as an SVG file; -json FILE writes the
// experiments.Report as one JSON document.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/plot"
	"repro/internal/sched"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

func main() {
	os.Exit(spec17(os.Args[1:], os.Stdout, os.Stderr))
}

// spec17 runs the command on args, writing results to stdout and
// diagnostics to stderr. It returns the exit status: 0 on success, 1
// when a run fails, 2 for bad usage.
func spec17(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("spec17", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp       = fs.String("exp", "all", "comma-separated experiment ids, or 'all'")
		instrs    = fs.Int("instructions", 400_000, "measured instructions per workload per machine")
		warmup    = fs.Int("warmup", 0, "warmup instructions (default instructions/5)")
		parallel  = fs.Int("parallelism", 0, "max concurrent measurements (0 = GOMAXPROCS)")
		width     = fs.Int("width", 60, "plot width in columns")
		jsonOut   = fs.String("json", "", "write the experiment report as JSON to this file ('-' = stdout) and exit")
		svgDir    = fs.String("svg", "", "write the paper's figures as SVG files into this directory and exit")
		storePath = fs.String("store", "", "measurement-store snapshot file: loaded before measuring, persisted on exit")
		engFlag   = fs.String("engine", "exact", "measurement engine: exact (trace-driven simulation) or analytic (closed-form estimator)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	// "auto" is a serving policy (analytic now, exact in the
	// background); a one-shot batch run has no background to upgrade in,
	// so the CLI only accepts the two concrete tiers.
	tier, err := engine.ParseTier(*engFlag)
	if err != nil || tier == engine.TierAuto {
		fmt.Fprintf(stderr, "spec17: -engine=%q: must be exact or analytic\n", *engFlag)
		return 2
	}
	var eng engine.Engine
	if tier == engine.TierAnalytic {
		eng = engine.Analytic{}
	}

	opts := machine.RunOptions{
		Instructions:       *instrs,
		WarmupInstructions: *warmup,
		Parallelism:        *parallel,
	}
	// A snapshot keeps no record above the store's fidelity cap: its
	// next Open would refuse every one of them. The cap is checked
	// first, as the daemon does.
	if *storePath != "" {
		if err := store.CheckFidelity(opts); err != nil {
			fmt.Fprintf(stderr, "spec17: -store: %v\n", err)
			return 2
		}
	}
	if err := opts.Validate(); err != nil {
		fmt.Fprintf(stderr, "spec17: %v\n", err)
		return 2
	}

	// -json and -svg ignore -exp; text mode runs the selected
	// experiments.
	var descs []experiments.Descriptor
	if *jsonOut == "" && *svgDir == "" {
		if descs, err = selectExperiments(*exp); err != nil {
			fmt.Fprintf(stderr, "spec17: -exp: %v\n", err)
			return 2
		}
	}

	// Diagnostics (store warnings, persist failures) go through the
	// structured logger; experiment results stay plain stdout.
	logger := telemetry.NewLogger(stderr, slog.LevelInfo)

	st, err := store.Open(store.Config{Path: *storePath, Log: logger})
	if err != nil {
		logger.Warn("opening store; starting cold", "err", err)
	}
	// One scheduler bounds every simulation the process runs,
	// including the out-of-characterization measurements (sensitivity
	// sweeps, replicas, multi-copy runs) the per-characterization
	// parallelism option never covered.
	lab := experiments.NewLabWithEngine(opts, st, sched.NewPool(*parallel, nil).Queue(0), eng)

	switch {
	case *jsonOut != "":
		err = writeJSONReport(stdout, lab, *jsonOut)
	case *svgDir != "":
		err = writeSVGs(stdout, lab, *svgDir)
	default:
		err = runText(stdout, lab, descs, *width)
	}
	// Persist what was measured even on failure: the next run resumes
	// from it.
	if serr := st.Save(); serr != nil {
		logger.Error("persisting store", "err", serr)
		if err == nil {
			return 1
		}
	}
	if err != nil {
		logger.Error("run failed", "err", err)
		return 1
	}
	return 0
}

// selectExperiments resolves -exp to registry descriptors: every one
// for "all", otherwise each listed id in the order given. An unknown
// id's error wraps experiments.UnknownIDError, which lists the valid
// ids.
func selectExperiments(exp string) ([]experiments.Descriptor, error) {
	if exp == "all" {
		return experiments.Registry(), nil
	}
	var descs []experiments.Descriptor
	for _, id := range strings.Split(exp, ",") {
		id = strings.TrimSpace(strings.ToLower(id))
		d, ok := experiments.Lookup(id)
		if !ok {
			return nil, experiments.UnknownIDError(id)
		}
		descs = append(descs, d)
	}
	return descs, nil
}

// runText runs each descriptor on the lab and prints its title as a
// framed header followed by the rendered result.
func runText(w io.Writer, lab *experiments.Lab, descs []experiments.Descriptor, width int) error {
	for _, d := range descs {
		res, err := d.Run(lab)
		if err != nil {
			return fmt.Errorf("%s: %w", d.ID, err)
		}
		header(w, d.Title)
		if err := render(w, res, width); err != nil {
			return fmt.Errorf("%s: %w", d.ID, err)
		}
		fmt.Fprintln(w)
	}
	return nil
}

func header(w io.Writer, title string) {
	fmt.Fprintln(w, strings.Repeat("=", len(title)))
	fmt.Fprintln(w, title)
	fmt.Fprintln(w, strings.Repeat("=", len(title)))
}

// render prints one experiment result for the terminal, choosing the
// layout by the result's type.
func render(w io.Writer, res any, width int) error {
	switch res := res.(type) {
	case []experiments.Table1Row:
		fmt.Fprintf(w, "%-18s %-14s %10s %7s %7s %8s %7s %9s\n",
			"benchmark", "suite", "icount(B)", "load%", "store%", "branch%", "CPI", "paper CPI")
		for _, r := range res {
			fmt.Fprintf(w, "%-18s %-14s %10.0f %7.2f %7.2f %8.2f %7.2f %9.2f\n",
				r.Name, r.Suite, r.ICountB, r.PctLoad, r.PctStore, r.PctBranch, r.CPI, r.PaperCPI)
		}
	case []experiments.RangeRow:
		fmt.Fprintf(w, "%-12s %-14s %10s %10s\n", "metric", "suite", "min", "max")
		for _, r := range res {
			fmt.Fprintf(w, "%-12s %-14s %10.2f %10.2f\n", r.Metric, r.Suite, r.Min, r.Max)
		}
	case []experiments.StackRow:
		fmt.Fprint(w, experiments.RenderStacks(res, width))
	case *experiments.DendrogramResult:
		fmt.Fprintf(w, "%d PCs retained (Kaiser), %.0f%% of variance; most distinct: %s\n\n",
			res.NumPCs, res.VarCovered*100, res.MostDistinct)
		fmt.Fprint(w, res.Similarity.Dendrogram.Render(width))
	case []experiments.SubsetRow:
		for _, r := range res {
			fmt.Fprintf(w, "%-14s  subset: %s\n", r.Suite, strings.Join(r.Subset, ", "))
			fmt.Fprintf(w, "%-14s  cut at linkage %.2f, simulation-time reduction %.1fx\n",
				"", r.CutHeight, r.SimTimeReduction)
			for i, cl := range r.Clusters {
				fmt.Fprintf(w, "%-14s    cluster %d: %s\n", "", i+1, strings.Join(cl, ", "))
			}
		}
	case []*experiments.ValidationRow:
		for _, r := range res {
			fmt.Fprintf(w, "%s — subset %s\n", r.Suite, strings.Join(r.Subset, ", "))
			var systems []string
			for s := range r.Identified.PerSystem {
				systems = append(systems, s)
			}
			sort.Strings(systems)
			for _, s := range systems {
				fmt.Fprintf(w, "  %-22s error %5.1f%%\n", s, r.Identified.PerSystem[s]*100)
			}
			fmt.Fprintf(w, "  %-22s avg %6.1f%%  max %5.1f%%\n", "overall",
				r.Identified.Avg*100, r.Identified.Max*100)
		}
	case experiments.Table6Result:
		fmt.Fprint(w, experiments.RenderTable6(res))
	case *experiments.InputSetResult:
		fmt.Fprintf(w, "%d PCs retained, %.0f%% of variance\n\n", res.NumPCs, res.VarCovered*100)
		fmt.Fprint(w, res.Similarity.Dendrogram.Render(width))
		fmt.Fprintln(w, "\ninput-set cohesion (max within-benchmark distance / median pairwise):")
		var names []string
		for n := range res.Cohesion {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "  %-18s %.2f\n", n, res.Cohesion[n])
		}
	case []experiments.RepresentativeInput:
		for _, r := range res {
			fmt.Fprintf(w, "  %-18s input set %d\n", r.Benchmark, r.Input)
		}
	case []experiments.RateSpeedRow:
		for _, r := range res {
			mark := ""
			if r.Divergent {
				mark = "  <- divergent"
			}
			fmt.Fprintf(w, "  %-12s %6.2f%s\n", r.Base, r.Distance, mark)
		}
	case *experiments.ScatterResult:
		fmt.Fprint(w, experiments.RenderScatter(res, width, 20))
	case *experiments.Fig10Result:
		fmt.Fprintln(w, "Figure 10a: data-cache PC space")
		fmt.Fprint(w, experiments.RenderScatter(res.DCache, width, 20))
		fmt.Fprintln(w, "Figure 10b: instruction-cache PC space")
		fmt.Fprint(w, experiments.RenderScatter(res.ICache, width, 20))
	case []experiments.DomainRow:
		for _, r := range res {
			fmt.Fprintf(w, "%-28s run: %s\n", r.Domain, strings.Join(r.Recommended, ", "))
		}
	case *experiments.Fig11Result:
		for _, pl := range res.Planes {
			fmt.Fprintf(w, "  %-8s hull area 2017 %7.1f | 2006 %7.1f | CPU2017 outside CPU2006: %4.0f%%\n",
				pl.Plane, pl.Area2017, pl.Area2006, pl.FracOutside*100)
		}
		fmt.Fprintf(w, "  CPU2006 benchmarks not covered by CPU2017: %s\n", strings.Join(res.Uncovered, ", "))
	case *experiments.Fig12Result:
		fmt.Fprintf(w, "  hull area 2017 %.1f | 2006 %.1f | outside: %.0f%%\n\n",
			res.Coverage.Area2017, res.Coverage.Area2006, res.Coverage.FracOutside*100)
		fmt.Fprint(w, experiments.RenderScatter(res.Scatter, width, 18))
	case *experiments.EmergingResult:
		fmt.Fprint(w, res.Similarity.Dendrogram.Render(width))
		fmt.Fprintln(w, "\nnearest CPU2017 benchmark (distance / median pairwise):")
		for _, p := range workloads.Emerging() {
			fmt.Fprintf(w, "  %-12s -> %-18s %.2f\n", p.Name, res.NearestCPU2017[p.Name], res.NormDistance[p.Name])
		}
	case []experiments.SensitivityTable:
		for _, t := range res {
			fmt.Fprintf(w, "%s:\n", t.Structure)
			fmt.Fprintf(w, "  High:   %s\n", strings.Join(t.High, ", "))
			fmt.Fprintf(w, "  Medium: %s\n", strings.Join(t.Medium, ", "))
			fmt.Fprintf(w, "  Low:    %s\n", strings.Join(t.Low, ", "))
		}
	case []experiments.LinkageRow:
		fmt.Fprintf(w, "%-14s %-9s %7s  %-22s %s\n", "suite", "linkage", "error", "most distinct", "subset")
		for _, r := range res {
			fmt.Fprintf(w, "%-14s %-9s %6.1f%%  %-22s %s\n",
				r.Suite, r.Method, r.AvgError*100, r.MostDistinct, strings.Join(r.Subset, ", "))
		}
	case []experiments.WeightingRow:
		for _, r := range res {
			fmt.Fprintf(w, "%-14s weighted: %-55s\n", r.Suite, strings.Join(r.WeightedSubset, ", "))
			fmt.Fprintf(w, "%-14s unweighted: %-53s agree=%v\n", "", strings.Join(r.UnweightedSubset, ", "), r.Agree)
		}
	case []experiments.PCSelectionRow:
		fmt.Fprintf(w, "%-14s %10s %12s %13s\n", "suite", "Kaiser PCs", "90%-var PCs", "subsets agree")
		for _, r := range res {
			fmt.Fprintf(w, "%-14s %10d %12d %13v\n", r.Suite, r.KaiserPCs, r.VariancePCs, r.SubsetsAgree)
		}
	case []experiments.SubsetSizeRow:
		fmt.Fprintf(w, "%-14s %3s %8s %12s\n", "suite", "k", "error", "time saving")
		for _, r := range res {
			fmt.Fprintf(w, "%-14s %3d %7.1f%% %11.1fx\n", r.Suite, r.K, r.AvgError*100, r.SimTimeReduction)
		}
	case []experiments.RateScalingRow:
		fmt.Fprintf(w, "%-18s %6s %12s %11s %14s\n", "benchmark", "copies", "throughput", "efficiency", "L3 MPKI/copy")
		for _, r := range res {
			fmt.Fprintf(w, "%-18s %6d %12.3f %10.0f%% %14.2f\n",
				r.Benchmark, r.Copies, r.Throughput, r.Efficiency*100, r.L3MPKIPerCopy)
		}
	case []experiments.TreeSimilarityRow:
		for _, r := range res {
			fmt.Fprintf(w, "%-20s r = %.3f over %d shared families\n", r.Pair, r.Correlation, len(r.Families))
		}
	case []experiments.NoiseRow:
		fmt.Fprintf(w, "%-18s %8s   per-metric CV\n", "benchmark", "max CV")
		for _, r := range res {
			fmt.Fprintf(w, "%-18s %7.1f%%   ", r.Benchmark, r.MaxCV*100)
			for _, m := range []string{"l1d_mpki", "l2d_mpki", "l3_mpki", "l1i_mpki", "branch_mpki", "dtlb_mpmi"} {
				fmt.Fprintf(w, "%s=%.1f%% ", m, r.CV[m]*100)
			}
			fmt.Fprintln(w)
		}
	default:
		return fmt.Errorf("no text renderer for result type %T", res)
	}
	return nil
}

// writeJSONReport writes the experiments.Report to path, or to stdout
// for "-".
func writeJSONReport(stdout io.Writer, lab *experiments.Lab, path string) error {
	report, err := experiments.BuildReport(lab)
	if err != nil {
		return err
	}
	if path == "-" {
		return report.WriteJSON(stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := report.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeSVGs renders every figure of the paper into dir, naming each
// file it writes on w.
func writeSVGs(w io.Writer, lab *experiments.Lab, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name string, render func(w *os.File) error) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if err := render(f); err != nil {
			f.Close()
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Fprintf(w, "wrote %s\n", filepath.Join(dir, name))
		return f.Close()
	}

	// Figure 1: CPI stacks.
	stacks, err := experiments.Fig1(lab)
	if err != nil {
		return err
	}
	bars := make([]plot.StackedBar, 0, len(stacks))
	for _, r := range stacks {
		bars = append(bars, plot.StackedBar{Label: r.Name, Stack: r.Stack})
	}
	if err := write("fig1-cpi-stacks.svg", func(w *os.File) error {
		return plot.CPIBars(w, bars, plot.BarsOptions{Title: "Figure 1: CPI stacks (SPECrate, Skylake)"})
	}); err != nil {
		return err
	}

	// Dendrogram figures.
	dendros := []struct {
		name, title string
		get         func(*experiments.Lab) (*experiments.DendrogramResult, error)
	}{
		{"fig2-speed-int.svg", "Figure 2: SPECspeed INT", experiments.Fig2},
		{"fig3-speed-fp.svg", "Figure 3: SPECspeed FP", experiments.Fig3},
		{"fig4-rate-fp.svg", "Figure 4: SPECrate FP", experiments.Fig4},
		{"rate-int.svg", "SPECrate INT (not shown in the paper)", experiments.RateINTDendrogram},
	}
	for _, d := range dendros {
		res, err := d.get(lab)
		if err != nil {
			return err
		}
		if err := write(d.name, func(w *os.File) error {
			return plot.Dendrogram(w, res.Similarity.Dendrogram, plot.DendrogramOptions{Title: d.title})
		}); err != nil {
			return err
		}
	}

	// Input-set dendrograms (Figures 7 and 8).
	for _, d := range []struct {
		name, title string
		get         func(*experiments.Lab) (*experiments.InputSetResult, error)
	}{
		{"fig7-input-sets-int.svg", "Figure 7: INT input sets", experiments.Fig7},
		{"fig8-input-sets-fp.svg", "Figure 8: FP input sets", experiments.Fig8},
	} {
		res, err := d.get(lab)
		if err != nil {
			return err
		}
		if err := write(d.name, func(w *os.File) error {
			return plot.Dendrogram(w, res.Similarity.Dendrogram, plot.DendrogramOptions{Title: d.title})
		}); err != nil {
			return err
		}
	}

	// Scatter figures.
	fig9, err := experiments.Fig9(lab)
	if err != nil {
		return err
	}
	if err := write("fig9-branch-space.svg", func(w *os.File) error {
		return plot.Scatter(w, []plot.Series{{
			Name: "CPU2017", Points: fig9.Points, Labels: fig9.Labels,
		}}, plot.ScatterOptions{
			Title:  "Figure 9: branch-behaviour PC space",
			XLabel: "PC1", YLabel: "PC2", PointLabels: true,
		})
	}); err != nil {
		return err
	}
	dc, ic, err := experiments.Fig10(lab)
	if err != nil {
		return err
	}
	for _, sc := range []struct {
		name, title string
		res         *experiments.ScatterResult
	}{
		{"fig10a-dcache-space.svg", "Figure 10a: data-cache PC space", dc},
		{"fig10b-icache-space.svg", "Figure 10b: instruction-cache PC space", ic},
	} {
		if err := write(sc.name, func(w *os.File) error {
			return plot.Scatter(w, []plot.Series{{
				Name: "CPU2017", Points: sc.res.Points, Labels: sc.res.Labels,
			}}, plot.ScatterOptions{
				Title: sc.title, XLabel: "PC1", YLabel: "PC2", PointLabels: true,
			})
		}); err != nil {
			return err
		}
	}

	// Figure 11: coverage planes with hulls.
	planes, _, err := experiments.Fig11(lab)
	if err != nil {
		return err
	}
	for i, pl := range planes {
		name := fmt.Sprintf("fig11-%s.svg", strings.ToLower(pl.Plane))
		title := fmt.Sprintf("Figure 11: CPU2017 vs CPU2006 (%s)", pl.Plane)
		plane := planes[i]
		if err := write(name, func(w *os.File) error {
			return plot.Scatter(w, []plot.Series{
				{Name: "CPU2017", Points: plane.Points2017, Hull: true},
				{Name: "CPU2006", Points: plane.Points2006, Hull: true},
			}, plot.ScatterOptions{Title: title, XLabel: "PC (x)", YLabel: "PC (y)"})
		}); err != nil {
			return err
		}
	}

	// Figure 12: power space.
	cov, _, err := experiments.Fig12(lab)
	if err != nil {
		return err
	}
	if err := write("fig12-power-space.svg", func(w *os.File) error {
		return plot.Scatter(w, []plot.Series{
			{Name: "CPU2017", Points: cov.Points2017, Hull: true},
			{Name: "CPU2006", Points: cov.Points2006, Hull: true},
		}, plot.ScatterOptions{
			Title:  "Figure 12: power-characteristic PC space",
			XLabel: "PC1 (DRAM power)", YLabel: "PC2 (core power)",
		})
	}); err != nil {
		return err
	}

	// Figure 13: emerging-workload dendrogram.
	em, err := experiments.Fig13(lab)
	if err != nil {
		return err
	}
	return write("fig13-emerging.svg", func(w *os.File) error {
		return plot.Dendrogram(w, em.Similarity.Dendrogram, plot.DendrogramOptions{
			Title: "Figure 13: CPU2017 vs EDA, graph, database",
		})
	})
}
