// Command characterize runs the paper's characterization + similarity
// methodology on an arbitrary workload list and machine fleet — the
// tool a researcher would use to pick a benchmark subset for their own
// pre-silicon study.
//
// Examples:
//
//	characterize -workloads cpu2017                 # all 43 on the Table IV fleet
//	characterize -workloads 505.mcf_r,541.leela_r   # a custom list
//	characterize -dump-machines > fleet.json        # built-in fleet as JSON
//	characterize -machines fleet.json -subset 5     # custom fleet, 5-way subset
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/machine"
	"repro/internal/workloads"
)

func main() {
	var (
		wl      = flag.String("workloads", "cpu2017", "cpu2017 | cpu2006 | emerging | all | comma-separated names")
		machs   = flag.String("machines", "", "JSON machine-config file (default: built-in Table IV fleet)")
		dump    = flag.Bool("dump-machines", false, "write the built-in fleet as JSON to stdout and exit")
		instrs  = flag.Int("instructions", 200_000, "measured instructions per workload per machine")
		subsetK = flag.Int("subset", 3, "representative subset size (0 = skip)")
		width   = flag.Int("width", 60, "dendrogram width in columns")
		csvOut  = flag.String("csv", "", "also write the raw metric matrix as CSV to this file")
	)
	flag.Parse()

	if *dump {
		fleet, err := machine.Fleet()
		if err != nil {
			fatal(err)
		}
		if err := machine.WriteConfigs(os.Stdout, fleet); err != nil {
			fatal(err)
		}
		return
	}

	fleet, err := loadFleet(*machs)
	if err != nil {
		fatal(err)
	}
	entries, err := loadEntries(*wl)
	if err != nil {
		fatal(err)
	}

	opts := machine.RunOptions{Instructions: *instrs}
	if err := opts.Validate(); err != nil {
		fatal(err)
	}

	// Ctrl-C abandons the remaining measurements instead of hanging.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fmt.Fprintf(os.Stderr, "characterizing %d workloads on %d machines...\n", len(entries), len(fleet))
	char, err := core.CharacterizeWith(ctx, entries, fleet, opts, nil, nil, nil)
	if err != nil {
		fatal(err)
	}

	if *csvOut != "" {
		f, err := os.Create(*csvOut)
		if err != nil {
			fatal(err)
		}
		if err := char.WriteCSV(f, nil, nil); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *csvOut)
	}

	// Headline metrics on the first machine.
	first := fleet[0].Name()
	fmt.Printf("metrics on %s:\n", first)
	fmt.Printf("  %-20s %8s %8s %8s %8s %8s %8s\n",
		"workload", "l1d", "l2d", "l3", "l1i", "brmpki", "dtlbpmi")
	for _, label := range char.Labels {
		s, err := char.Sample(label, first)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("  %-20s %8.2f %8.2f %8.2f %8.2f %8.2f %8.0f\n", label,
			s.MustValue(counters.L1DMPKI), s.MustValue(counters.L2DMPKI),
			s.MustValue(counters.L3MPKI), s.MustValue(counters.L1IMPKI),
			s.MustValue(counters.BranchMPKI), s.MustValue(counters.DTLBMPMI))
	}

	if len(char.Labels) < 2 {
		return
	}
	sim, err := char.Similarity(core.DefaultSimilarityOptions())
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\n%d PCs retained (Kaiser), %.0f%% of variance\n\n",
		sim.NumPCs, sim.PCA.CumVarExplained[sim.NumPCs-1]*100)
	fmt.Print(sim.Dendrogram.Render(*width))

	if *subsetK > 0 && *subsetK <= len(char.Labels) {
		res := sim.Subset(*subsetK)
		fmt.Printf("\nrepresentative subset (k=%d): %s\n",
			*subsetK, strings.Join(res.Representatives, ", "))
		for i, cl := range res.Clusters {
			fmt.Printf("  cluster %d: %s\n", i+1, strings.Join(cl, ", "))
		}
	}
}

func loadFleet(path string) ([]*machine.Machine, error) {
	if path == "" {
		return machine.Fleet()
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return machine.ParseConfigs(f)
}

func loadEntries(spec string) ([]core.Entry, error) {
	var profiles []workloads.Profile
	switch spec {
	case "cpu2017":
		profiles = workloads.CPU2017()
	case "cpu2006":
		profiles = workloads.CPU2006()
	case "emerging":
		profiles = workloads.Emerging()
	case "all":
		profiles = workloads.All()
	default:
		for _, name := range strings.Split(spec, ",") {
			p, err := workloads.ByName(strings.TrimSpace(name))
			if err != nil {
				return nil, err
			}
			profiles = append(profiles, p)
		}
	}
	entries := make([]core.Entry, 0, len(profiles))
	for _, p := range profiles {
		entries = append(entries, core.Entry{Label: p.Name, Workload: p.Workload()})
	}
	return entries, nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "characterize: %v\n", err)
	os.Exit(1)
}
