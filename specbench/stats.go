package main

import (
	"net/url"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/store"
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of xs, interpolating linearly between
// the order statistics around it; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 { return div(sum(xs), float64(len(xs))) }

// div is a/b, or 0 when b is 0 (a layer the workload never reached).
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB (Linux
// reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// parsePath splits a request path into the experiment id, run options
// and engine tier the server reads from it.
func parsePath(path string) (string, machine.RunOptions, engine.Tier, error) {
	var opts machine.RunOptions
	u, err := url.Parse(path)
	if err != nil {
		return "", opts, "", err
	}
	q := u.Query()
	for name, dst := range map[string]*int{"instructions": &opts.Instructions, "warmup": &opts.WarmupInstructions} {
		if v := q.Get(name); v != "" {
			if *dst, err = strconv.Atoi(v); err != nil {
				return "", opts, "", err
			}
		}
	}
	tier := engine.TierExact
	if v := q.Get("engine"); v != "" {
		tier = engine.Tier(v)
	}
	return strings.TrimPrefix(u.Path, "/v1/experiments/"), opts, tier, nil
}

// leafCount returns the number of (entry, machine) leaves in one fleet
// characterization, and how many distinct store keys they have.
func leafCount() (leaves, keys int64, err error) {
	fleet, err := machine.Fleet()
	if err != nil {
		return 0, 0, err
	}
	ids := map[string]bool{}
	for _, e := range experiments.Entries() {
		for _, m := range fleet {
			ids[store.KeyForEngine(m, e.Workload, machine.RunOptions{}, string(engine.TierExact)).ID()] = true
			leaves++
		}
	}
	return leaves, int64(len(ids)), nil
}
