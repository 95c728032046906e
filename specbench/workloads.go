package main

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
)

// The fidelities the workloads request. At exactInstructions one cold
// exact request (every characterization leaf simulated) takes a few
// seconds on two cores; the analytic tier runs at the server's default
// 400k instructions.
const (
	exactInstructions    = 20_000
	exactWarmup          = 4_000
	analyticInstructions = 400_000
)

// hotIDs are the experiments hot-cache cycles over. Their responses run
// from about 3 KB to 220 KB of JSON, so the encoding cost differs per id.
var hotIDs = []string{"table1", "table2", "fig1", "fig9", "fig10", "fig12", "table9", "table9-extended"}

// workload is one traffic mix.
type workload struct {
	name string
	// perSecond is the request rate the workload sustains on a 2-vCPU
	// host. A run sends a fixed ceil(seconds × perSecond) requests, at
	// least minRequests, so a slow phase of a noisy host stretches the
	// run instead of thinning its sample.
	perSecond   float64
	minRequests int
	// boots is how many times a run sets the server up; setup_s is the
	// median boot.
	boots int
	// sequence returns a seed's first n request paths.
	sequence func(seed int64, n int) ([]string, error)
	// engine and cached are the flags every response must carry.
	engine string
	cached bool
	// warm loads a store snapshot in setup and serves every request from
	// a freshly constructed server over it, like a restarted daemon.
	warm bool
	// prime lists the requests that fill the result cache in setup.
	prime []string
}

// cold reports whether every request measures the fleet afresh: it is
// neither served from the store nor from the result cache.
func (w *workload) cold() bool { return !w.warm && !w.cached }

var allWorkloads = []*workload{
	{
		name: "cold-exact", perSecond: 0.4, minRequests: 3, boots: 101,
		sequence: fidelitySweep("/v1/experiments/table1?instructions=%d&warmup="+strconv.Itoa(exactWarmup),
			exactInstructions, 256),
		engine: "exact",
	},
	{
		name: "cold-analytic", perSecond: 20, minRequests: 20, boots: 101,
		sequence: fidelitySweep("/v1/experiments/table1?instructions=%d&engine=analytic",
			analyticInstructions, 4096),
		engine: "analytic",
	},
	{
		name: "warm-analysis", perSecond: 1, minRequests: 5, boots: 11,
		sequence: repeatPath(fmt.Sprintf("/v1/experiments/table5?instructions=%d&warmup=%d",
			exactInstructions, exactWarmup)),
		engine: "exact", warm: true,
	},
	{
		name: "hot-cache", perSecond: 800, minRequests: 80, boots: 5,
		sequence: shuffledCycles(hotPaths()),
		engine:   "analytic", cached: true, prime: hotPaths(),
	},
}

func lookupWorkload(name string) *workload {
	for _, w := range allWorkloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() []string {
	names := make([]string, len(allWorkloads))
	for i, w := range allWorkloads {
		names[i] = w.name
	}
	return names
}

// requests is the fixed request count of a run of the given length.
func (w *workload) requests(seconds int) int {
	return max(w.minRequests, int(math.Ceil(float64(seconds)*w.perSecond)))
}

// traffic is what one request did beneath the server: store hits and
// misses, and the leaves the scheduler answered by joining an in-flight
// job with the same store key (a dedup join).
type traffic struct{ hits, misses, joins int64 }

// wantTraffic is the traffic every request must cause, given the
// characterization's leaves and their distinct store keys. Some entries
// share a workload, so the leaves hold fewer distinct keys than leaves.
// A cold request misses once per distinct key; every other leaf is a
// store hit or a dedup join, and which of the two is a race, so only
// their sum is fixed. A warm request misses nothing.
func (w *workload) wantTraffic(leaves, keys int64) (misses, reused int64) {
	switch {
	case w.cold():
		return keys, leaves - keys
	case w.warm:
		return 0, leaves
	}
	return 0, 0
}

// fidelitySweep returns requests at instructions = base+k for distinct
// seed-drawn offsets k in [0, span). Each request asks for a fidelity no
// earlier one used, so it misses the result cache, the Lab cache and
// the store; k moves the cost by at most span/base, so every request
// does about the same work.
func fidelitySweep(pattern string, base, span int) func(int64, int) ([]string, error) {
	return func(seed int64, n int) ([]string, error) {
		if n > span {
			return nil, fmt.Errorf("%d requests need more than the %d distinct fidelities available", n, span)
		}
		r := rand.New(rand.NewSource(seed))
		seen := make(map[int]bool, n)
		out := make([]string, 0, n)
		for len(out) < n {
			k := r.Intn(span)
			if seen[k] {
				continue
			}
			seen[k] = true
			out = append(out, fmt.Sprintf(pattern, base+k))
		}
		return out, nil
	}
}

// repeatPath returns the same request n times.
func repeatPath(path string) func(int64, int) ([]string, error) {
	return func(_ int64, n int) ([]string, error) {
		out := make([]string, n)
		for i := range out {
			out[i] = path
		}
		return out, nil
	}
}

// shuffledCycles returns whole cycles over paths, each in a seed-drawn
// order, so every path is requested equally often whatever the seed.
func shuffledCycles(paths []string) func(int64, int) ([]string, error) {
	return func(seed int64, n int) ([]string, error) {
		r := rand.New(rand.NewSource(seed))
		out := make([]string, 0, n+len(paths))
		for len(out) < n {
			for _, i := range r.Perm(len(paths)) {
				out = append(out, paths[i])
			}
		}
		return out, nil
	}
}

func hotPaths() []string {
	paths := make([]string, len(hotIDs))
	for i, id := range hotIDs {
		paths[i] = "/v1/experiments/" + id + "?engine=analytic"
	}
	return paths
}
