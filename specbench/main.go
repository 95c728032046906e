// Command specbench is the repository's end-to-end benchmark. It drives
// the real spec17d handler stack, server.New(...).Handler(), over a
// loopback listener with one closed-loop keep-alive client, on four
// workloads that are each dominated by one layer of the system:
//
//	cold-exact     exact fleet characterization: engine, trace, machine
//	cold-analytic  analytic characterization: per-leaf core, sched, store work
//	warm-analysis  store hits, then PCA and clustering: stats, cluster
//	hot-cache      result-cache hits: routing, admission, LRU, JSON encoding
//
// Build and run it from the repository root with run.sh:
//
//	bash specbench/run.sh --workload hot-cache --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones, measured with tracing off; with --trace 1 a
// separate traced pass reports the per-layer ones. The line before it
// records the run context and each metric's sample count. README.md
// explains the workloads and what each metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runContext is printed on the line before the result: what ran, on
// what, against which server configuration, and how many samples each
// metric rests on.
type runContext struct {
	Workload       string          `json:"workload"`
	Seed           int64           `json:"seed"`
	Trace          bool            `json:"trace"`
	NProc          int             `json:"nproc"`
	GOMAXPROCS     int             `json:"gomaxprocs"`
	GoVersion      string          `json:"go_version"`
	RequestsPerRun int             `json:"requests_per_run"`
	ServerConfig   string          `json:"server_config"`
	ServerStatus   json.RawMessage `json:"server_status,omitempty"`
	Samples        map[string]int  `json:"samples"`
	Failures       []string        `json:"failures,omitempty"`
}

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", defaultSeed, "seed of the request sequence")
	seconds := flag.Int("seconds", 10, "nominal run length in seconds; it fixes the request count")
	trace := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	record := flag.Bool("record", false, "print the result hashes of the default seed's requests (expected.json) and exit")
	flag.Parse()

	if *record {
		if err := recordExpected(os.Stdout); err != nil {
			exit(err)
		}
		return
	}
	w := lookupWorkload(*name)
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: specbench --workload %s --seed N --seconds S --trace 0|1\n",
			strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	rc := &runContext{
		Workload:     w.name,
		Seed:         *seed,
		Trace:        *trace == 1,
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		ServerConfig: serverConfigNote,
	}
	res, err := run(w, *seconds, rc)
	if err != nil {
		exit(err)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(struct {
		Context *runContext `json:"context"`
	}{rc}); err != nil {
		exit(err)
	}
	if err := enc.Encode(res); err != nil {
		exit(err)
	}
}

func exit(err error) {
	fmt.Fprintln(os.Stderr, "specbench:", err)
	os.Exit(1)
}
