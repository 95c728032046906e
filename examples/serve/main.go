// Example serve: run the spec17d characterization service in-process
// twice against one measurement-store snapshot, and show both caches
// doing their jobs: the in-process result cache (the repeated request
// is instant) and the persistent store (the restarted daemon's first
// uncached request is a warm start — it re-runs the experiment's
// analysis but simulates nothing).
//
//	go run ./examples/serve
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/store"
)

// fidelity keeps the one-time fleet characterization quick; both
// experiments and the repeat share one Lab and one cache.
const fidelity = "instructions=2000"

func main() {
	dir, err := os.MkdirTemp("", "spec17-serve-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	snapshot := filepath.Join(dir, "measurements.json")

	fmt.Println("--- cold daemon (empty store) ---")
	cold := runDaemon(snapshot)
	fmt.Println("\n--- warm daemon (restarted on the persisted store) ---")
	warm := runDaemon(snapshot)

	fmt.Printf("\nwarm start: first /v1/experiments request %v -> %v (%.0fx faster), store misses %g -> %g\n",
		cold.firstLatency.Round(time.Millisecond),
		warm.firstLatency.Round(time.Millisecond),
		float64(cold.firstLatency)/float64(warm.firstLatency),
		cold.storeMisses, warm.storeMisses)
}

type daemonStats struct {
	firstLatency time.Duration
	storeMisses  float64
}

// runDaemon boots a server backed by the snapshot, queries two
// experiments plus a repeat, persists the store, and shuts down —
// one full daemon lifecycle.
func runDaemon(snapshot string) daemonStats {
	reg := metrics.NewRegistry()
	st, err := store.Open(store.Config{Path: snapshot, Metrics: reg})
	if err != nil {
		log.Printf("warning: %v", err)
	}
	s := server.New(server.Config{Store: st, Metrics: reg})

	// Random port: the kernel picks one, the example prints it.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go func() {
		if err := s.Serve(l); err != nil {
			log.Fatal(err)
		}
	}()
	base := "http://" + l.Addr().String()
	fmt.Printf("spec17d serving on %s (store: %d records)\n", base, st.Len())

	var stats daemonStats
	for i, q := range []string{
		"/v1/experiments/table2?" + fidelity,
		"/v1/experiments/ratespeed?" + fidelity,
		"/v1/experiments/table2?" + fidelity, // repeat: served from result cache
	} {
		start := time.Now()
		cached, title := fetch(base + q)
		elapsed := time.Since(start)
		if i == 0 {
			stats.firstLatency = elapsed
		}
		fmt.Printf("GET %-44s %8s cached=%v (%s)\n",
			q, elapsed.Round(time.Millisecond), cached, title)
	}

	// Batch streaming: several experiments over one connection, each
	// result arriving as its own NDJSON line the moment it completes.
	batch := "/v1/batch?experiments=table2,ratespeed,table7&" + fidelity
	fmt.Printf("GET %s\n", batch)
	streamBatch(base + batch)

	// Interactive traffic: ask for an experiment with engine=auto. The
	// first answer is served by the closed-form analytic engine (no
	// simulation, milliseconds) while a background worker re-measures
	// exactly; polling the same URL flips to the exact tier, and the
	// flipped answer is byte-identical to a direct engine=exact request.
	interactiveTraffic(base)

	stats.storeMisses = metric(base, "spec17_store_misses_total")
	fmt.Printf("store: hits %g, misses (simulations) %g\n",
		metric(base, "spec17_store_hits_total"), stats.storeMisses)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		log.Fatal(err)
	}
	if err := st.Save(); err != nil {
		log.Fatal(err)
	}
	return stats
}

// interactiveTraffic demonstrates the auto engine tier: analytic
// first answer, background exact upgrade, converged result identical
// to a direct exact request.
func interactiveTraffic(base string) {
	url := base + "/v1/experiments/fig9?" + fidelity
	type engineResult struct {
		Engine         string          `json:"engine"`
		UpgradePending bool            `json:"upgrade_pending"`
		Cached         bool            `json:"cached"`
		Result         json.RawMessage `json:"result"`
	}
	fetchEngine := func(u string) (engineResult, time.Duration) {
		start := time.Now()
		resp, err := http.Get(u)
		if err != nil {
			log.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			log.Fatalf("GET %s: status %d", u, resp.StatusCode)
		}
		var er engineResult
		if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
			log.Fatal(err)
		}
		return er, time.Since(start)
	}

	first, elapsed := fetchEngine(url + "&engine=auto")
	fmt.Printf("GET /v1/experiments/fig9&engine=auto      %8s engine=%s upgrade_pending=%v\n",
		elapsed.Round(time.Millisecond), first.Engine, first.UpgradePending)

	polls := 0
	deadline := time.Now().Add(60 * time.Second)
	upgraded := first
	for upgraded.Engine != "exact" {
		if time.Now().After(deadline) {
			log.Fatalf("auto never upgraded to exact (still %s after %d polls)", upgraded.Engine, polls)
		}
		time.Sleep(100 * time.Millisecond)
		upgraded, elapsed = fetchEngine(url + "&engine=auto")
		polls++
	}
	fmt.Printf("GET /v1/experiments/fig9&engine=auto      %8s engine=%s after %d polls (background upgrade landed)\n",
		elapsed.Round(time.Millisecond), upgraded.Engine, polls)

	direct, elapsed := fetchEngine(url + "&engine=exact")
	same := string(direct.Result) == string(upgraded.Result)
	fmt.Printf("GET /v1/experiments/fig9&engine=exact     %8s cached=%v identical-to-upgraded=%v\n",
		elapsed.Round(time.Millisecond), direct.Cached, same)
	if !same {
		log.Fatal("auto-upgraded result differs from direct exact result")
	}
}

// streamBatch reads a batch's NDJSON stream line by line, printing
// each experiment as it lands.
func streamBatch(url string) {
	start := time.Now()
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24) // result lines can be large
	for sc.Scan() {
		var line struct {
			ID        string `json:"id"`
			Status    string `json:"status"`
			Cached    bool   `json:"cached"`
			ElapsedMS int64  `json:"elapsed_ms"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			log.Fatalf("bad batch line %q: %v", sc.Text(), err)
		}
		fmt.Printf("  %8s  %-12s %s cached=%v (item %dms)\n",
			time.Since(start).Round(time.Millisecond), line.ID, line.Status, line.Cached, line.ElapsedMS)
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}
}

// fetch GETs one experiment and returns its cached flag and title.
func fetch(url string) (cached bool, title string) {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	var body struct {
		Title  string `json:"title"`
		Cached bool   `json:"cached"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		log.Fatal(err)
	}
	return body.Cached, body.Title
}

// metric scrapes one unlabelled sample from /metrics.
func metric(base, name string) float64 {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bad metric line %q: %v\n", line, err)
				os.Exit(1)
			}
			return v
		}
	}
	return 0
}
