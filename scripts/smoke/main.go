// Command smoke is `make smoke`: it runs the spec17 CLI on two
// experiments and an unknown id, then boots a real spec17d on a free
// port, walks the observability surface — /v1/healthz, /v1/status,
// /metrics, one traced /v1/report at tiny fidelity — and asserts the
// report's trace landed in /v1/traces with the pipeline stages
// visible. It exercises the built binaries, not the code in-process,
// so flag parsing, exit codes, logging, and the HTTP stack are all on
// the hook.
//
// Exit status is 0 on success; any failure prints a diagnostic and
// exits 1. No external tools (curl, jq) are needed.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/experiments"
)

// daemons holds a kill function per spec17d started; stopDaemons
// runs them, on success and on failure alike, so no daemon outlives
// the smoke test.
var daemons []func()

func stopDaemons() {
	for _, stop := range daemons {
		stop()
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "smoke: FAIL: "+format+"\n", args...)
	stopDaemons()
	os.Exit(1)
}

func get(base, path string) (int, []byte) {
	resp, err := http.Get(base + path)
	if err != nil {
		fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		fatalf("GET %s: reading body: %v", path, err)
	}
	return resp.StatusCode, body
}

// startDaemon boots the spec17d binary on a free port with args and
// waits until it answers /v1/healthz. It returns the daemon's base
// URL.
func startDaemon(bin, what string, args ...string) string {
	// Pick a free port by binding and releasing it.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fatalf("picking a port for the %s: %v", what, err)
	}
	addr := l.Addr().String()
	l.Close()
	base := "http://" + addr

	daemon := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	daemon.Stdout, daemon.Stderr = os.Stdout, os.Stderr
	if err := daemon.Start(); err != nil {
		fatalf("starting the %s: %v", what, err)
	}
	daemons = append(daemons, func() {
		daemon.Process.Kill()
		daemon.Wait()
	})
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return base
			}
		}
		if time.Now().After(deadline) {
			fatalf("%s not live after 10s", what)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func main() {
	// Build both commands into a temp dir so the smoke test always
	// runs what the tree currently says.
	tmp, err := os.MkdirTemp("", "spec17d-smoke")
	if err != nil {
		fatalf("mktemp: %v", err)
	}
	defer os.RemoveAll(tmp)
	bin, cli := filepath.Join(tmp, "spec17d"), filepath.Join(tmp, "spec17")
	for _, cmd := range []string{"spec17d", "spec17"} {
		build := exec.Command("go", "build", "-o", filepath.Join(tmp, cmd), "./cmd/"+cmd)
		build.Stdout, build.Stderr = os.Stdout, os.Stderr
		if err := build.Run(); err != nil {
			fatalf("building %s: %v", cmd, err)
		}
	}

	// The CLI prints each selected experiment under its registry title,
	// and rejects an unknown id with exit status 2.
	out, err := exec.Command(cli, "-engine", "analytic", "-instructions", "2000", "-exp", "table6,fig10").Output()
	if err != nil {
		fatalf("spec17 -exp table6,fig10: %v", err)
	}
	for _, id := range []string{"table6", "fig10"} {
		if d, _ := experiments.Lookup(id); !strings.Contains(string(out), "\n"+d.Title+"\n") {
			fatalf("spec17 -exp table6,fig10: output lacks the %s title %q", id, d.Title)
		}
	}
	err = exec.Command(cli, "-exp", "nope").Run()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
		fatalf("spec17 -exp nope: %v, want exit status 2", err)
	}
	fmt.Println("smoke: spec17 printed table6 and fig10 under their registry titles; unknown id exits 2")

	// -trace-slow high enough that the daemon never dumps a full span
	// tree into the CI log; the flag still goes through parsing. The
	// near-zero -rate-limit gives every client a one-token bucket that
	// essentially never refills, so the second compute request below
	// must be shed — driving the admission path end to end.
	defer stopDaemons()
	base := startDaemon(bin, "daemon", "-trace-slow", "5m", "-rate-limit", "0.01")
	fmt.Println("smoke: /v1/healthz live")

	// /v1/status must report an enabled tracer and a running scheduler.
	code, body := get(base, "/v1/status")
	if code != http.StatusOK {
		fatalf("/v1/status: %d: %s", code, body)
	}
	var status struct {
		Trace struct {
			Enabled bool `json:"enabled"`
		} `json:"tracing"`
		Sched struct {
			Workers int `json:"workers"`
		} `json:"sched"`
	}
	if err := json.Unmarshal(body, &status); err != nil {
		fatalf("/v1/status: %v\n%s", err, body)
	}
	if !status.Trace.Enabled || status.Sched.Workers <= 0 {
		fatalf("/v1/status: tracing %v, workers %d", status.Trace.Enabled, status.Sched.Workers)
	}
	fmt.Println("smoke: /v1/status ok")

	// One traced report at tiny fidelity, carrying a known request id.
	req, _ := http.NewRequest("GET", base+"/v1/report?instructions=2000", nil)
	req.Header.Set("X-Request-Id", "smoke-report-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		fatalf("report: %v", err)
	}
	rbody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fatalf("report: %d: %s", resp.StatusCode, rbody)
	}
	if got := resp.Header.Get("X-Trace-Id"); got != "smoke-report-1" {
		fatalf("report X-Trace-Id = %q, want smoke-report-1", got)
	}
	fmt.Printf("smoke: /v1/report ok (%d bytes)\n", len(rbody))

	// /metrics must expose the request and stage-duration families.
	code, body = get(base, "/metrics")
	if code != http.StatusOK {
		fatalf("/metrics: %d", code)
	}
	for _, want := range []string{"spec17d_requests_total", "spec17_stage_duration_seconds"} {
		if !strings.Contains(string(body), want) {
			fatalf("/metrics missing %s", want)
		}
	}
	fmt.Println("smoke: /metrics ok")

	// The report's trace is in the ring, stages and all.
	code, body = get(base, "/v1/traces?experiment=report")
	if code != http.StatusOK {
		fatalf("/v1/traces: %d: %s", code, body)
	}
	var traces struct {
		Count  int `json:"count"`
		Traces []struct {
			TraceID string          `json:"trace_id"`
			Root    json.RawMessage `json:"root"`
		} `json:"traces"`
	}
	if err := json.Unmarshal(body, &traces); err != nil {
		fatalf("/v1/traces: %v", err)
	}
	if traces.Count != 1 || traces.Traces[0].TraceID != "smoke-report-1" {
		fatalf("/v1/traces: count %d, want the smoke-report-1 trace", traces.Count)
	}
	for _, stage := range []string{`"characterize"`, `"simulate"`, `"sched.wait"`, `"pca"`, `"cluster"`} {
		if !strings.Contains(string(traces.Traces[0].Root), stage) {
			fatalf("trace missing %s span", stage)
		}
	}
	fmt.Println("smoke: /v1/traces has the report trace with all pipeline stages")

	// Query parameters are enforced from the route table: a repeated
	// one is a 400, not a silent first-wins.
	code, body = get(base, "/v1/traces?limit=1&limit=2")
	if code != http.StatusBadRequest || !strings.Contains(string(body), `"bad_options"`) {
		fatalf("/v1/traces?limit=1&limit=2: status %d body %s, want 400 bad_options", code, body)
	}
	fmt.Println("smoke: repeated query parameter rejected with 400")

	// /v1/accuracy answers the drift monitor's totals (no pairs yet —
	// nothing analytic has been upgraded — but the contract is live).
	code, body = get(base, "/v1/accuracy")
	if code != http.StatusOK || !strings.Contains(string(body), `"pairs_compared"`) {
		fatalf("/v1/accuracy: %d: %s", code, body)
	}
	fmt.Println("smoke: /v1/accuracy ok")

	// Measurement engines: the same experiment served analytic and
	// exact, each under a fresh API key (the near-zero refill rate means
	// the default client's bucket is already spent), and a bogus engine
	// value rejected with the allowed set — not silently defaulted.
	engineGet := func(apiKey, query string) (int, []byte) {
		req, _ := http.NewRequest("GET", base+"/v1/experiments/table1?instructions=2000"+query, nil)
		req.Header.Set("X-API-Key", apiKey)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			fatalf("experiment %s: %v", query, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, body
	}
	var engResp struct {
		Engine string `json:"engine"`
	}
	code, body = engineGet("smoke-analytic", "&engine=analytic")
	if code != http.StatusOK {
		fatalf("analytic experiment: %d: %s", code, body)
	}
	if err := json.Unmarshal(body, &engResp); err != nil || engResp.Engine != "analytic" {
		fatalf("analytic experiment: engine %q (err %v), want analytic", engResp.Engine, err)
	}
	fmt.Println("smoke: /v1/experiments/table1?engine=analytic served by the analytic engine")
	code, body = engineGet("smoke-exact", "&engine=exact")
	if code != http.StatusOK {
		fatalf("exact experiment: %d: %s", code, body)
	}
	if err := json.Unmarshal(body, &engResp); err != nil || engResp.Engine != "exact" {
		fatalf("exact experiment: engine %q (err %v), want exact", engResp.Engine, err)
	}
	fmt.Println("smoke: /v1/experiments/table1?engine=exact served by the exact engine")
	code, body = engineGet("smoke-bogus", "&engine=estimating")
	if code != http.StatusBadRequest || !strings.Contains(string(body), "valid: exact, analytic, auto") {
		fatalf("bogus engine: status %d body %s, want 400 naming the valid tiers", code, body)
	}
	fmt.Println("smoke: unknown engine value rejected with 400 and the allowed set")

	// The first report spent this client's only admission token; the
	// next compute request must be shed: 429, the too_many_requests
	// envelope, and an integer Retry-After.
	resp, err = http.Get(base + "/v1/report?instructions=2000")
	if err != nil {
		fatalf("rejected report: %v", err)
	}
	rbody, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		fatalf("rate-limited report: status %d, want 429: %s", resp.StatusCode, rbody)
	}
	if !strings.Contains(string(rbody), `"too_many_requests"`) {
		fatalf("rate-limited report: body %s lacks too_many_requests", rbody)
	}
	ra := resp.Header.Get("Retry-After")
	if ra == "" || strings.ContainsAny(ra, ".") {
		fatalf("rate-limited report: Retry-After %q, want integer seconds", ra)
	}
	if _, err := fmt.Sscanf(ra, "%d", new(int)); err != nil {
		fatalf("rate-limited report: Retry-After %q does not parse: %v", ra, err)
	}
	fmt.Println("smoke: admission shed the over-budget request with 429 + Retry-After", ra)

	// A daemon booted with -insight=false must not have /v1/accuracy
	// at all: 404 through the ordinary fallback, not an empty 200 —
	// clients can trust the discovery document.
	base2 := startDaemon(bin, "insight-less daemon", "-insight=false")
	code, body = get(base2, "/v1/accuracy")
	if code != http.StatusNotFound || !strings.Contains(string(body), "no such endpoint") {
		fatalf("insight-less GET /v1/accuracy: status %d body %s, want the standard 404", code, body)
	}
	fmt.Println("smoke: -insight=false daemon 404s /v1/accuracy")

	// Auto-upgrades run on the background lane: the first auto answer
	// is analytic with an upgrade pending, and polling converges to
	// exact.
	var auto struct {
		Engine         string `json:"engine"`
		UpgradePending bool   `json:"upgrade_pending"`
	}
	const autoPath = "/v1/experiments/table1?instructions=2000&engine=auto"
	code, body = get(base2, autoPath)
	if err := json.Unmarshal(body, &auto); code != http.StatusOK || err != nil ||
		auto.Engine != "analytic" || !auto.UpgradePending {
		fatalf("auto request: status %d body %s, want analytic with upgrade_pending", code, body)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for auto.Engine != "exact" {
		if time.Now().After(deadline) {
			fatalf("auto request never upgraded to exact: %s", body)
		}
		time.Sleep(100 * time.Millisecond)
		code, body = get(base2, autoPath)
		if err := json.Unmarshal(body, &auto); code != http.StatusOK || err != nil {
			fatalf("auto poll: status %d body %s", code, body)
		}
	}
	fmt.Println("smoke: auto request upgraded to exact")

	// -request-timeout is a deadline on interactive requests only: the
	// exact upgrade of an auto request, a cold exact fleet build whose
	// leaves run far longer than the timeout, still lands. The auto
	// answers may be 504 while the analytic tier is cold.
	base3 := startDaemon(bin, "request-timeout daemon", "-request-timeout", "100ms", "-sim-workers", "2")
	const timeoutPath = "/v1/experiments/table1?instructions=2000&warmup=400&engine=auto"
	deadline = time.Now().Add(2 * time.Minute)
	for auto.Engine = ""; auto.Engine != "exact"; {
		if time.Now().After(deadline) {
			fatalf("request-timeout auto request never upgraded to exact: %s", body)
		}
		code, body = get(base3, timeoutPath)
		if code != http.StatusOK && code != http.StatusGatewayTimeout {
			fatalf("request-timeout auto request: status %d body %s", code, body)
		}
		if code == http.StatusOK {
			if err := json.Unmarshal(body, &auto); err != nil {
				fatalf("request-timeout auto request: %v: %s", err, body)
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	fmt.Println("smoke: an exact upgrade outlived -request-timeout 100ms; auto converged to exact")
	fmt.Println("smoke: PASS")
}
