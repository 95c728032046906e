package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/machine"
)

// newTestServer returns a Server whose compute path is replaced by a
// fast fake that records invocations, plus the invocation counter.
// The fake still flows through the real cache / coalescing / worker
// pool machinery — only the Lab computation itself is stubbed, so
// these tests stay fast enough for -race (a real fleet
// characterization takes minutes under the race detector; see
// integration_test.go for the real-Lab path).
func newTestServer(cfg Config) (*Server, *atomic.Int64) {
	s := New(cfg)
	var computations atomic.Int64
	s.compute = func(_ context.Context, id string, opts machine.RunOptions, _ engine.Tier, _ bool) (any, error) {
		computations.Add(1)
		c := opts.Canonical()
		return map[string]any{"id": id, "instructions": c.Instructions}, nil
	}
	return s, &computations
}

func get(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", path, err)
	}
	return resp.StatusCode, body
}

func metricValue(t *testing.T, ts *httptest.Server, name string) float64 {
	t.Helper()
	code, body := get(t, ts, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: status %d", code)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, name+" ") {
			var v float64
			if _, err := fmt.Sscanf(line, name+" %g", &v); err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			return v
		}
	}
	return 0
}

func TestCatalog(t *testing.T) {
	s, _ := newTestServer(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body := get(t, ts, "/v1/experiments")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	var got struct {
		Count       int `json:"count"`
		Experiments []struct {
			ID, Title, Kind string
		} `json:"experiments"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	want := experiments.IDs()
	if got.Count != len(want) || len(got.Experiments) != len(want) {
		t.Fatalf("count = %d, want %d", got.Count, len(want))
	}
	for i, e := range got.Experiments {
		if e.ID != want[i] {
			t.Errorf("experiment %d = %q, want %q", i, e.ID, want[i])
		}
		if e.Title == "" || e.Kind == "" {
			t.Errorf("experiment %q missing title/kind", e.ID)
		}
	}
}

func TestCacheHitVsMiss(t *testing.T) {
	s, computations := newTestServer(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var first, second struct {
		Cached bool            `json:"cached"`
		Result json.RawMessage `json:"result"`
	}
	code, body := get(t, ts, "/v1/experiments/table5?instructions=5000")
	if code != http.StatusOK {
		t.Fatalf("first request: status %d: %s", code, body)
	}
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Error("first request reported cached=true")
	}

	// Same fidelity spelled with the default warmup made explicit:
	// must be the same cache key.
	code, body = get(t, ts, "/v1/experiments/table5?instructions=5000&warmup=1000")
	if code != http.StatusOK {
		t.Fatalf("second request: status %d: %s", code, body)
	}
	if err := json.Unmarshal(body, &second); err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Error("second request reported cached=false, want a cache hit")
	}
	if string(first.Result) != string(second.Result) {
		t.Error("cached result differs from computed result")
	}
	if n := computations.Load(); n != 1 {
		t.Errorf("computations = %d, want 1", n)
	}

	// A different fidelity is a different key.
	if code, _ := get(t, ts, "/v1/experiments/table5?instructions=6000"); code != http.StatusOK {
		t.Fatalf("third request: status %d", code)
	}
	if n := computations.Load(); n != 2 {
		t.Errorf("computations = %d, want 2", n)
	}

	if v := metricValue(t, ts, "spec17d_cache_hits_total"); v != 1 {
		t.Errorf("spec17d_cache_hits_total = %v, want 1", v)
	}
	if v := metricValue(t, ts, "spec17d_cache_misses_total"); v != 2 {
		t.Errorf("spec17d_cache_misses_total = %v, want 2", v)
	}
}

// TestCoalescing proves the acceptance criterion at the orchestration
// layer: 16 concurrent requests for the same uncached experiment
// perform exactly one computation; the other 15 coalesce onto it.
// The computation is held open until all 15 waiters have joined the
// flight, so the test cannot pass by lucky sequential timing.
func TestCoalescing(t *testing.T) {
	const concurrent = 16
	s, computations := newTestServer(Config{})
	release := make(chan struct{})
	inner := s.compute
	s.compute = func(ctx context.Context, id string, opts machine.RunOptions, tier engine.Tier, _ bool) (any, error) {
		<-release
		return inner(ctx, id, opts, tier, false)
	}
	key := cacheKey("fig2", machine.RunOptions{Instructions: 5000}, engine.TierExact)
	s.computeStarted = func(k string) {
		if k != key {
			t.Errorf("computation for unexpected key %q", k)
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	type result struct {
		code      int
		cached    bool
		coalesced bool
		body      string
	}
	results := make(chan result, concurrent)
	var wg sync.WaitGroup
	for i := 0; i < concurrent; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, body := get(t, ts, "/v1/experiments/fig2?instructions=5000")
			var r struct {
				Cached    bool            `json:"cached"`
				Coalesced bool            `json:"coalesced"`
				Result    json.RawMessage `json:"result"`
			}
			_ = json.Unmarshal(body, &r)
			results <- result{code, r.Cached, r.Coalesced, string(body)}
		}()
	}
	// Release the (single) computation only once every other request
	// has joined its flight.
	deadline := time.Now().Add(10 * time.Second)
	for s.flight.Waiting(key) < concurrent-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d waiters joined the flight", s.flight.Waiting(key))
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	close(results)

	var leaders, waiters int
	for r := range results {
		if r.code != http.StatusOK {
			t.Fatalf("status %d: %s", r.code, r.body)
		}
		if r.cached {
			t.Error("request during the flight reported cached=true")
		}
		if r.coalesced {
			waiters++
		} else {
			leaders++
		}
	}
	if leaders != 1 || waiters != concurrent-1 {
		t.Errorf("leaders = %d, waiters = %d; want 1 and %d", leaders, waiters, concurrent-1)
	}
	if n := computations.Load(); n != 1 {
		t.Errorf("computations = %d, want exactly 1", n)
	}

	// A repeat request is now a recorded cache hit, visible in /metrics.
	code, body := get(t, ts, "/v1/experiments/fig2?instructions=5000")
	if code != http.StatusOK {
		t.Fatalf("repeat request: status %d", code)
	}
	var repeat struct {
		Cached bool `json:"cached"`
	}
	if err := json.Unmarshal(body, &repeat); err != nil {
		t.Fatal(err)
	}
	if !repeat.Cached {
		t.Error("repeat request not served from cache")
	}
	if v := metricValue(t, ts, "spec17d_computations_total"); v != 1 {
		t.Errorf("spec17d_computations_total = %v, want 1", v)
	}
	if v := metricValue(t, ts, "spec17d_coalesced_waiters_total"); v != concurrent-1 {
		t.Errorf("spec17d_coalesced_waiters_total = %v, want %d", v, concurrent-1)
	}
	if v := metricValue(t, ts, "spec17d_cache_hits_total"); v != 1 {
		t.Errorf("spec17d_cache_hits_total = %v, want 1", v)
	}
}

func TestBadParameters(t *testing.T) {
	s, computations := newTestServer(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, path := range []string{
		"/v1/experiments/table1?instructions=abc",
		"/v1/experiments/table1?instructions=-5",
		"/v1/experiments/table1?instructions=0",
		"/v1/experiments/table1?instructions=999999999999",
		"/v1/experiments/table1?warmup=xyz",
		"/v1/experiments/table1?warmup=-1",
		"/v1/experiments/table1?instructions=5000&warmup=5000", // warmup >= instructions
		"/v1/experiments/table1?warmup=400000",                 // >= default instructions
		"/v1/experiments/table1?fidelity=high",
		"/v1/report?instructions=abc",
	} {
		code, body := get(t, ts, path)
		if code != http.StatusBadRequest {
			t.Errorf("GET %s: status %d, want 400", path, code)
		}
		var e errorEnvelope
		if err := json.Unmarshal(body, &e); err != nil || e.Error.Message == "" {
			t.Errorf("GET %s: body %q is not an error envelope", path, body)
		}
		if e.Error.Code != codeBadOptions {
			t.Errorf("GET %s: error code %q, want %q", path, e.Error.Code, codeBadOptions)
		}
	}
	if n := computations.Load(); n != 0 {
		t.Errorf("bad requests triggered %d computations", n)
	}
}

func TestUnknownExperiment404(t *testing.T) {
	s, _ := newTestServer(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body := get(t, ts, "/v1/experiments/zzz")
	if code != http.StatusNotFound {
		t.Fatalf("status %d, want 404", code)
	}
	var e errorEnvelope
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatal(err)
	}
	if e.Error.Code != codeUnknownExperiment {
		t.Errorf("error code %q, want %q", e.Error.Code, codeUnknownExperiment)
	}
	if !strings.Contains(e.Error.Message, `"zzz"`) {
		t.Errorf("error %q does not name the unknown id", e.Error.Message)
	}
	want := experiments.SortedIDs()
	if len(e.Error.Known) != len(want) {
		t.Fatalf("known has %d ids, want %d", len(e.Error.Known), len(want))
	}
	for i := range want {
		if e.Error.Known[i] != want[i] {
			t.Errorf("known[%d] = %q, want %q", i, e.Error.Known[i], want[i])
		}
	}
}

// TestClientDisconnectCancelsComputation verifies the context plumbing
// end to end inside the handler stack: when the only client waiting on
// a computation disconnects, the compute function's context is
// canceled, so the simulation stops burning a worker.
func TestClientDisconnectCancelsComputation(t *testing.T) {
	s, _ := newTestServer(Config{})
	started := make(chan struct{})
	canceled := make(chan struct{})
	s.compute = func(ctx context.Context, id string, opts machine.RunOptions, tier engine.Tier, _ bool) (any, error) {
		close(started)
		select {
		case <-ctx.Done():
			close(canceled)
			return nil, ctx.Err()
		case <-time.After(10 * time.Second):
			return nil, fmt.Errorf("computation context never canceled")
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/experiments/table1?instructions=5000", nil)
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := ts.Client().Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()

	<-started
	cancel() // the lone client goes away

	select {
	case <-canceled:
	case <-time.After(5 * time.Second):
		t.Fatal("compute context not canceled after client disconnect")
	}
	if err := <-errc; err == nil {
		t.Error("canceled request unexpectedly succeeded")
	}

	// The aborted flight must not poison the key: the next request
	// computes fresh and succeeds.
	s.compute = func(_ context.Context, id string, opts machine.RunOptions, _ engine.Tier, _ bool) (any, error) {
		return map[string]any{"id": id}, nil
	}
	if code, body := get(t, ts, "/v1/experiments/table1?instructions=5000"); code != http.StatusOK {
		t.Errorf("request after canceled flight: status %d: %s", code, body)
	}
}

// TestDraining503 verifies that once Shutdown has begun, computation
// endpoints refuse new work with the draining envelope (keep-alive
// connections can still deliver requests mid-drain).
func TestDraining503(t *testing.T) {
	s, computations := newTestServer(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	s.draining.Store(true) // what Shutdown sets before draining

	for _, path := range []string{
		"/v1/experiments/table1?instructions=5000",
		"/v1/report",
	} {
		code, body := get(t, ts, path)
		if code != http.StatusServiceUnavailable {
			t.Errorf("GET %s: status %d, want 503", path, code)
		}
		var e errorEnvelope
		if err := json.Unmarshal(body, &e); err != nil || e.Error.Code != codeDraining {
			t.Errorf("GET %s: body %q, want a %q envelope", path, body, codeDraining)
		}
	}
	if n := computations.Load(); n != 0 {
		t.Errorf("draining server still ran %d computations", n)
	}
	// Liveness endpoints keep answering so orchestrators can watch the
	// drain.
	if code, _ := get(t, ts, "/healthz"); code != http.StatusOK {
		t.Errorf("healthz during drain: status %d", code)
	}
	if code, _ := get(t, ts, "/metrics"); code != http.StatusOK {
		t.Errorf("metrics during drain: status %d", code)
	}
}

func TestReportEndpoint(t *testing.T) {
	s, computations := newTestServer(Config{})
	var gotID string
	inner := s.compute
	s.compute = func(ctx context.Context, id string, opts machine.RunOptions, tier engine.Tier, _ bool) (any, error) {
		gotID = id
		return inner(ctx, id, opts, tier, false)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body := get(t, ts, "/v1/report?instructions=5000")
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	if gotID != reportID {
		t.Errorf("report computed id %q, want %q", gotID, reportID)
	}
	var r struct {
		Cached bool            `json:"cached"`
		Report json.RawMessage `json:"report"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatal(err)
	}
	if r.Cached || len(r.Report) == 0 {
		t.Errorf("unexpected report body: %s", body)
	}

	if code, body := get(t, ts, "/v1/report?instructions=5000"); code != http.StatusOK {
		t.Fatalf("repeat status %d: %s", code, body)
	} else if err := json.Unmarshal(body, &r); err != nil || !r.Cached {
		t.Errorf("repeat report not cached: %s", body)
	}
	if n := computations.Load(); n != 1 {
		t.Errorf("computations = %d, want 1", n)
	}
}

func TestLRUEviction(t *testing.T) {
	s, computations := newTestServer(Config{ResultCacheSize: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	paths := []string{
		"/v1/experiments/table1?instructions=5000",
		"/v1/experiments/table2?instructions=5000", // evicts table1
		"/v1/experiments/table1?instructions=5000", // recomputed
	}
	for _, p := range paths {
		if code, body := get(t, ts, p); code != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", p, code, body)
		}
	}
	if n := computations.Load(); n != 3 {
		t.Errorf("computations = %d, want 3 (eviction forces recompute)", n)
	}
	if v := metricValue(t, ts, "spec17d_cache_entries"); v != 1 {
		t.Errorf("spec17d_cache_entries = %v, want 1", v)
	}
}

// TestWorkerPoolBound checks that at most Config.Workers computations
// run concurrently even for distinct keys.
func TestWorkerPoolBound(t *testing.T) {
	s, _ := newTestServer(Config{Workers: 1})
	var inflight, maxInflight atomic.Int64
	s.compute = func(_ context.Context, id string, opts machine.RunOptions, _ engine.Tier, _ bool) (any, error) {
		n := inflight.Add(1)
		for {
			m := maxInflight.Load()
			if n <= m || maxInflight.CompareAndSwap(m, n) {
				break
			}
		}
		time.Sleep(10 * time.Millisecond)
		inflight.Add(-1)
		return id, nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ids := []string{"table1", "table2", "fig1", "fig2"}
	var wg sync.WaitGroup
	for _, id := range ids {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			if code, body := get(t, ts, "/v1/experiments/"+id+"?instructions=5000"); code != http.StatusOK {
				t.Errorf("GET %s: status %d: %s", id, code, body)
			}
		}()
	}
	wg.Wait()
	if m := maxInflight.Load(); m != 1 {
		t.Errorf("max concurrent computations = %d, want 1 (Workers: 1)", m)
	}
}

// TestGracefulShutdown starts a request whose computation is held
// open, shuts the server down mid-flight, and checks that the request
// still completes with its result (Shutdown drains in-flight work).
func TestGracefulShutdown(t *testing.T) {
	s, _ := newTestServer(Config{})
	started := make(chan struct{})
	release := make(chan struct{})
	inner := s.compute
	s.compute = func(ctx context.Context, id string, opts machine.RunOptions, tier engine.Tier, _ bool) (any, error) {
		close(started)
		<-release
		return inner(ctx, id, opts, tier, false)
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(l) }()

	url := "http://" + l.Addr().String() + "/v1/experiments/table1?instructions=5000"
	reqDone := make(chan error, 1)
	var status int
	go func() {
		resp, err := http.Get(url)
		if err != nil {
			reqDone <- err
			return
		}
		defer resp.Body.Close()
		status = resp.StatusCode
		_, err = io.ReadAll(resp.Body)
		reqDone <- err
	}()
	<-started

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()

	// The in-flight request must not be killed by Shutdown; release
	// its computation and watch it complete.
	time.Sleep(50 * time.Millisecond) // let Shutdown begin draining
	close(release)
	if err := <-reqDone; err != nil {
		t.Fatalf("in-flight request failed during shutdown: %v", err)
	}
	if status != http.StatusOK {
		t.Fatalf("in-flight request status %d, want 200", status)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve returned %v after clean shutdown", err)
	}

	// New connections are refused after shutdown.
	if _, err := http.Get(url); err == nil {
		t.Error("request after shutdown succeeded")
	}
}

func TestHealthz(t *testing.T) {
	s, _ := newTestServer(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	code, body := get(t, ts, "/healthz")
	if code != http.StatusOK || strings.TrimSpace(string(body)) != "ok" {
		t.Errorf("healthz = %d %q", code, body)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	s, _ := newTestServer(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := ts.Client().Post(ts.URL+"/v1/experiments", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST status %d, want 405", resp.StatusCode)
	}
}

func TestRequestMetricsRecorded(t *testing.T) {
	s, _ := newTestServer(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	get(t, ts, "/v1/experiments")
	get(t, ts, "/v1/experiments/zzz")
	_, body := get(t, ts, "/metrics")
	for _, want := range []string{
		`spec17d_requests_total{endpoint="/v1/experiments",code="200"} 1`,
		`spec17d_requests_total{endpoint="/v1/experiments/{id}",code="404"} 1`,
		`spec17d_request_duration_seconds_count{endpoint="/v1/experiments"} 1`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// doneCounter counts Done calls. fetch makes its first once it waits
// on its flight, so a positive count means the flight is registered.
type doneCounter struct {
	context.Context
	n atomic.Int64
}

func (c *doneCounter) Done() <-chan struct{} {
	c.n.Add(1)
	return c.Context.Done()
}

// TestFetchFlightsKeyedByLane: an interactive request never joins a
// background flight. With the only background slot held by a stalled
// table1 and a background table2 flight queued behind it, an
// interactive table2 computes on its own lane at once; the queued
// background flight then finds the result cached.
func TestFetchFlightsKeyedByLane(t *testing.T) {
	s := New(Config{Workers: 2, JobsDisabled: true})
	defer s.Close()
	stalled := make(chan struct{})
	release := make(chan struct{})
	var table2 atomic.Int64
	s.compute = func(ctx context.Context, id string, _ machine.RunOptions, _ engine.Tier, _ bool) (any, error) {
		if id == "table1" {
			close(stalled)
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		} else {
			table2.Add(1)
		}
		return map[string]any{"id": id}, nil
	}
	ctx, opts := context.Background(), machine.RunOptions{}
	bg := make(chan error, 2)
	go func() {
		_, _, _, err := s.fetch(ctx, "table1", opts, engine.TierExact, true)
		bg <- err
	}()
	<-stalled
	queued := &doneCounter{Context: ctx}
	go func() {
		_, _, _, err := s.fetch(queued, "table2", opts, engine.TierExact, true)
		bg <- err
	}()
	for deadline := time.Now().Add(10 * time.Second); queued.n.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("background table2 flight never started")
		}
	}

	type result struct {
		coalesced bool
		err       error
	}
	interactive := make(chan result, 1)
	go func() {
		_, _, coalesced, err := s.fetch(ctx, "table2", opts, engine.TierExact, false)
		interactive <- result{coalesced, err}
	}()
	var r result
	select {
	case r = <-interactive:
	case <-time.After(5 * time.Second):
		t.Error("interactive fetch waited behind the stalled background lane")
		close(release)
		r = <-interactive
		release = nil
	}
	if r.err != nil || r.coalesced {
		t.Errorf("interactive fetch: coalesced=%v err=%v, want its own computation", r.coalesced, r.err)
	}
	if release != nil {
		close(release)
	}
	for i := 0; i < 2; i++ {
		if err := <-bg; err != nil {
			t.Errorf("background fetch: %v", err)
		}
	}
	if n := table2.Load(); n != 1 {
		t.Errorf("table2 computed %d times, want 1", n)
	}
}
