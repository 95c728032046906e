//go:build !race

package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/sched"
	"repro/internal/store"
)

// fleetLeaves is the leaf count of one fleet characterization: every
// characterized entry on each of the seven Table IV machines.
const fleetLeaves = 686

// newShedTestServer is a server on the real compute path over a
// private memory store, returned with that store.
func newShedTestServer(t *testing.T, cfg Config) (*Server, *store.Store, *httptest.Server) {
	t.Helper()
	if testing.Short() {
		t.Skip("real fleet characterization")
	}
	st, err := store.Open(store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Store = st
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, st, ts
}

// waitForPool polls the server's scheduler until cond holds.
func waitForPool(t *testing.T, s *Server, what string, cond func(sched.Stats) bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond(s.pool.Stats()) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s: %+v", what, s.pool.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestInFlightBoundShedsWholeRequests: under MaxInFlight 1 the only
// shed is at the door. A lone cold exact build on a two-worker pool
// runs every one of its leaves and answers 200; a concurrent compute
// request is refused whole with 429 and starts no leaf of its own.
func TestInFlightBoundShedsWholeRequests(t *testing.T) {
	s, st, ts := newShedTestServer(t, Config{MaxInFlight: 1, SimWorkers: 2})
	admitted := make(chan struct{})
	release := make(chan struct{})
	s.computeStarted = func(string) {
		close(admitted)
		<-release
	}

	first := make(chan int, 1)
	go func() {
		code, _ := get(t, ts, "/v1/experiments/table1?instructions=2000&warmup=400")
		first <- code
	}()
	<-admitted

	// A different fidelity, so an admitted second request would have
	// started leaves of its own.
	resp, body := getWithHeaders(t, ts, "/v1/experiments/table1?instructions=3000&warmup=400", nil)
	requireShedEnvelope(t, resp, body)
	close(release)
	if code := <-first; code != http.StatusOK {
		t.Fatalf("lone cold exact build answered %d, want 200", code)
	}
	if misses := st.Stats().Misses; misses != fleetLeaves {
		t.Errorf("store misses = %d, want %d", misses, fleetLeaves)
	}
	if v := metricValue(t, ts, "spec17_sched_jobs_started_total"); v != fleetLeaves {
		t.Errorf("spec17_sched_jobs_started_total = %v, want %d", v, fleetLeaves)
	}
}

// holdWorkers takes every worker slot of s's scheduler until the
// returned release is called (or the test ends), so leaves submitted
// meanwhile queue however fast they would run.
func holdWorkers(t *testing.T, s *Server) (release func()) {
	t.Helper()
	n := s.pool.Workers()
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = s.pool.Queue(0).Do(context.Background(), "hold", func(context.Context) error {
				<-done
				return nil
			})
		}()
	}
	waitForPool(t, s, "every worker held", func(st sched.Stats) bool { return st.Inflight == n })
	var once sync.Once
	release = func() {
		once.Do(func() {
			close(done)
			wg.Wait()
		})
	}
	t.Cleanup(release)
	return release
}

// TestRetryAfterIgnoresQueueDepth: a request shed while a cold exact
// build has hundreds of leaves queued is told to retry within
// seconds, not after a delay scaled by the scheduler's backlog. The
// test holds both workers while the build submits its leaves, so the
// backlog forms whatever a leaf costs.
func TestRetryAfterIgnoresQueueDepth(t *testing.T) {
	s, _, ts := newShedTestServer(t, Config{MaxInFlight: 1, SimWorkers: 2})
	release := holdWorkers(t, s)
	first := make(chan int, 1)
	go func() {
		code, _ := get(t, ts, "/v1/experiments/table1?instructions=20000&warmup=4000")
		first <- code
	}()
	waitForPool(t, s, "a deep leaf backlog", func(st sched.Stats) bool { return st.Depth >= 100 })

	resp, body := getWithHeaders(t, ts, "/v1/experiments/table2", nil)
	if secs := requireShedEnvelope(t, resp, body); secs > 5 {
		t.Errorf("Retry-After = %d, want <= 5", secs)
	}
	release()
	if code := <-first; code != http.StatusOK {
		t.Errorf("build answered %d, want 200", code)
	}
}

// TestUpgradeOutlivesRequestTimeout: the request timeout is a deadline
// on interactive requests only. An exact upgrade has no client on the
// wire, so its leaves may run far longer than the timeout, and auto
// still converges to exact. The auto requests themselves may answer
// 504 while the analytic tier is cold; only convergence is asserted.
func TestUpgradeOutlivesRequestTimeout(t *testing.T) {
	_, _, ts := newShedTestServer(t, Config{SimWorkers: 2, RequestTimeout: 100 * time.Millisecond})
	const path = "/v1/experiments/table1?instructions=2000&warmup=400&engine=auto"
	deadline := time.Now().Add(2 * time.Minute)
	for {
		code, body := get(t, ts, path)
		var er struct {
			Engine string `json:"engine"`
		}
		if code == http.StatusOK && json.Unmarshal(body, &er) == nil && er.Engine == "exact" {
			return
		}
		if code != http.StatusOK && code != http.StatusGatewayTimeout {
			t.Fatalf("GET %s: status %d: %s", path, code, body)
		}
		if time.Now().After(deadline) {
			t.Fatalf("auto never converged to exact under a 100ms request timeout (last: %d %s)", code, body)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
