package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/machine"
)

// getWithHeaders is get with extra request headers.
func getWithHeaders(t *testing.T, ts *httptest.Server, path string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", path, err)
	}
	return resp, body
}

// requireShedEnvelope asserts a 429 too_many_requests envelope with an
// integer Retry-After, returning the parsed delay.
func requireShedEnvelope(t *testing.T, resp *http.Response, body []byte) int {
	t.Helper()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (body %s)", resp.StatusCode, body)
	}
	var e errorEnvelope
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("body %q is not an error envelope: %v", body, err)
	}
	if e.Error.Code != codeTooManyRequests {
		t.Errorf("error code %q, want %q", e.Error.Code, codeTooManyRequests)
	}
	ra := resp.Header.Get("Retry-After")
	if ra == "" {
		t.Fatal("429 without a Retry-After header")
	}
	secs, err := strconv.Atoi(ra)
	if err != nil {
		t.Fatalf("Retry-After %q does not parse as an integer: %v", ra, err)
	}
	if secs < 1 {
		t.Errorf("Retry-After = %d, want >= 1", secs)
	}
	return secs
}

func TestRateLimit429(t *testing.T) {
	s, computations := newTestServer(Config{RateLimit: 0.001, Burst: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// The bucket holds one token: the first request passes...
	if code, body := get(t, ts, "/v1/experiments/table1"); code != http.StatusOK {
		t.Fatalf("first request: status %d, body %s", code, body)
	}
	// ...and the second is shed with the full 429 contract.
	resp, body := getWithHeaders(t, ts, "/v1/experiments/table1", nil)
	requireShedEnvelope(t, resp, body)
	if n := computations.Load(); n != 1 {
		t.Errorf("computations = %d, want 1 (shed request must not compute)", n)
	}
	if v := metricValue(t, ts, `spec17_admission_rejected_total{reason="rate_limited"}`); v != 1 {
		t.Errorf("rejected_total{rate_limited} = %v, want 1", v)
	}

	// The snapshot surfaces through /v1/status.
	code, body := get(t, ts, "/v1/status")
	if code != http.StatusOK {
		t.Fatalf("/v1/status: %d", code)
	}
	var st struct {
		Admission struct {
			RateLimit float64          `json:"rate_limit"`
			Rejected  map[string]int64 `json:"rejected"`
		} `json:"admission"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Admission.RateLimit != 0.001 || st.Admission.Rejected["rate_limited"] != 1 {
		t.Errorf("status admission = %+v", st.Admission)
	}
}

// TestClientKeying: API keys carve out separate budgets; without one,
// the remote IP is the client, so a drained anonymous bucket must not
// block a keyed client and vice versa.
func TestClientKeying(t *testing.T) {
	s, _ := newTestServer(Config{RateLimit: 0.001, Burst: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code, _ := get(t, ts, "/v1/experiments/table1"); code != http.StatusOK {
		t.Fatal("anonymous first request rejected")
	}
	if resp, body := getWithHeaders(t, ts, "/v1/experiments/table1", nil); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("anonymous second request: %d, want 429 (%s)", resp.StatusCode, body)
	}
	// A keyed client has its own untouched bucket.
	if resp, body := getWithHeaders(t, ts, "/v1/experiments/table1", map[string]string{"X-API-Key": "alice"}); resp.StatusCode != http.StatusOK {
		t.Errorf("keyed client shared the anonymous bucket: %d (%s)", resp.StatusCode, body)
	}
	// And keys are isolated from one another.
	if resp, _ := getWithHeaders(t, ts, "/v1/experiments/table1", map[string]string{"X-API-Key": "alice"}); resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("alice's drained bucket admitted: %d", resp.StatusCode)
	}
	if resp, _ := getWithHeaders(t, ts, "/v1/experiments/table1", map[string]string{"X-API-Key": "bob"}); resp.StatusCode != http.StatusOK {
		t.Errorf("bob was charged for alice's requests: %d", resp.StatusCode)
	}
}

// TestCostModelCharging: one expensive report costs as much as the
// whole registry at that fidelity, so it exhausts a budget a cheap
// experiment request would not.
func TestCostModelCharging(t *testing.T) {
	s, _ := newTestServer(Config{RateLimit: 0.001, Burst: 3})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// The report prices at len(registry) tokens — far over Burst=3, so
	// it is clamped to a full bucket: admitted once, drained after.
	if code, body := get(t, ts, "/v1/report"); code != http.StatusOK {
		t.Fatalf("report: %d (%s)", code, body)
	}
	resp, body := getWithHeaders(t, ts, "/v1/experiments/table1", nil)
	requireShedEnvelope(t, resp, body)
	_ = body
}

func TestMaxInFlight429(t *testing.T) {
	s, _ := newTestServer(Config{MaxInFlight: 1, Workers: 4})
	release := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	s.compute = func(context.Context, string, machine.RunOptions, engine.Tier, bool) (any, error) {
		once.Do(func() { close(started) })
		<-release
		return "v", nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	first := make(chan int, 1)
	go func() {
		code, _ := get(t, ts, "/v1/experiments/table1")
		first <- code
	}()
	<-started

	// The slot is occupied: a concurrent request is shed immediately.
	resp, body := getWithHeaders(t, ts, "/v1/experiments/table2", nil)
	requireShedEnvelope(t, resp, body)
	if v := metricValue(t, ts, `spec17_admission_rejected_total{reason="inflight"}`); v != 1 {
		t.Errorf("rejected_total{inflight} = %v, want 1", v)
	}

	close(release)
	if code := <-first; code != http.StatusOK {
		t.Errorf("admitted request finished %d, want 200", code)
	}
	// The slot was released: the next request passes.
	if code, body := get(t, ts, "/v1/experiments/table2"); code != http.StatusOK {
		t.Errorf("request after release: %d (%s)", code, body)
	}
}

// TestRequestTimeout504: a compute request that outlives the
// server-side deadline answers 504 deadline_exceeded — distinct from
// the 499 a client's own disconnect produces.
func TestRequestTimeout504(t *testing.T) {
	s, _ := newTestServer(Config{RequestTimeout: 50 * time.Millisecond})
	s.compute = func(ctx context.Context, _ string, _ machine.RunOptions, _ engine.Tier, _ bool) (any, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body := get(t, ts, "/v1/experiments/table1")
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (body %s)", code, body)
	}
	var e errorEnvelope
	if err := json.Unmarshal(body, &e); err != nil || e.Error.Code != codeDeadlineExceeded {
		t.Errorf("body %s, want code %q", body, codeDeadlineExceeded)
	}
}

// TestParseRunOptionsRejects is the table the parseRunOptions fix
// demands: out-of-range values fail at parse time with the documented
// message, and duplicated parameters are refused (by the route
// wrapper, ahead of parseRunOptions) rather than silently resolved by
// Query.Get's first-wins.
func TestParseRunOptionsRejects(t *testing.T) {
	s, _ := newTestServer(Config{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		query, wantSub string
	}{
		{"instructions=-1", "must be a positive integer"},
		{"instructions=0", "must be a positive integer"},
		{"instructions=abc", "must be a positive integer"},
		{"warmup=-1", "must be a non-negative integer"},
		{"warmup=xyz", "must be a non-negative integer"},
		{"instructions=5000&instructions=6000", "at most once"},
		{"warmup=100&warmup=200", "at most once"},
	}
	for _, tc := range cases {
		code, body := get(t, ts, "/v1/report?"+tc.query)
		if code != http.StatusBadRequest {
			t.Errorf("%q: status %d, want 400", tc.query, code)
			continue
		}
		if !strings.Contains(string(body), tc.wantSub) {
			t.Errorf("%q: body %s, want it to mention %q", tc.query, body, tc.wantSub)
		}
	}
	// The boundary cases stay valid.
	for _, q := range []string{"instructions=1", "warmup=0", "instructions=5000&warmup=100"} {
		if code, body := get(t, ts, "/v1/report?"+q); code != http.StatusOK {
			t.Errorf("%q: rejected valid options: %d %s", q, code, body)
		}
	}
}

// TestBatchBodyTooLarge: an oversized POST body gets the distinct 413
// body_too_large envelope naming the limit, not a generic decode 400.
func TestBatchBodyTooLarge(t *testing.T) {
	s, _ := newTestServer(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"experiments": ["` + strings.Repeat("x", maxBatchBodyBytes+1024) + `"]}`
	resp, err := ts.Client().Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413 (body %.200s)", resp.StatusCode, raw)
	}
	var e errorEnvelope
	if err := json.Unmarshal(raw, &e); err != nil {
		t.Fatalf("body %.200q is not an envelope: %v", raw, err)
	}
	if e.Error.Code != codeBodyTooLarge {
		t.Errorf("code %q, want %q", e.Error.Code, codeBodyTooLarge)
	}
	if !strings.Contains(e.Error.Message, strconv.Itoa(maxBatchBodyBytes)) {
		t.Errorf("message %q does not name the %d-byte limit", e.Error.Message, maxBatchBodyBytes)
	}
}

// TestBatchItemShedding: with a one-token budget, a multi-experiment
// batch streams its first item and sheds the rest as per-item
// too_many_requests error lines — the stream itself stays 200 and the
// healthy item's result still arrives.
func TestBatchItemShedding(t *testing.T) {
	s, computations := newTestServer(Config{RateLimit: 0.001, Burst: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ids := experiments.SortedIDs()[:3]
	// concurrency=1 keeps submission order deterministic: the first
	// item takes the only token, the remaining two are shed.
	resp, err := ts.Client().Get(ts.URL + "/v1/batch?experiments=" + url.QueryEscape(strings.Join(ids, ",")) + "&concurrency=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d, want 200", resp.StatusCode)
	}
	raw, _ := io.ReadAll(resp.Body)
	var ok, shed int
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var bl batchLine
		if err := json.Unmarshal([]byte(line), &bl); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		switch {
		case bl.Status == "ok":
			ok++
			if bl.Result == nil {
				t.Errorf("healthy item %s has no result", bl.ID)
			}
		case bl.Error != nil && bl.Error.Code == codeTooManyRequests:
			shed++
		default:
			t.Errorf("unexpected line: %+v", bl)
		}
	}
	if ok != 1 || shed != 2 {
		t.Errorf("ok=%d shed=%d, want 1 ok and 2 shed\n%s", ok, shed, raw)
	}
	if n := computations.Load(); n != 1 {
		t.Errorf("computations = %d, want 1 (shed items must not compute)", n)
	}
}

// TestMaxHeaderBytes431: Serve's http.Server must bound header memory;
// a header larger than the configured cap is cut off with 431.
func TestMaxHeaderBytes431(t *testing.T) {
	s, _ := newTestServer(Config{MaxHeaderBytes: 4 << 10})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { defer close(done); _ = s.Serve(l) }()
	defer func() { _ = s.Close(); <-done }()

	req, err := http.NewRequest(http.MethodGet, "http://"+l.Addr().String()+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Padding", strings.Repeat("a", 64<<10))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("oversized-header request failed outright: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestHeaderFieldsTooLarge {
		t.Errorf("status %d, want 431", resp.StatusCode)
	}
	// A normal request on the same server still works.
	small, err := http.Get(fmt.Sprintf("http://%s/healthz", l.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	small.Body.Close()
	if small.StatusCode != http.StatusOK {
		t.Errorf("normal request after oversized one: %d", small.StatusCode)
	}
}
