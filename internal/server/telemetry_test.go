package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"

	"repro/internal/machine"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// newTracedServer is newTestServer plus a Tracer.
func newTracedServer(cfg Config) *Server {
	if cfg.Tracer == nil {
		cfg.Tracer = telemetry.NewTracer(telemetry.TracerConfig{})
	}
	s, _ := newTestServer(cfg)
	return s
}

func TestLivenessEndpoint(t *testing.T) {
	s, _ := newTestServer(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body := get(t, ts, "/v1/healthz")
	if code != http.StatusOK || !strings.Contains(string(body), `"ok"`) {
		t.Fatalf("live healthz = %d %s, want 200 ok", code, body)
	}

	// Draining flips liveness to 503 so load balancers stop routing
	// here, even while the listener still answers keep-alive requests.
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	code, body = get(t, ts, "/v1/healthz")
	if code != http.StatusServiceUnavailable || !strings.Contains(string(body), "draining") {
		t.Fatalf("draining healthz = %d %s, want 503 draining", code, body)
	}
}

func TestStatusEndpoint(t *testing.T) {
	st, err := store.Open(store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	st.Put(testKey("w", machine.RunOptions{}, "exact"), &machine.RawCounts{})
	s := newTracedServer(Config{Store: st})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// One computed and one cached request populate the counters.
	get(t, ts, "/v1/experiments/table1")
	get(t, ts, "/v1/experiments/table1")

	code, body := get(t, ts, "/v1/status")
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var got struct {
		GoVersion string  `json:"go_version"`
		Uptime    float64 `json:"uptime_seconds"`
		Draining  bool    `json:"draining"`
		Store     *struct {
			Entries int64 `json:"entries"`
			Bytes   int64 `json:"bytes"`
			Evicted int64 `json:"evicted"`
			Dirty   bool  `json:"dirty"`
		} `json:"store"`
		Sched struct {
			Workers int `json:"workers"`
		} `json:"sched"`
		Cache struct {
			Hits     int64   `json:"hits"`
			Misses   int64   `json:"misses"`
			HitRatio float64 `json:"hit_ratio"`
		} `json:"cache"`
		Trace struct {
			Enabled  bool `json:"enabled"`
			Capacity int  `json:"capacity"`
		} `json:"tracing"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("decoding status: %v\n%s", err, body)
	}
	if !strings.HasPrefix(got.GoVersion, "go") {
		t.Errorf("go_version = %q", got.GoVersion)
	}
	if got.Uptime <= 0 {
		t.Errorf("uptime_seconds = %v, want > 0", got.Uptime)
	}
	if got.Draining {
		t.Error("draining = true on a live server")
	}
	if got.Store == nil {
		t.Error("store section missing despite a configured store")
	} else if stats := st.Stats(); got.Store.Entries != 1 || got.Store.Bytes <= 0 || got.Store.Bytes != stats.Bytes || got.Store.Evicted != 0 {
		t.Errorf("store entries/bytes/evicted = %d/%d/%d, want 1/%d/0",
			got.Store.Entries, got.Store.Bytes, got.Store.Evicted, stats.Bytes)
	}
	if got.Sched.Workers <= 0 {
		t.Errorf("sched.workers = %d, want > 0", got.Sched.Workers)
	}
	if got.Cache.Hits != 1 || got.Cache.Misses != 1 || got.Cache.HitRatio != 0.5 {
		t.Errorf("cache hits/misses/ratio = %d/%d/%v, want 1/1/0.5",
			got.Cache.Hits, got.Cache.Misses, got.Cache.HitRatio)
	}
	if !got.Trace.Enabled || got.Trace.Capacity != 256 {
		t.Errorf("tracing = %+v, want enabled with capacity 256", got.Trace)
	}
}

func TestTracesEndpoint(t *testing.T) {
	s := newTracedServer(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// An inbound X-Request-Id becomes the trace id and is echoed back.
	req, _ := http.NewRequest("GET", ts.URL+"/v1/experiments/table1", nil)
	req.Header.Set("X-Request-Id", "req-from-client-1")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if id := resp.Header.Get("X-Trace-Id"); id != "req-from-client-1" {
		t.Errorf("X-Trace-Id = %q, want the inbound X-Request-Id", id)
	}

	// A request with no inbound id gets a generated one.
	resp, err = ts.Client().Get(ts.URL + "/v1/experiments/table2")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("X-Trace-Id") == "" {
		t.Error("no X-Trace-Id on a traced endpoint")
	}

	code, body := get(t, ts, "/v1/traces")
	if code != http.StatusOK {
		t.Fatalf("/v1/traces status %d: %s", code, body)
	}
	var got struct {
		Enabled bool                   `json:"enabled"`
		Count   int                    `json:"count"`
		Traces  []*telemetry.TraceData `json:"traces"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if !got.Enabled || got.Count < 2 {
		t.Fatalf("traces = enabled:%v count:%d, want enabled with >= 2", got.Enabled, got.Count)
	}
	// Newest first: the table2 request finished last.
	if got.Traces[0].Root.Name != "http.request" {
		t.Errorf("root span = %q, want http.request", got.Traces[0].Root.Name)
	}
	if got.Traces[0].Root.Attrs["experiment"] != "table2" {
		t.Errorf("newest trace experiment = %q, want table2", got.Traces[0].Root.Attrs["experiment"])
	}
	if got.Traces[0].Root.Attrs["status"] != "200" {
		t.Errorf("root status attr = %q, want 200", got.Traces[0].Root.Attrs["status"])
	}

	// Filters: by experiment, by limit, and absurd min_ms excludes all.
	code, body = get(t, ts, "/v1/traces?experiment=table1")
	if err := json.Unmarshal(body, &got); err != nil || code != 200 {
		t.Fatalf("filter status %d err %v", code, err)
	}
	if got.Count != 1 || got.Traces[0].TraceID != "req-from-client-1" {
		t.Errorf("experiment filter: count %d, id %q", got.Count, got.Traces[0].TraceID)
	}
	code, body = get(t, ts, "/v1/traces?limit=1")
	if err := json.Unmarshal(body, &got); err != nil || code != 200 || got.Count != 1 {
		t.Fatalf("limit=1: status %d count %d err %v", code, got.Count, err)
	}
	code, body = get(t, ts, "/v1/traces?min_ms=3600000")
	if err := json.Unmarshal(body, &got); err != nil || code != 200 || got.Count != 0 {
		t.Fatalf("min_ms filter: status %d count %d err %v", code, got.Count, err)
	}

	// Unknown and malformed parameters fail loudly.
	if code, _ := get(t, ts, "/v1/traces?oops=1"); code != http.StatusBadRequest {
		t.Errorf("unknown param: status %d, want 400", code)
	}
	if code, _ := get(t, ts, "/v1/traces?min_ms=fast"); code != http.StatusBadRequest {
		t.Errorf("bad min_ms: status %d, want 400", code)
	}
}

func TestTracesEndpointDisabled(t *testing.T) {
	s, _ := newTestServer(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body := get(t, ts, "/v1/traces")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	var got struct {
		Enabled bool `json:"enabled"`
		Count   int  `json:"count"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Enabled || got.Count != 0 {
		t.Errorf("disabled tracer: %+v, want enabled:false count:0", got)
	}
}

// TestTracingDisabledIsInvisible is the compatibility half of the
// tracing contract: with no Tracer configured, responses are
// byte-identical to what they would be with one — no X-Trace-Id
// header, no trace_id in batch lines.
func TestTracingDisabledIsInvisible(t *testing.T) {
	plain, _ := newTestServer(Config{})
	traced := newTracedServer(Config{})
	tsPlain := httptest.NewServer(plain.Handler())
	defer tsPlain.Close()
	tsTraced := httptest.NewServer(traced.Handler())
	defer tsTraced.Close()

	for _, path := range []string{
		"/v1/experiments/table1",
		"/v1/report?instructions=2000",
	} {
		codeP, bodyP := get(t, tsPlain, path)
		codeT, bodyT := get(t, tsTraced, path)
		if codeP != codeT || string(bodyP) != string(bodyT) {
			t.Errorf("%s: disabled tracing changed the response (%d/%d, %d vs %d bytes)",
				path, codeP, codeT, len(bodyP), len(bodyT))
		}
	}

	resp, err := tsPlain.Client().Get(tsPlain.URL + "/v1/experiments/table1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if id := resp.Header.Get("X-Trace-Id"); id != "" {
		t.Errorf("untraced server sent X-Trace-Id %q", id)
	}

	// Batch lines from the untraced server must not mention trace_id
	// at all (omitempty keeps the wire format unchanged).
	resp, err = tsPlain.Client().Get(tsPlain.URL + "/v1/batch?experiments=table1,table2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if strings.Contains(sc.Text(), "trace_id") {
			t.Errorf("untraced batch line mentions trace_id: %s", sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestAccessLogKeyOrder pins the access line's keys and their order:
// time level msg=request method path endpoint status bytes dur, then
// trace when the request was traced.
func TestAccessLogKeyOrder(t *testing.T) {
	var logBuf syncBuffer
	s := newTracedServer(Config{Log: telemetry.NewLogger(&logBuf, slog.LevelInfo)})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/v1/experiments/table1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	traceID := resp.Header.Get("X-Trace-Id")
	if traceID == "" {
		t.Fatal("traced request has no X-Trace-Id")
	}
	if code, _ := get(t, ts, "/healthz"); code != http.StatusOK {
		t.Fatalf("healthz status %d", code)
	}

	lines := strings.Split(strings.TrimSuffix(logBuf.String(), "\n"), "\n")
	want := []*regexp.Regexp{
		regexp.MustCompile(`^time=\S+Z level=info msg=request method=GET path=/v1/experiments/table1 ` +
			`endpoint=/v1/experiments/\{id\} status=200 bytes=[1-9]\d* dur=\S+ trace=` + regexp.QuoteMeta(traceID) + `$`),
		regexp.MustCompile(`^time=\S+Z level=info msg=request method=GET path=/healthz ` +
			`endpoint=/healthz status=200 bytes=3 dur=\S+$`),
	}
	if len(lines) != len(want) {
		t.Fatalf("got %d log lines, want %d:\n%s", len(lines), len(want), logBuf.String())
	}
	for i, re := range want {
		if !re.MatchString(lines[i]) {
			t.Errorf("line %d = %q\nwant %s", i, lines[i], re)
		}
	}
}

// syncBuffer is a bytes.Buffer safe for the logger's concurrent use.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
