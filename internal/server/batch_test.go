package server

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"

	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/telemetry"
	"strings"
	"sync"
	"testing"
	"time"
)

// decodeBatchLine parses one NDJSON line.
func decodeBatchLine(t *testing.T, line string) batchLine {
	t.Helper()
	var l batchLine
	if err := json.Unmarshal([]byte(line), &l); err != nil {
		t.Fatalf("decoding batch line %q: %v", line, err)
	}
	return l
}

// TestBatchStreamsIncrementally is the streaming contract: the first
// result line is readable while the batch's other experiments are
// still computing. Each stubbed computation blocks on its own release
// channel, so only the released experiment can complete. The server is
// tracing, so every line must also carry its own per-item trace id.
func TestBatchStreamsIncrementally(t *testing.T) {
	releases := map[string]chan struct{}{
		"table1": make(chan struct{}),
		"table2": make(chan struct{}),
		"fig1":   make(chan struct{}),
	}
	s := New(Config{Workers: 4, Tracer: telemetry.NewTracer(telemetry.TracerConfig{})})
	s.compute = func(ctx context.Context, id string, _ machine.RunOptions, _ engine.Tier, _ bool) (any, error) {
		if ch, ok := releases[id]; ok {
			select {
			case <-ch:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return map[string]any{"id": id}, nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/v1/batch?experiments=table1,table2,fig1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q, want application/x-ndjson", ct)
	}

	br := bufio.NewReader(resp.Body)
	close(releases["table2"]) // only table2 may finish
	first, err := br.ReadString('\n')
	if err != nil {
		t.Fatalf("reading first line: %v", err)
	}
	l := decodeBatchLine(t, first)
	if l.ID != "table2" || l.Status != "ok" {
		t.Fatalf("first line = %+v, want table2/ok", l)
	}

	// The other two are still blocked — the stream delivered a result
	// before the batch finished. Release them and drain.
	close(releases["table1"])
	close(releases["fig1"])
	got := map[string]bool{}
	traceIDs := map[string]bool{l.TraceID: true}
	if l.TraceID == "" {
		t.Error("first line has no trace_id")
	}
	for {
		line, err := br.ReadString('\n')
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		l := decodeBatchLine(t, line)
		if l.Status != "ok" {
			t.Errorf("line %+v: status %q", l, l.Status)
		}
		if l.TraceID == "" {
			t.Errorf("line %q has no trace_id", l.ID)
		}
		got[l.ID] = true
		traceIDs[l.TraceID] = true
	}
	if !got["table1"] || !got["fig1"] {
		t.Fatalf("remaining lines = %v, want table1 and fig1", got)
	}
	// Each item is its own trace, so the three ids must be distinct.
	if len(traceIDs) != 3 {
		t.Errorf("distinct trace ids = %d, want 3", len(traceIDs))
	}
}

// TestBatchDisconnectCancelsOnlyOwnWork: two overlapping batches share
// one in-flight computation via request coalescing. Disconnecting one
// batch cancels the work only it was waiting on; the shared
// computation keeps running for the survivor.
func TestBatchDisconnectCancelsOnlyOwnWork(t *testing.T) {
	var (
		mu       sync.Mutex
		ctxs     = map[string]context.Context{}
		releases = map[string]chan struct{}{
			"table1": make(chan struct{}), // shared between both batches
			"table2": make(chan struct{}), // batch A only
			"fig1":   make(chan struct{}), // batch B only
		}
	)
	s := New(Config{Workers: 4})
	s.compute = func(ctx context.Context, id string, _ machine.RunOptions, _ engine.Tier, _ bool) (any, error) {
		mu.Lock()
		ctxs[id] = ctx
		mu.Unlock()
		select {
		case <-releases[id]:
			return map[string]any{"id": id}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ctxOf := func(id string) context.Context {
		mu.Lock()
		defer mu.Unlock()
		return ctxs[id]
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(time.Millisecond)
		}
	}

	actx, acancel := context.WithCancel(context.Background())
	defer acancel()
	areq, _ := http.NewRequestWithContext(actx, "GET", ts.URL+"/v1/batch?experiments=table1,table2", nil)
	aresp, err := ts.Client().Do(areq)
	if err != nil {
		t.Fatal(err)
	}
	defer aresp.Body.Close()
	waitFor("batch A computations", func() bool {
		return ctxOf("table1") != nil && ctxOf("table2") != nil
	})

	bresp, err := ts.Client().Get(ts.URL + "/v1/batch?experiments=table1,fig1")
	if err != nil {
		t.Fatal(err)
	}
	defer bresp.Body.Close()
	// B's table1 joined A's in-flight computation; fig1 is B's own.
	waitFor("batch B to coalesce onto table1", func() bool {
		return ctxOf("fig1") != nil && s.flight.Waiting(cacheKey("table1", machine.RunOptions{}, engine.TierExact)) >= 1
	})

	acancel() // batch A disconnects mid-stream

	// table2 had only batch A waiting: its computation is canceled.
	waitFor("table2 cancellation", func() bool {
		select {
		case <-ctxOf("table2").Done():
			return true
		default:
			return false
		}
	})
	// table1 is shared with batch B: it must keep running.
	select {
	case <-ctxOf("table1").Done():
		t.Fatal("shared computation canceled by one batch's disconnect")
	default:
	}

	close(releases["table1"])
	close(releases["fig1"])
	got := map[string]string{}
	br := bufio.NewReader(bresp.Body)
	for {
		line, err := br.ReadString('\n')
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		l := decodeBatchLine(t, line)
		got[l.ID] = l.Status
	}
	if got["table1"] != "ok" || got["fig1"] != "ok" {
		t.Fatalf("batch B lines = %v, want table1 and fig1 ok", got)
	}
}

// TestBatchValidation: malformed batches are rejected with a regular
// JSON error envelope before any streaming begins.
func TestBatchValidation(t *testing.T) {
	s, _ := newTestServer(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name, path, wantCode string
	}{
		{"no experiments", "/v1/batch", codeUnknownExperiment},
		{"unknown id", "/v1/batch?experiments=table1,nope", codeUnknownExperiment},
		{"unknown param", "/v1/batch?experiments=table1&typo=1", codeBadOptions},
		{"bad instructions", "/v1/batch?experiments=table1&instructions=abc", codeBadOptions},
		{"excess instructions", "/v1/batch?experiments=table1&instructions=999999999", codeBadOptions},
		{"negative concurrency", "/v1/batch?experiments=table1&concurrency=-1", codeBadOptions},
		{"repeated experiments", "/v1/batch?experiments=table1&experiments=table2", codeBadOptions},
	}
	for _, tc := range cases {
		code, body := get(t, ts, tc.path)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %s)", tc.name, code, body)
			continue
		}
		var env errorEnvelope
		if err := json.Unmarshal(body, &env); err != nil {
			t.Errorf("%s: non-JSON error body %q", tc.name, body)
			continue
		}
		if env.Error.Code != tc.wantCode {
			t.Errorf("%s: code %q, want %q", tc.name, env.Error.Code, tc.wantCode)
		}
	}
}

// TestBatchPost: the JSON-body encoding streams the same lines,
// duplicates collapse, and unknown body fields are rejected.
func TestBatchPost(t *testing.T) {
	s, computations := newTestServer(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := ts.Client().Post(ts.URL+"/v1/batch", "application/json",
		strings.NewReader(`{"experiments":["table1","table2","table1"],"instructions":2000}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2 (duplicate id must collapse): %q", len(lines), body)
	}
	got := map[string]bool{}
	for _, line := range lines {
		l := decodeBatchLine(t, line)
		if l.Status != "ok" {
			t.Errorf("line %+v: status %q", l, l.Status)
		}
		got[l.ID] = true
	}
	if !got["table1"] || !got["table2"] {
		t.Fatalf("lines = %v, want table1 and table2", got)
	}
	if n := computations.Load(); n != 2 {
		t.Errorf("computations = %d, want 2", n)
	}

	// Unknown body fields fail loudly.
	resp, err = ts.Client().Post(ts.URL+"/v1/batch", "application/json",
		strings.NewReader(`{"experiments":["table1"],"typo":1}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown body field: status %d, want 400", resp.StatusCode)
	}
}

// TestBodyTrailingData: POST /v1/batch takes exactly one JSON value. A second value or garbage after it is a 400
// bad_options that computes nothing, not a request for the first
// value alone; trailing white space is still accepted.
func TestBodyTrailingData(t *testing.T) {
	s, computations := newTestServer(Config{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(path, body string) (int, []byte) {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, raw
	}
	const first = `{"experiments":["table1"]}`
	for _, trailer := range []string{`{"experiments":["fig1"]}`, " trailing garbage", "]", `"x"`, "\n0"} {
		code, body := post("/v1/batch", first+trailer)
		var e errorEnvelope
		if code != http.StatusBadRequest || json.Unmarshal(body, &e) != nil || e.Error.Code != codeBadOptions {
			t.Errorf("/v1/batch with %q after the value: %d %s, want 400 %s", trailer, code, body, codeBadOptions)
		}
	}
	if n := computations.Load(); n != 0 {
		t.Fatalf("bodies with trailing data started %d computations, want 0", n)
	}
	if code, body := post("/v1/batch", first+" \r\n\t"); code != http.StatusOK {
		t.Errorf("/v1/batch with trailing white space: %d %s, want 200", code, body)
	}
}

// TestBatchConcurrencyCap: a batch evaluates at most its concurrency
// cap of experiments at once.
func TestBatchConcurrencyCap(t *testing.T) {
	var (
		mu      sync.Mutex
		running int
		peak    int
	)
	release := make(chan struct{})
	s := New(Config{Workers: 8, BatchConcurrency: 8})
	s.compute = func(ctx context.Context, id string, _ machine.RunOptions, _ engine.Tier, _ bool) (any, error) {
		mu.Lock()
		running++
		if running > peak {
			peak = running
		}
		mu.Unlock()
		select {
		case <-release:
		case <-ctx.Done():
		}
		mu.Lock()
		running--
		mu.Unlock()
		return map[string]any{"id": id}, nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	done := make(chan error, 1)
	go func() {
		code, body := get(t, ts, "/v1/batch?experiments=table1,table2,fig1,fig2,table5&concurrency=2")
		if code != http.StatusOK {
			t.Errorf("status %d: %s", code, body)
		}
		done <- nil
	}()
	// Give the batch time to overshoot the cap if it was going to.
	time.Sleep(100 * time.Millisecond)
	close(release)
	<-done
	if peak > 2 {
		t.Errorf("peak concurrent computations = %d, want <= 2", peak)
	}
}

// TestStalledHeaderTimeout: a connection that never finishes sending
// its request headers is cut at ReadHeaderTimeout instead of holding
// its goroutine forever (slowloris).
func TestStalledHeaderTimeout(t *testing.T) {
	s, _ := newTestServer(Config{ReadHeaderTimeout: 100 * time.Millisecond})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan struct{})
	go func() { defer close(serveDone); s.Serve(l) }()
	defer func() { s.Close(); <-serveDone }()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Start a request but never send the terminating blank line.
	if _, err := conn.Write([]byte("GET /healthz HTTP/1.1\r\nHost: stalled\r\n")); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	if n, err := conn.Read(buf); err == nil {
		t.Fatalf("stalled connection got %d response bytes, want the server to cut it", n)
	}
}
