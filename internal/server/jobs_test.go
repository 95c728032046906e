package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/jobs"
	"repro/internal/machine"
)

// postJSON posts v as JSON and returns status, headers, and body.
func postJSON(t *testing.T, ts *httptest.Server, path string, v any) (int, http.Header, []byte) {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("POST %s: reading body: %v", path, err)
	}
	return resp.StatusCode, resp.Header, buf.Bytes()
}

// submitJob posts the request and decodes the 202 job record.
func submitJob(t *testing.T, ts *httptest.Server, req map[string]any) jobs.Job {
	t.Helper()
	code, hdr, body := postJSON(t, ts, "/v1/jobs", req)
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs: status %d: %s", code, body)
	}
	var j jobs.Job
	if err := json.Unmarshal(body, &j); err != nil {
		t.Fatal(err)
	}
	if want := "/v1/jobs/" + j.ID; hdr.Get("Location") != want {
		t.Errorf("Location = %q, want %q", hdr.Get("Location"), want)
	}
	return j
}

// waitJobDone polls GET /v1/jobs/{id} until the job reaches a
// terminal state, failing the test after a deadline.
func waitJobDone(t *testing.T, ts *httptest.Server, id string) jobs.Job {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		code, body := get(t, ts, "/v1/jobs/"+id)
		if code != http.StatusOK {
			t.Fatalf("GET /v1/jobs/%s: status %d: %s", id, code, body)
		}
		var j jobs.Job
		if err := json.Unmarshal(body, &j); err != nil {
			t.Fatal(err)
		}
		if j.State.Terminal() {
			return j
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not reach a terminal state", id)
	return jobs.Job{}
}

// sseEvent is one parsed frame off an event stream.
type sseEvent struct {
	id    string
	event string
	data  jobs.Event
}

// readSSE consumes the stream until the terminal event (or EOF) and
// returns every parsed frame, skipping keepalive comments.
func readSSE(t *testing.T, ts *httptest.Server, id string) []sseEvent {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET events: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}
	var evs []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.event != "" {
				evs = append(evs, cur)
				if cur.data.Terminal() {
					return evs
				}
			}
			cur = sseEvent{}
		case strings.HasPrefix(line, ":"):
			// keepalive comment
		case strings.HasPrefix(line, "id: "):
			cur.id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &cur.data); err != nil {
				t.Fatalf("parsing SSE data %q: %v", line, err)
			}
		}
	}
	return evs
}

// resultLine is one parsed NDJSON line, reduced to the fields that
// must be identical between a job's results and a batch response
// (elapsed_ms, cached, and trace_id legitimately differ per request).
type resultLine struct {
	ID     string          `json:"id"`
	Status string          `json:"status"`
	Engine string          `json:"engine"`
	Result json.RawMessage `json:"result"`
	Error  *errorDetail    `json:"error"`
}

func parseLines(t *testing.T, body []byte) []resultLine {
	t.Helper()
	var lines []resultLine
	for _, raw := range strings.Split(strings.TrimSpace(string(body)), "\n") {
		var l resultLine
		if err := json.Unmarshal([]byte(raw), &l); err != nil {
			t.Fatalf("parsing NDJSON line %q: %v", raw, err)
		}
		lines = append(lines, l)
	}
	return lines
}

// TestJobLifecycle drives the whole async path over HTTP: submit a
// sweep, watch it through SSE, poll it to done and fetch the results
// — and the result bytes must equal what /v1/batch returns for the
// same inputs.
func TestJobLifecycle(t *testing.T) {
	s, computations := newTestServer(Config{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	j := submitJob(t, ts, map[string]any{
		"experiments":  []string{"table1", "table2", "fig2"},
		"instructions": 5000,
	})
	if len(j.Items) != 3 {
		t.Fatalf("job has %d items, want 3", len(j.Items))
	}

	evs := readSSE(t, ts, j.ID)
	if len(evs) == 0 {
		t.Fatal("no SSE events")
	}
	last := evs[len(evs)-1]
	if !last.data.Terminal() || last.data.State != jobs.StateDone {
		t.Fatalf("last SSE event = %+v, want terminal done", last.data)
	}
	if last.data.Done != 3 || last.data.Total != 3 {
		t.Errorf("terminal event done/total = %d/%d, want 3/3", last.data.Done, last.data.Total)
	}
	// Sequence ids must be strictly increasing — they are the SSE
	// Last-Event-ID a reconnecting client would resume from.
	for i := 1; i < len(evs); i++ {
		if evs[i].data.Seq <= evs[i-1].data.Seq {
			t.Errorf("event %d seq %d not after %d", i, evs[i].data.Seq, evs[i-1].data.Seq)
		}
	}

	done := waitJobDone(t, ts, j.ID)
	if done.State != jobs.StateDone {
		t.Fatalf("job state = %s, want done", done.State)
	}
	for _, it := range done.Items {
		if it.Status != jobs.ItemDone {
			t.Errorf("item %s status = %s, want done", it.ID, it.Status)
		}
	}

	// Results: one ok line per item, in submission order.
	code, body := get(t, ts, "/v1/jobs/"+j.ID+"/results")
	if code != http.StatusOK {
		t.Fatalf("results: status %d: %s", code, body)
	}
	got := parseLines(t, body)

	// The same inputs through POST /v1/batch.
	bcode, _, bbody := postJSON(t, ts, "/v1/batch", map[string]any{
		"experiments":  []string{"table1", "table2", "fig2"},
		"instructions": 5000,
	})
	if bcode != http.StatusOK {
		t.Fatalf("batch: status %d: %s", bcode, bbody)
	}
	want := parseLines(t, bbody)
	sort.Slice(want, func(a, b int) bool { return want[a].ID < want[b].ID })
	sortedGot := append([]resultLine(nil), got...)
	sort.Slice(sortedGot, func(a, b int) bool { return sortedGot[a].ID < sortedGot[b].ID })
	if len(sortedGot) != len(want) {
		t.Fatalf("job results have %d lines, batch %d", len(sortedGot), len(want))
	}
	for i := range want {
		g, w := sortedGot[i], want[i]
		if g.ID != w.ID || g.Status != "ok" || w.Status != "ok" {
			t.Errorf("line %d: job %q/%s vs batch %q/%s", i, g.ID, g.Status, w.ID, w.Status)
		}
		if !bytes.Equal(g.Result, w.Result) {
			t.Errorf("experiment %s: job result %s != batch result %s", g.ID, g.Result, w.Result)
		}
	}

	// Every item computed exactly once across job + batch + results:
	// the three share the cache, so 3 items = 3 computations.
	if n := computations.Load(); n != 3 {
		t.Errorf("computations = %d, want 3 (results and batch must reuse the job's cached measurements)", n)
	}
}

// TestJobResultsBeforeDone: a running job's results endpoint answers
// 409 with the job_not_done code rather than a partial stream.
func TestJobResultsBeforeDone(t *testing.T) {
	s, _ := newTestServer(Config{})
	defer s.Close()
	release := make(chan struct{})
	inner := s.jobsRunner
	s.jobsRunner = func(ctx context.Context, j jobs.Job, item string) error {
		<-release
		return inner(ctx, j, item)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	j := submitJob(t, ts, map[string]any{"experiments": []string{"table1"}, "instructions": 5000})
	code, body := get(t, ts, "/v1/jobs/"+j.ID+"/results")
	if code != http.StatusConflict {
		t.Fatalf("results while running: status %d, want 409 (body %s)", code, body)
	}
	var e errorEnvelope
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatal(err)
	}
	if e.Error.Code != codeJobNotDone {
		t.Errorf("code = %q, want %q", e.Error.Code, codeJobNotDone)
	}
	close(release)
	waitJobDone(t, ts, j.ID)
}

// TestJobEventsShedPastSubscriberCap: once a job has as many live
// event streams as the manager allows, GET /v1/jobs/{id}/events
// answers 429 with Retry-After; when one stream ends, a new one opens.
func TestJobEventsShedPastSubscriberCap(t *testing.T) {
	s, _ := newTestServer(Config{})
	defer s.Close()
	release := make(chan struct{})
	inner := s.jobsRunner
	s.jobsRunner = func(ctx context.Context, j jobs.Job, item string) error {
		<-release
		return inner(ctx, j, item)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	j := submitJob(t, ts, map[string]any{"experiments": []string{"table1"}, "instructions": 5000})
	var cancels []func()
	for {
		_, _, cancel, err := s.jobs.Subscribe(j.ID)
		if errors.Is(err, jobs.ErrTooManySubscribers) {
			break
		}
		if err != nil || len(cancels) > 1024 {
			t.Fatalf("after %d subscribers: err = %v", len(cancels), err)
		}
		cancels = append(cancels, cancel)
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + j.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("events past the cap: status %d, Retry-After %q, body %s",
			resp.StatusCode, resp.Header.Get("Retry-After"), body)
	}

	cancels[0]()
	close(release)
	if evs := readSSE(t, ts, j.ID); len(evs) == 0 || !evs[len(evs)-1].data.Terminal() {
		t.Fatalf("stream after one subscriber left: %+v", evs)
	}
	for _, cancel := range cancels[1:] {
		cancel()
	}
}

// TestJobCancel: DELETE /v1/jobs/{id} cancels a running sweep; its
// results report the never-run items as canceled, not as successes.
func TestJobCancel(t *testing.T) {
	s, _ := newTestServer(Config{})
	defer s.Close()
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	inner := s.jobsRunner
	s.jobsRunner = func(ctx context.Context, j jobs.Job, item string) error {
		select {
		case started <- struct{}{}:
		default:
		}
		select {
		case <-release:
		case <-ctx.Done():
			return ctx.Err()
		}
		return inner(ctx, j, item)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	j := submitJob(t, ts, map[string]any{
		"experiments": []string{"table1", "table2"}, "instructions": 5000, "concurrency": 1,
	})
	<-started

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+j.ID, nil)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: status %d", resp.StatusCode)
	}
	close(release)

	done := waitJobDone(t, ts, j.ID)
	if done.State != jobs.StateCancelled {
		t.Fatalf("state = %s, want cancelled", done.State)
	}
	code, body := get(t, ts, "/v1/jobs/"+j.ID+"/results")
	if code != http.StatusOK {
		t.Fatalf("results: status %d", code)
	}
	var sawCanceled bool
	for _, l := range parseLines(t, body) {
		if l.Status == "error" && l.Error != nil && l.Error.Code == codeCanceled {
			sawCanceled = true
		}
	}
	if !sawCanceled {
		t.Errorf("cancelled job results carry no canceled line: %s", body)
	}
}

// TestJobSubmitValidation: every malformed submission is a 400 in the
// standard envelope, before any work is admitted.
func TestJobSubmitValidation(t *testing.T) {
	s, computations := newTestServer(Config{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, tc := range []struct {
		name string
		req  map[string]any
		code string
		want string
	}{
		{"no experiments", map[string]any{}, codeUnknownExperiment, ""},
		{"unknown experiment", map[string]any{"experiments": []string{"nope"}}, codeUnknownExperiment, "nope"},
		{"bad engine", map[string]any{"experiments": []string{"table1"}, "engine": "warp"}, codeBadOptions, "valid: exact, analytic, auto"},
		// Jobs take no callback URL: completion is polled or streamed.
		{"webhook", map[string]any{"experiments": []string{"table1"}, "webhook": "http://127.0.0.1:1/hook"}, codeBadOptions, "webhook"},
		{"negative concurrency", map[string]any{"experiments": []string{"table1"}, "concurrency": -1}, codeBadOptions, "non-negative"},
		{"unknown field", map[string]any{"experiments": []string{"table1"}, "priority": 9}, codeBadOptions, "priority"},
		{"negative instructions", map[string]any{"experiments": []string{"table1"}, "instructions": -5}, codeBadOptions, ""},
	} {
		code, _, body := postJSON(t, ts, "/v1/jobs", tc.req)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %s)", tc.name, code, body)
			continue
		}
		var e errorEnvelope
		if err := json.Unmarshal(body, &e); err != nil {
			t.Errorf("%s: body is not the error envelope: %s", tc.name, body)
			continue
		}
		if e.Error.Code == "" || e.Error.Message == "" {
			t.Errorf("%s: envelope missing code/message: %s", tc.name, body)
		}
		if e.Error.Code != tc.code {
			t.Errorf("%s: code %q, want %q", tc.name, e.Error.Code, tc.code)
		}
		if tc.want != "" && !strings.Contains(string(body), tc.want) {
			t.Errorf("%s: body %s does not contain %q", tc.name, body, tc.want)
		}
	}
	if n := computations.Load(); n != 0 {
		t.Errorf("invalid submissions started %d computations, want 0", n)
	}

	// Unknown-job lookups: 404 in the envelope on every jobs route.
	for _, path := range []string{"/v1/jobs/zzz", "/v1/jobs/zzz/results", "/v1/jobs/zzz/events"} {
		code, body := get(t, ts, path)
		if code != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, code)
		}
		var e errorEnvelope
		if err := json.Unmarshal(body, &e); err != nil || e.Error.Code != codeUnknownJob {
			t.Errorf("GET %s: body %s, want %s envelope", path, body, codeUnknownJob)
		}
	}
}

// TestJobListPagination: GET /v1/jobs pages newest-first with
// X-Total-Count, like the experiment catalog.
func TestJobListPagination(t *testing.T) {
	s, _ := newTestServer(Config{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var ids []string
	for i := 0; i < 3; i++ {
		j := submitJob(t, ts, map[string]any{"experiments": []string{"table1"}, "instructions": 5000})
		ids = append(ids, j.ID)
		waitJobDone(t, ts, j.ID)
	}

	code, body := get(t, ts, "/v1/jobs?limit=2&offset=1")
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var got struct {
		Total  int        `json:"total"`
		Count  int        `json:"count"`
		Offset int        `json:"offset"`
		Jobs   []jobs.Job `json:"jobs"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Total != 3 || got.Count != 2 || got.Offset != 1 || len(got.Jobs) != 2 {
		t.Fatalf("total/count/offset/len = %d/%d/%d/%d, want 3/2/1/2", got.Total, got.Count, got.Offset, len(got.Jobs))
	}
	// Newest first: offset 1 skips the most recent submission.
	if got.Jobs[0].ID != ids[1] || got.Jobs[1].ID != ids[0] {
		t.Errorf("page = [%s %s], want [%s %s]", got.Jobs[0].ID, got.Jobs[1].ID, ids[1], ids[0])
	}

	for _, bad := range []string{"?limit=", "?limit=-1", "?offset=x", "?order=asc"} {
		code, body := get(t, ts, "/v1/jobs"+bad)
		if code != http.StatusBadRequest {
			t.Errorf("GET /v1/jobs%s: status %d, want 400 (body %s)", bad, code, body)
		}
	}
}

// reportP99 issues n sequential uncached /v1/report requests (each a
// distinct fidelity, so each is a real computation) and returns the
// p99 latency.
func reportP99(t *testing.T, ts *httptest.Server, n, instrBase int) time.Duration {
	t.Helper()
	durs := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		code, body := get(t, ts, fmt.Sprintf("/v1/report?instructions=%d", instrBase+i))
		if code != http.StatusOK {
			t.Fatalf("report: status %d: %s", code, body)
		}
		durs = append(durs, time.Since(start))
	}
	sort.Slice(durs, func(a, b int) bool { return durs[a] < durs[b] })
	return durs[len(durs)*99/100]
}

// TestInteractiveLatencyDuringJob is the isolation guarantee: a
// background sweep occupying its entire queue share must not move
// interactive /v1/report latency, because the background queue's cap
// always leaves pool workers free for interactive traffic. The job's
// items block for the whole measurement window — the worst case — and
// p99 must stay within 10% (plus a small absolute allowance for
// scheduler noise) of the idle baseline.
func TestInteractiveLatencyDuringJob(t *testing.T) {
	s, _ := newTestServer(Config{Workers: 4})
	defer s.Close()
	release := make(chan struct{})
	inner := s.compute
	s.compute = func(ctx context.Context, id string, opts machine.RunOptions, tier engine.Tier, background bool) (any, error) {
		if background {
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		time.Sleep(2 * time.Millisecond) // a small, fixed interactive cost
		return inner(ctx, id, opts, tier, background)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const samples = 50
	baseline := reportP99(t, ts, samples, 100_000)

	j := submitJob(t, ts, map[string]any{"experiments": []string{"all"}, "instructions": 5000})
	during := reportP99(t, ts, samples, 200_000)

	// The sweep must still be in flight, or the measurement proved
	// nothing: its items cannot finish until release closes.
	code, body := get(t, ts, "/v1/jobs/"+j.ID)
	if code != http.StatusOK {
		t.Fatalf("job get: status %d", code)
	}
	var cur jobs.Job
	if err := json.Unmarshal(body, &cur); err != nil {
		t.Fatal(err)
	}
	if cur.State.Terminal() {
		t.Fatal("job finished before the measurement window; items must block on release")
	}

	close(release)
	done := waitJobDone(t, ts, j.ID)
	if done.State != jobs.StateDone {
		t.Fatalf("job state = %s, want done", done.State)
	}

	limit := baseline + baseline/10 + 10*time.Millisecond
	if during > limit {
		t.Errorf("interactive p99 during job = %v, baseline %v (limit %v): background sweep starves interactive traffic",
			during, baseline, limit)
	}
}
