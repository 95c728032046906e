package jobs

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/insight"
	"repro/internal/metrics"
	"repro/internal/telemetry"
)

// quietCfg returns a Config with a no-op logger and the given runner.
func quietCfg(r Runner) Config {
	return Config{
		Runner: r,
		Log:    telemetry.NewLogger(io.Discard, slog.LevelError),
	}
}

// okRunner completes every item instantly.
func okRunner(context.Context, Job, string) error { return nil }

func waitState(t *testing.T, m *Manager, id string, want ...State) Job {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		j, ok := m.Get(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		for _, s := range want {
			if j.State == s {
				return j
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	j, _ := m.Get(id)
	t.Fatalf("job %s stuck in %s, want one of %v", id, j.State, want)
	return Job{}
}

func TestJobLifecycleAndEvents(t *testing.T) {
	var calls atomic.Int32
	cfg := quietCfg(func(ctx context.Context, j Job, item string) error {
		calls.Add(1)
		if item == "bad" {
			return errors.New("synthetic failure")
		}
		return nil
	})
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	j, err := m.Submit(Spec{Experiments: []string{"a", "bad", "c"}})
	if err != nil {
		t.Fatal(err)
	}
	if j.State != StatePending || len(j.Items) != 3 {
		t.Fatalf("submitted job = %+v", j)
	}

	// Subscribe before Start so every event is observed.
	snap, ch, cancel, ok := m.Subscribe(j.ID)
	if !ok {
		t.Fatal("Subscribe failed")
	}
	defer cancel()
	if snap.Type != "state" || snap.State != StatePending || snap.Total != 3 {
		t.Fatalf("snapshot event = %+v", snap)
	}

	m.Start()
	var events []Event
	for ev := range ch {
		events = append(events, ev)
		if ev.Terminal() {
			break
		}
	}
	last := events[len(events)-1]
	if !last.Terminal() || last.State != StateDone {
		t.Fatalf("terminal event = %+v", last)
	}
	if last.Done != 3 || last.Failed != 1 || last.Total != 3 {
		t.Fatalf("terminal progress = %+v", last)
	}
	items := 0
	for _, ev := range events {
		if ev.Type == "item" {
			items++
		}
	}
	if items != 3 {
		t.Fatalf("saw %d item events, want 3 (events: %+v)", items, events)
	}

	got := waitState(t, m, j.ID, StateDone)
	if got.Error != "" {
		t.Fatalf("mixed-result job recorded error %q", got.Error)
	}
	done, failed := got.Counts()
	if done != 3 || failed != 1 {
		t.Fatalf("counts = %d done, %d failed", done, failed)
	}
	if calls.Load() != 3 {
		t.Fatalf("runner called %d times, want 3", calls.Load())
	}
}

func TestAllItemsFailedMeansFailed(t *testing.T) {
	m, err := New(quietCfg(func(context.Context, Job, string) error {
		return errors.New("boom")
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	m.Start()
	j, err := m.Submit(Spec{Experiments: []string{"x", "y"}})
	if err != nil {
		t.Fatal(err)
	}
	got := waitState(t, m, j.ID, StateFailed)
	if got.Error == "" {
		t.Error("failed job carries no error")
	}
}

func TestCancelRunningJob(t *testing.T) {
	started := make(chan struct{})
	var once sync.Once
	m, err := New(quietCfg(func(ctx context.Context, j Job, item string) error {
		once.Do(func() { close(started) })
		<-ctx.Done()
		return ctx.Err()
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	m.Start()
	j, err := m.Submit(Spec{Experiments: []string{"a", "b"}})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	_, ch, cancelSub, ok := m.Subscribe(j.ID)
	if !ok {
		t.Fatal("Subscribe failed")
	}
	defer cancelSub()
	if _, err := m.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	// The terminal event fires only after the item goroutines unwind,
	// so the record is settled once it arrives.
	for ev := range ch {
		if ev.Terminal() {
			break
		}
	}
	got := waitState(t, m, j.ID, StateCancelled)
	// Interrupted items revert to pending: the record shows nothing
	// falsely completed.
	for _, it := range got.Items {
		if it.Status == ItemRunning || it.Status == ItemDone {
			t.Errorf("cancelled job item %s status %s", it.ID, it.Status)
		}
	}
	// Cancelling again is a no-op.
	if again, err := m.Cancel(j.ID); err != nil || again.State != StateCancelled {
		t.Errorf("re-cancel: %+v, %v", again, err)
	}
	// Cancelling an unknown id is an error.
	if _, err := m.Cancel("nope"); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("unknown cancel err = %v", err)
	}
}

func TestCancelPendingJobBeforeStart(t *testing.T) {
	m, err := New(quietCfg(okRunner))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	j, err := m.Submit(Spec{Experiments: []string{"a"}})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := m.Cancel(j.ID); err != nil || got.State != StateCancelled {
		t.Fatalf("cancel pending: %+v, %v", got, err)
	}
	m.Start()
	// The queued id must not resurrect the job.
	time.Sleep(20 * time.Millisecond)
	if got, _ := m.Get(j.ID); got.State != StateCancelled {
		t.Fatalf("cancelled job restarted: %s", got.State)
	}
}

// TestCrashResume is the package-level half of the crash-resume
// guarantee: a manager killed mid-sweep (no graceful checkpoint)
// reloads from the last per-item checkpoint, re-runs only what had
// not completed, and finishes the job.
func TestCrashResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.json")

	blockC := make(chan struct{})
	var phase1 []string
	var mu sync.Mutex
	cfg1 := quietCfg(func(ctx context.Context, j Job, item string) error {
		if item == "c" {
			close(blockC)
			<-ctx.Done()
			return ctx.Err()
		}
		mu.Lock()
		phase1 = append(phase1, item)
		mu.Unlock()
		return nil
	})
	cfg1.Path = path
	m1, err := New(cfg1)
	if err != nil {
		t.Fatal(err)
	}
	m1.Start()
	j, err := m1.Submit(Spec{Experiments: []string{"a", "b", "c", "d"}, Concurrency: 1})
	if err != nil {
		t.Fatal(err)
	}
	<-blockC // a and b are done (concurrency 1, in order), c in flight
	m1.Kill()

	mu.Lock()
	ran1 := append([]string(nil), phase1...)
	mu.Unlock()
	if len(ran1) != 2 {
		t.Fatalf("phase 1 completed %v, want [a b]", ran1)
	}

	var phase2 []string
	cfg2 := quietCfg(func(ctx context.Context, jb Job, item string) error {
		mu.Lock()
		phase2 = append(phase2, item)
		mu.Unlock()
		return nil
	})
	cfg2.Path = path
	m2, err := New(cfg2)
	if err != nil {
		t.Fatalf("reload: %v", err)
	}
	defer m2.Close()

	got, ok := m2.Get(j.ID)
	if !ok {
		t.Fatal("job lost across restart")
	}
	if got.State != StatePending || !got.Resumed {
		t.Fatalf("reloaded job state = %s resumed=%v", got.State, got.Resumed)
	}
	if got.Items[0].Status != ItemDone || got.Items[1].Status != ItemDone {
		t.Fatalf("completed items lost: %+v", got.Items)
	}

	m2.Start()
	waitState(t, m2, j.ID, StateDone)
	mu.Lock()
	defer mu.Unlock()
	if len(phase2) != 2 || phase2[0] != "c" || phase2[1] != "d" {
		t.Fatalf("resume re-ran %v, want [c d]", phase2)
	}
}

func TestSnapshotDiscardedOnCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := quietCfg(okRunner)
	cfg.Path = path
	m, err := New(cfg)
	if err == nil {
		t.Error("corrupt snapshot loaded without advisory error")
	}
	if m == nil {
		t.Fatal("corrupt snapshot prevented startup")
	}
	defer m.Close()
	m.Start()
	if j, err := m.Submit(Spec{Experiments: []string{"a"}}); err != nil {
		t.Fatal(err)
	} else {
		waitState(t, m, j.ID, StateDone)
	}
}

func TestWebhookRetryThenDeliver(t *testing.T) {
	var hits atomic.Int32
	var gotBody atomic.Value
	sink := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) < 3 {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		b, _ := io.ReadAll(r.Body)
		gotBody.Store(string(b))
	}))
	defer sink.Close()

	cfg := quietCfg(okRunner)
	cfg.Webhook = WebhookConfig{backoff: time.Millisecond}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	m.Start()
	j, err := m.Submit(Spec{Experiments: []string{"a"}, Webhook: sink.URL})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if got, _ := m.Get(j.ID); got.WebhookDelivered {
			if got.WebhookAttempts != 3 {
				t.Errorf("attempts = %d, want 3", got.WebhookAttempts)
			}
			body, _ := gotBody.Load().(string)
			for _, want := range []string{`"event":"job.done"`, j.ID} {
				if !strings.Contains(body, want) {
					t.Errorf("webhook body missing %q:\n%s", want, body)
				}
			}
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("webhook never delivered")
}

func TestWebhookGivesUpAfterMaxAttempts(t *testing.T) {
	var hits atomic.Int32
	sink := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusBadGateway)
	}))
	defer sink.Close()

	cfg := quietCfg(okRunner)
	cfg.Webhook = WebhookConfig{backoff: time.Millisecond}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	j, err := m.Submit(Spec{Experiments: []string{"a"}, Webhook: sink.URL})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, j.ID, StateDone)
	// Wait for the delivery loop to exhaust its attempts before Close:
	// shutdown aborts a pending retry by design (redelivery happens at
	// the next boot), so closing early would end the loop at one attempt.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if got, _ := m.Get(j.ID); got.WebhookAttempts == webhookAttempts {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("webhook attempts never recorded (got %d)", func() int { j, _ := m.Get(j.ID); return j.WebhookAttempts }())
		}
		time.Sleep(5 * time.Millisecond)
	}
	m.Close()
	if hits.Load() != webhookAttempts {
		t.Errorf("sink hit %d times, want %d", hits.Load(), webhookAttempts)
	}
	if got, _ := m.Get(j.ID); got.WebhookDelivered || got.WebhookAttempts != webhookAttempts {
		t.Errorf("delivery record = delivered=%v attempts=%d", got.WebhookDelivered, got.WebhookAttempts)
	}
}

// TestWebhookExhaustedLogsOnce: with one logger shared by the jobs
// manager and the insight plane, as spec17d wires them, a webhook that
// runs out of attempts gives one warn line, from jobs, and one event.
// Each failed attempt before it logs at info.
func TestWebhookExhaustedLogsOnce(t *testing.T) {
	var logs strings.Builder
	var mu sync.Mutex
	log := telemetry.NewLogger(writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return logs.Write(p)
	}), slog.LevelInfo)
	plane := insight.New(insight.Config{Metrics: metrics.NewRegistry(), Log: log, Interval: time.Hour})
	defer plane.Stop()

	cfg := quietCfg(okRunner)
	cfg.Log = log
	cfg.Webhook = WebhookConfig{backoff: time.Millisecond, Client: &http.Client{Transport: failingTransport{}}}
	cfg.OnWebhookExhausted = plane.OnWebhookExhausted
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	j, err := m.Submit(Spec{Experiments: []string{"a"}, Webhook: "http://unreachable.invalid/hook"})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for len(plane.Events().Events(insight.EventWebhookExhausted, time.Time{}, 0)) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no webhook_exhausted event")
		}
		time.Sleep(time.Millisecond)
	}
	m.Close()

	mu.Lock()
	out := logs.String()
	mu.Unlock()
	var warns, infos int
	for _, line := range strings.Split(out, "\n") {
		switch {
		case strings.Contains(line, "level=warn"):
			warns++
			if !strings.Contains(line, `msg="jobs: webhook exhausted"`) || !strings.Contains(line, j.ID) {
				t.Errorf("unexpected warn line: %s", line)
			}
		case strings.Contains(line, `level=info msg="jobs: webhook delivery failed"`):
			infos++
		}
	}
	if warns != 1 || infos != webhookAttempts {
		t.Errorf("%d warn lines and %d failed-attempt info lines, want 1 and %d:\n%s", warns, infos, webhookAttempts, out)
	}
	if n := len(plane.Events().Events(insight.EventWebhookExhausted, time.Time{}, 0)); n != 1 {
		t.Errorf("%d webhook_exhausted events, want 1", n)
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestRedeliverAfterRestart: a crash between job completion and
// webhook delivery redelivers at the next boot.
func TestRedeliverAfterRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.json")

	// Phase 1: job completes but every delivery attempt fails.
	cfg1 := quietCfg(okRunner)
	cfg1.Path = path
	cfg1.Webhook = WebhookConfig{backoff: time.Millisecond,
		Client: &http.Client{Transport: failingTransport{}}}
	m1, err := New(cfg1)
	if err != nil {
		t.Fatal(err)
	}
	m1.Start()
	j, err := m1.Submit(Spec{Experiments: []string{"a"}, Webhook: "http://unreachable.invalid/hook"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m1, j.ID, StateDone)
	m1.Close()

	// Phase 2: boot with a working sink; Start redelivers.
	delivered := make(chan struct{})
	sink := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(delivered)
	}))
	defer sink.Close()
	cfg2 := quietCfg(okRunner)
	cfg2.Path = path
	cfg2.Webhook = WebhookConfig{backoff: time.Millisecond,
		Client: rewriteClient(sink.URL)}
	m2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	m2.Start()
	select {
	case <-delivered:
	case <-time.After(10 * time.Second):
		t.Fatal("undelivered webhook not retried after restart")
	}
}

// failingTransport refuses every request without touching the network.
type failingTransport struct{}

func (failingTransport) RoundTrip(*http.Request) (*http.Response, error) {
	return nil, errors.New("synthetic network failure")
}

// rewriteClient sends every request to base regardless of its URL.
func rewriteClient(base string) *http.Client {
	return &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
		rewritten, err := http.NewRequestWithContext(r.Context(), r.Method, base, r.Body)
		if err != nil {
			return nil, err
		}
		rewritten.Header = r.Header
		return http.DefaultTransport.RoundTrip(rewritten)
	})}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

func TestMaxJobsEviction(t *testing.T) {
	block := make(chan struct{})
	cfg := quietCfg(func(ctx context.Context, j Job, item string) error {
		select {
		case <-block:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	})
	cfg.MaxJobs = 1
	cfg.MaxRunning = 1
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	m.Start()
	j1, err := m.Submit(Spec{Experiments: []string{"a"}})
	if err != nil {
		t.Fatal(err)
	}
	// Table full with a non-terminal job: nothing evictable.
	if _, err := m.Submit(Spec{Experiments: []string{"b"}}); !errors.Is(err, ErrTooManyJobs) {
		t.Fatalf("overflow submit err = %v, want ErrTooManyJobs", err)
	}
	close(block)
	waitState(t, m, j1.ID, StateDone)
	// Terminal jobs are evictable: the next submit displaces j1.
	j2, err := m.Submit(Spec{Experiments: []string{"c"}})
	if err != nil {
		t.Fatalf("submit after completion: %v", err)
	}
	if _, ok := m.Get(j1.ID); ok {
		t.Error("oldest terminal job not evicted")
	}
	waitState(t, m, j2.ID, StateDone)
}

func TestListNewestFirstAndStats(t *testing.T) {
	m, err := New(quietCfg(okRunner))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	var ids []string
	for i := 0; i < 3; i++ {
		j, err := m.Submit(Spec{Experiments: []string{fmt.Sprintf("e%d", i)}})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	l := m.List()
	if len(l) != 3 || l[0].ID != ids[2] || l[2].ID != ids[0] {
		t.Fatalf("List order = %v", []string{l[0].ID, l[1].ID, l[2].ID})
	}
	if st := m.Stats(); st.Total != 3 || st.Pending != 3 {
		t.Fatalf("stats = %+v", st)
	}
	m.Start()
	for _, id := range ids {
		waitState(t, m, id, StateDone)
	}
	if st := m.Stats(); st.Done != 3 {
		t.Fatalf("post-run stats = %+v", st)
	}
}

func TestSubmitValidationAndClose(t *testing.T) {
	m, err := New(quietCfg(okRunner))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(Spec{}); err == nil {
		t.Error("empty sweep accepted")
	}
	m.Start()
	m.Close()
	if _, err := m.Submit(Spec{Experiments: []string{"a"}}); !errors.Is(err, ErrClosed) {
		t.Errorf("post-close submit err = %v, want ErrClosed", err)
	}
	// Subscribe to a terminal-free unknown id.
	if _, _, _, ok := m.Subscribe("nope"); ok {
		t.Error("Subscribe to unknown job succeeded")
	}
}

func TestSubscribeToTerminalJobReplaysAndCloses(t *testing.T) {
	m, err := New(quietCfg(okRunner))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	m.Start()
	j, err := m.Submit(Spec{Experiments: []string{"a"}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, j.ID, StateDone)
	snap, ch, cancel, ok := m.Subscribe(j.ID)
	if !ok {
		t.Fatal("Subscribe failed")
	}
	defer cancel()
	if !snap.Terminal() || snap.State != StateDone || snap.Done != 1 {
		t.Fatalf("terminal snapshot = %+v", snap)
	}
	if _, open := <-ch; open {
		t.Error("terminal job's event channel not closed")
	}
}
