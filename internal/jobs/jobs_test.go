package jobs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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
	snap, ch, cancel, err := m.Subscribe(j.ID)
	if err != nil {
		t.Fatal(err)
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
	_, ch, cancelSub, err := m.Subscribe(j.ID)
	if err != nil {
		t.Fatal(err)
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
	if _, _, _, err := m.Subscribe("nope"); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("Subscribe to unknown job: err = %v, want ErrUnknownJob", err)
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
	snap, ch, cancel, err := m.Subscribe(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	if !snap.Terminal() || snap.State != StateDone || snap.Done != 1 {
		t.Fatalf("terminal snapshot = %+v", snap)
	}
	if _, open := <-ch; open {
		t.Error("terminal job's event channel not closed")
	}
}

// TestSubscriberCaps: a job takes maxJobSubscribers live subscribers
// and refuses the next; cancelling one makes room again. Past
// maxSubscribers over all jobs, a job with none is refused too, and
// the subscribers gauge counts exactly the live ones throughout.
func TestSubscriberCaps(t *testing.T) {
	m, err := New(quietCfg(okRunner)) // never started: jobs stay pending
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	submit := func() string {
		j, err := m.Submit(Spec{Experiments: []string{"a"}})
		if err != nil {
			t.Fatal(err)
		}
		return j.ID
	}
	gauge := func(want int) {
		t.Helper()
		if g := m.met.subscribers.Value(); g != float64(want) {
			t.Fatalf("subscribers gauge = %v, want %d", g, want)
		}
	}
	fill := func(id string) []func() {
		var cancels []func()
		for i := 0; i < maxJobSubscribers; i++ {
			_, _, cancel, err := m.Subscribe(id)
			if err != nil {
				t.Fatalf("subscriber %d of %d: %v", i+1, maxJobSubscribers, err)
			}
			cancels = append(cancels, cancel)
		}
		return cancels
	}

	first := submit()
	cancels := fill(first)
	gauge(maxJobSubscribers)
	if _, _, _, err := m.Subscribe(first); !errors.Is(err, ErrTooManySubscribers) {
		t.Fatalf("subscriber past the per-job cap: err = %v, want ErrTooManySubscribers", err)
	}
	gauge(maxJobSubscribers)
	cancels[0]()
	cancels[0]() // idempotent: counts once
	gauge(maxJobSubscribers - 1)
	if _, _, cancel, err := m.Subscribe(first); err != nil {
		t.Fatalf("subscriber after one cancelled: %v", err)
	} else {
		cancels[0] = cancel
	}
	gauge(maxJobSubscribers)

	for n := maxJobSubscribers; n < maxSubscribers; n += maxJobSubscribers {
		fill(submit())
	}
	gauge(maxSubscribers)
	if _, _, _, err := m.Subscribe(submit()); !errors.Is(err, ErrTooManySubscribers) {
		t.Fatalf("subscriber past the total cap: err = %v, want ErrTooManySubscribers", err)
	}

	// A terminal job's stream closes at once and holds no slot.
	if _, err := m.Cancel(first); err != nil {
		t.Fatal(err)
	}
	gauge(maxSubscribers - maxJobSubscribers)
	if _, ch, _, err := m.Subscribe(first); err != nil {
		t.Fatalf("subscribing to a terminal job: %v", err)
	} else if _, open := <-ch; open {
		t.Error("terminal job's event channel not closed")
	}
	gauge(maxSubscribers - maxJobSubscribers)
}

// TestSubscribersConcurrent: subscribers that attach and cancel from
// many goroutines while a job runs to completion leave no slot taken
// and the gauge at zero.
func TestSubscribersConcurrent(t *testing.T) {
	m, err := New(quietCfg(okRunner))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	j, err := m.Submit(Spec{Experiments: []string{"a", "b", "c", "d"}})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				_, ch, cancel, err := m.Subscribe(j.ID)
				if err != nil {
					t.Error(err)
					return
				}
				if i%2 == 0 {
					for range ch {
					}
				}
				cancel()
			}
		}()
	}
	m.Start()
	waitState(t, m, j.ID, StateDone)
	wg.Wait()
	m.mu.Lock()
	n := m.nsubs
	m.mu.Unlock()
	if g := m.met.subscribers.Value(); n != 0 || g != 0 {
		t.Fatalf("after every subscriber left: %d counted, gauge %v", n, g)
	}
}

// TestLoadSnapshotWithWebhookFields: a snapshot written while jobs
// could carry a webhook URL still loads. Its spec.webhook,
// webhook_delivered and webhook_attempts keys are ignored, the job is
// kept, and the next checkpoint no longer writes them.
func TestLoadSnapshotWithWebhookFields(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.json")
	old := `{"version": 1, "jobs": [{
		"id": "00000000000000ff",
		"spec": {"experiments": ["table2"], "webhook": "http://127.0.0.1:1/hook"},
		"state": "done",
		"created": "2026-01-02T03:04:05Z",
		"finished": "2026-01-02T03:04:05Z",
		"items": [{"id": "table2", "status": "done"}],
		"webhook_delivered": false,
		"webhook_attempts": 5
	}]}`
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := quietCfg(okRunner)
	cfg.Path = path
	m, err := New(cfg)
	if err != nil {
		t.Fatalf("old snapshot refused: %v", err)
	}
	m.Start()
	j, ok := m.Get("00000000000000ff")
	if !ok {
		t.Fatal("job from the old snapshot not kept")
	}
	if j.State != StateDone || len(j.Items) != 1 || j.Items[0].Status != ItemDone {
		t.Fatalf("loaded job = %+v", j)
	}
	m.Close() // writes the final checkpoint
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte("00000000000000ff")) || bytes.Contains(data, []byte("webhook")) {
		t.Fatalf("checkpoint after load:\n%s", data)
	}
}
