package jobs

// Per-job event streams. A subscriber gets a synthetic "state"
// snapshot first (so a late subscriber knows the full current picture
// without any history retention), then live events until the job goes
// terminal. The server turns this into SSE; a client that only polls
// GET /v1/jobs/{id} reads the same progress from the job record.

// Event is one job-progress notification.
type Event struct {
	// Seq orders events within one job. The synthetic snapshot a new
	// subscriber receives carries the job's current seq, so a client
	// reconnecting can detect it missed nothing it still needs: the
	// snapshot always reflects every prior event.
	Seq int `json:"seq"`
	// Type is "state" (job-level transition or snapshot) or "item"
	// (one sweep item finished).
	Type  string `json:"type"`
	Job   string `json:"job"`
	State State  `json:"state"`
	// Item and ItemStatus are set on "item" events.
	Item       string     `json:"item,omitempty"`
	ItemStatus ItemStatus `json:"item_status,omitempty"`
	Error      string     `json:"error,omitempty"`
	// Done / Failed / Total summarize sweep progress; Done counts
	// terminal items (including failures).
	Done   int `json:"done"`
	Failed int `json:"failed,omitempty"`
	Total  int `json:"total"`
	// ETASeconds estimates seconds to completion, as on Job.
	ETASeconds float64 `json:"eta_seconds,omitempty"`
}

// Terminal reports whether this event ends the stream.
func (e Event) Terminal() bool { return e.Type == "state" && e.State.Terminal() }

// subCap bounds a subscriber's buffer. A job emits at most
// len(items) item events plus a handful of state transitions; a
// subscriber that stops draining past this bound is dropped rather
// than allowed to block the manager.
func subCap(items int) int { return items + 8 }

// Subscriber bounds. Each live subscriber holds a buffer of subCap
// events here and a streaming goroutine in the server, so both one
// job's subscribers and all jobs' together are capped.
const (
	maxJobSubscribers = 32
	maxSubscribers    = 256
)

// Subscribe attaches a subscriber to a job. It returns a snapshot
// event describing the job right now, a channel of subsequent events
// (closed when the job reaches a terminal state or the subscriber is
// dropped), and a cancel function the caller must invoke when done.
// For a job already terminal the channel comes back closed. The error
// is ErrUnknownJob, or ErrTooManySubscribers past either bound.
func (m *Manager) Subscribe(id string) (snap Event, ch <-chan Event, cancel func(), err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	t, ok := m.jobs[id]
	if !ok {
		return Event{}, nil, nil, ErrUnknownJob
	}
	snap = m.stateEventLocked(t)
	if t.job.State.Terminal() {
		c := make(chan Event)
		close(c)
		return snap, c, func() {}, nil
	}
	if len(t.subs) >= maxJobSubscribers || m.nsubs >= maxSubscribers {
		return Event{}, nil, nil, ErrTooManySubscribers
	}
	c := make(chan Event, subCap(len(t.job.Items)))
	n := t.nextSub
	t.nextSub++
	t.subs[n] = c
	m.nsubs++
	m.met.subscribers.Inc()
	cancel = func() {
		m.mu.Lock()
		m.dropSubLocked(t, n)
		m.mu.Unlock()
	}
	return snap, c, cancel, nil
}

// dropSubLocked detaches subscriber n of t, if still attached, and
// closes its channel. Caller holds m.mu.
func (m *Manager) dropSubLocked(t *tracked, n int) {
	if c, live := t.subs[n]; live {
		delete(t.subs, n)
		close(c)
		m.nsubs--
		m.met.subscribers.Dec()
	}
}

// stateEventLocked builds a job-level event from current state.
// Caller holds m.mu.
func (m *Manager) stateEventLocked(t *tracked) Event {
	done, failed := t.job.Counts()
	return Event{
		Seq:        t.seq,
		Type:       "state",
		Job:        t.job.ID,
		State:      t.job.State,
		Error:      t.job.Error,
		Done:       done,
		Failed:     failed,
		Total:      len(t.job.Items),
		ETASeconds: m.etaLocked(t),
	}
}

// emitState broadcasts a job-level transition; terminal states also
// close every subscriber.
func (m *Manager) emitState(id string) {
	m.mu.Lock()
	t, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return
	}
	t.seq++
	ev := m.stateEventLocked(t)
	m.broadcastLocked(t, ev)
	if ev.Terminal() {
		for n := range t.subs {
			m.dropSubLocked(t, n)
		}
	}
	m.mu.Unlock()
}

// emitItem broadcasts one finished item.
func (m *Manager) emitItem(id string, idx int) {
	m.mu.Lock()
	t, ok := m.jobs[id]
	if !ok || idx >= len(t.job.Items) {
		m.mu.Unlock()
		return
	}
	t.seq++
	it := t.job.Items[idx]
	done, failed := t.job.Counts()
	ev := Event{
		Seq:        t.seq,
		Type:       "item",
		Job:        t.job.ID,
		State:      t.job.State,
		Item:       it.ID,
		ItemStatus: it.Status,
		Error:      it.Error,
		Done:       done,
		Failed:     failed,
		Total:      len(t.job.Items),
		ETASeconds: m.etaLocked(t),
	}
	m.broadcastLocked(t, ev)
	m.mu.Unlock()
}

// broadcastLocked delivers ev to every subscriber without blocking: a
// subscriber whose buffer is full (it stopped reading) is dropped.
// Caller holds m.mu.
func (m *Manager) broadcastLocked(t *tracked, ev Event) {
	for n, c := range t.subs {
		select {
		case c <- ev:
		default:
			m.dropSubLocked(t, n)
			m.cfg.Log.Warn("jobs: dropped slow event subscriber", "job", t.job.ID)
		}
	}
}
